#pragma once

/// \file breakdown.hpp
/// Attribution of a traced window's wall time, read from the spans the
/// program already emits (trace::TraceAnalysis over AvgPipeConfig::tracer).
///
/// Every stage stream (pipeline p, stage s) is a timeline over the window
/// [t0, t1]. Each instant of it goes to exactly one row, the first that
/// applies in this order:
///   compute        the stream's forward/backward/update spans
///   comm_wait      the part of a recv wait after the producing span ended
///                  (hand-off and wake-up latency; kWaitComm spans too)
///   bubble         the rest of a recv wait: the producer was still working
///   checkpoint     a kCheckpoint span (the training loop stalls every stream)
///   local_sync     pipeline p's kElasticPull / kPolicyBroadcast spans
///   reference_apply a kReferenceApply span (exposed apply time)
///   unattributed   none of the above: train_iteration hand-offs, dispatch, waits on
///                  the reference handshake
/// Rows are means over the N*K streams divided by the window's iterations,
/// so they sum to the traced ms/iter exactly.

#include <vector>

#include "trace/analysis.hpp"

namespace perfbench {

struct Breakdown {
  double iter_ms = 0;
  double compute_ms = 0;
  double comm_wait_ms = 0;
  double bubble_ms = 0;
  double checkpoint_ms = 0;
  double local_sync_ms = 0;
  double reference_apply_ms = 0;
  double unattributed_ms = 0;
  /// Per stage, mean over pipelines: compute share and bubble share of the
  /// window, and counted GEMM FLOPs over compute time.
  std::vector<double> busy_frac, bubble_frac, gflops;

  double rows_sum() const {
    return compute_ms + comm_wait_ms + bubble_ms + checkpoint_ms +
           local_sync_ms + reference_apply_ms + unattributed_ms;
  }
};

Breakdown attribute(const avgpipe::trace::TraceAnalysis& analysis, double t0,
                    double t1, std::size_t iterations, std::size_t pipelines,
                    std::size_t stages);

}  // namespace perfbench
