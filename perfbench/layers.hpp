#pragma once

/// \file layers.hpp
/// Per-layer measurements taken from outside the program: each probe times
/// calls into one layer's public functions, with no other work running.

#include "core/avgpipe.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerProbe {
  double gemm_gflops = 0;       ///< dominant stage-0 GEMM shape, one thread
  double gemm_peak_gflops = 0;  ///< 256^3 in the same process, one thread
  double fwd_bwd_ms = 0;        ///< stage 0, one micro-batch
  double gemm_ms = 0;           ///< the same GEMM shapes called directly
  double stage_flops = 0;       ///< counted by the tensor layer in fwd_bwd
  double declared_flops = 0;    ///< sum of 2mnk over the workload's shapes
  double optim_step_ms = 0;     ///< stage 0's optimizer step()
  double local_sync_ms = 0;     ///< SyncPolicy::local_sync, one replica
  double apply_ms = 0;          ///< apply_rounds + make_broadcast, one round
};

/// Run every probe for `w`. `sample` is one training batch of the workload;
/// `stage_workers` the kernel-pool share a stage thread runs with.
LayerProbe probe_layers(const Workload& w, const avgpipe::data::Batch& sample,
                        std::size_t stage_workers);

struct CheckpointProbe {
  double capture_ms = 0;
  double commit_ms = 0;
  double bytes = 0;
};

/// Median capture_state / CheckpointDir::write cost on a live system, over
/// `repeats` commits into a fresh checkpoint directory `dir`.
CheckpointProbe probe_checkpoint(avgpipe::core::AvgPipe& system,
                                 const std::string& dir, int repeats);

}  // namespace perfbench
