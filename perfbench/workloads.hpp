#pragma once

/// \file workloads.hpp
/// The three benchmark workloads. All share N=2 pipelines x K=2 stages, the
/// AFP schedule, async sync with sync_lag 1, sync compression off and no
/// fault plan; they differ in where the time goes (see `why` in each).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sync_policy.hpp"
#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "runtime/pipeline_runtime.hpp"

namespace perfbench {

inline constexpr std::size_t kPipelines = 2;

/// One GEMM call as the tensor layer's dispatcher sees it.
struct Gemm {
  std::size_t m, n, k;
  bool trans_a, trans_b;
};

struct Workload {
  std::string name;
  std::string why;
  avgpipe::nn::ModelFactory model;
  std::vector<std::size_t> boundaries;
  avgpipe::runtime::OptimizerFactory optimizer;
  avgpipe::core::SyncPolicyConfig sync;
  std::size_t batch = 0;          ///< samples per pipeline per iteration
  std::size_t micro_batches = 0;  ///< M
  std::size_t checkpoint_every = 0;  ///< 0: no checkpoints on the path
  /// Iterations per timing window (a multiple of checkpoint_every, so every
  /// window carries the same number of saves).
  std::size_t window_iters = 0;

  // Quality: a fixed sample budget of `quality_iters` iterations (a multiple
  // of window_iters) from the initial weights, the held-out loss checked
  // after every window.
  std::size_t quality_iters = 0;
  double target_loss = 0;   ///< time_to_target_s stops at the first eval <= this
  double loss_ceiling = 0;  ///< eval_loss must end below this (chance is higher)

  /// `train` batches consumed in order (kPipelines per iteration, cycled
  /// once exhausted) and a held-out `eval` set, all generated from the seed.
  struct Inputs {
    std::vector<avgpipe::data::Batch> train;
    std::vector<avgpipe::data::Batch> eval;
  };
  std::function<Inputs(std::size_t train_batches)> make_inputs;

  /// The GEMMs one micro-batch's forward+backward through stage 0 runs.
  std::function<std::vector<Gemm>(std::size_t micro_batch)> stage0_gemms;
};

/// Throws avgpipe::Error for an unknown name. `smoke` shrinks the quality
/// budget so every workload finishes in seconds (the benchmark's own tests).
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke);

}  // namespace perfbench
