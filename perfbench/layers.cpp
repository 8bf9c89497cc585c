#include "layers.hpp"

#include "ckpt/checkpoint.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/sync_policy.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {

namespace {

using namespace avgpipe;

/// Median over `repeats` of the mean seconds per call of `fn`, each repeat
/// calling it until at least `min_s` has passed.
template <typename Fn>
double time_call(Fn&& fn, int repeats = 7, double min_s = 0.02) {
  fn();  // warm caches and the arena
  std::vector<double> per_call;
  for (int r = 0; r < repeats; ++r) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      fn();
      ++calls;
      elapsed = seconds_since(t0);
    } while (elapsed < min_s);
    per_call.push_back(elapsed / static_cast<double>(calls));
  }
  return median(per_call);
}

/// The tensor layer's own dispatch rule (ops.cpp): small problems take the
/// reference loop, the rest the blocked kernel.
void dispatch_gemm(const Gemm& g, const tensor::Scalar* a,
                   const tensor::Scalar* b, tensor::Scalar* c) {
  if (g.m * g.n * g.k < tensor::kGemmBlockedThreshold) {
    tensor::gemm_reference(a, b, c, g.m, g.n, g.k, g.trans_a, g.trans_b, false);
  } else {
    tensor::gemm_blocked(a, b, c, g.m, g.n, g.k, g.trans_a, g.trans_b, false);
  }
}

double flops_of(const Gemm& g) { return 2.0 * g.m * g.n * g.k; }

/// Operands large enough for every shape in `shapes`, filled once.
struct Operands {
  std::vector<double> a, b, c;
  explicit Operands(const std::vector<Gemm>& shapes) {
    std::size_t na = 0, nb = 0, nc = 0;
    for (const auto& g : shapes) {
      na = std::max(na, g.m * g.k);
      nb = std::max(nb, g.k * g.n);
      nc = std::max(nc, g.m * g.n);
    }
    Rng rng(7);
    a.resize(na);
    b.resize(nb);
    c.resize(nc);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal();
  }
};

double gflops(const Gemm& g) {
  Operands ops(std::vector<Gemm>{g});
  const double s =
      time_call([&] { dispatch_gemm(g, ops.a.data(), ops.b.data(), ops.c.data()); });
  return flops_of(g) / s * 1e-9;
}

}  // namespace

LayerProbe probe_layers(const Workload& w, const data::Batch& sample,
                        std::size_t stage_workers) {
  // Every probe runs with the kernel-pool share a stage thread gets.
  PartitionGuard share(stage_workers);
  LayerProbe p;

  const data::Batch micro = data::slice_micro_batches(sample, w.micro_batches)[0];
  const std::vector<Gemm> shapes = w.stage0_gemms(micro.batch_size());
  const Gemm* dominant = &shapes.front();
  for (const auto& g : shapes) {
    p.declared_flops += flops_of(g);
    if (flops_of(g) > flops_of(*dominant)) dominant = &g;
  }
  p.gemm_gflops = gflops(*dominant);
  p.gemm_peak_gflops = gflops({256, 256, 256, false, false});

  Operands ops(shapes);
  p.gemm_ms = 1e3 * time_call([&] {
    for (const auto& g : shapes) {
      dispatch_gemm(g, ops.a.data(), ops.b.data(), ops.c.data());
    }
  });

  // nn: forward + backward of stage 0 on one micro-batch, as a stage thread
  // runs it (the boundary gradient seeded with ones).
  nn::Sequential model = w.model(1234);
  nn::Sequential stage0 = model.slice(0, w.boundaries.at(0));
  auto stage_params = stage0.parameters();
  const auto fwd_bwd = [&] {
    tensor::Variable in(micro.inputs);
    tensor::Variable out = stage0.forward(in);
    out.backward(tensor::Tensor::ones(out.shape()));
  };
  const std::uint64_t f0 = tensor::thread_flops();
  fwd_bwd();
  p.stage_flops = static_cast<double>(tensor::thread_flops() - f0);
  p.fwd_bwd_ms = 1e3 * time_call([&] {
    for (auto& v : stage_params) v.zero_grad();
    fwd_bwd();
  });

  // optim: one step() over stage 0's parameters with live gradients.
  auto optimizer = w.optimizer(stage_params);
  p.optim_step_ms = 1e3 * time_call([&] { optimizer->step(); });

  // core: the replica-side and reference-side policy hooks on the whole
  // model, as one replica and the reference process call them per round.
  auto policy = core::make_sync_policy(w.sync);
  auto params = model.parameters();
  const core::ParamSet broadcast = core::clone_values(params);
  const double alpha = core::default_alpha(kPipelines);
  p.local_sync_ms = 1e3 * time_call([&] {
    core::ParamSet update = policy->local_sync(params, broadcast, alpha);
  });
  std::vector<std::vector<core::ParamSet>> rounds(1);
  for (std::size_t i = 0; i < kPipelines; ++i) {
    rounds[0].push_back(policy->local_sync(params, broadcast, alpha));
  }
  core::ReferenceModel reference(core::clone_values(params));
  // Single-threaded probe: nothing else touches this reference model.
  common::RoleGuard role(core::reference_capability());
  p.apply_ms = 1e3 * time_call([&] {
    policy->apply_rounds(reference, rounds);
    core::ParamSet next = policy->make_broadcast(reference);
  });
  return p;
}

CheckpointProbe probe_checkpoint(core::AvgPipe& system, const std::string& dir,
                                 int repeats) {
  ckpt::CheckpointDir checkpoints(dir);
  std::vector<double> capture, commit;
  CheckpointProbe p;
  for (int r = 0; r < repeats; ++r) {
    auto t0 = Clock::now();
    ckpt::TrainState state = system.capture_state();
    capture.push_back(seconds_since(t0));
    state.step = r + 1;  // the manifest needs increasing steps
    t0 = Clock::now();
    p.bytes = static_cast<double>(checkpoints.write(state).bytes);
    commit.push_back(seconds_since(t0));
  }
  p.capture_ms = 1e3 * median(capture);
  p.commit_ms = 1e3 * median(commit);
  return p;
}

}  // namespace perfbench
