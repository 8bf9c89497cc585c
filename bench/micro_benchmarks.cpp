/// \file micro_benchmarks.cpp
/// google-benchmark microbenchmarks for the substrates: tensor kernels,
/// autograd round trips, channels, the discrete-event engine and the
/// processor-sharing compute resource. These quantify the cost of the
/// building blocks the reproduction rests on.
///
/// Besides the google-benchmark suite, a hand-timed kernel suite can emit a
/// machine-readable perf baseline:
///
///   micro_benchmarks --json=BENCH_kernels.json [--kernels-only]
///
/// The JSON records the GEMM micro-kernel in use (`gemm_isa`), GFLOP/s and
/// ns/op for the blocked GEMM vs the plain loop (tests/gemm_oracle.hpp) per
/// shape and transpose form (`op`), ns/call of every supported ISA build of
/// the small GEMM (gemm_reference) vs the same loop at mlp_tiny's
/// per-micro-batch shapes (`small_gemm`), fused vs unfused SGD kernels,
/// ns/element of the vector tanh/exp kernels vs the libm loop, heap
/// allocations per steady-state training step from the arena counters, the
/// checkpoint CRC-32 kernel's GB/s, a strided NT GEMM (the attention score
/// GEMM reading q and k in place) against the same GEMM on packed copies,
/// and the attention node's forward+backward at bert_ckpt's shape. The
/// kernel suite also re-checks blocked-vs-loop parity, the small GEMM's
/// bits against the loop, the vector kernels' ulp bound against libm, and
/// the CRC check value and chaining identity, and exits non-zero on a
/// failure, so CI's perf-smoke job doubles as a correctness gate.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "common/queue.hpp"
#include "common/thread_pool.hpp"
#include "gemm_oracle.hpp"
#include "nn/models.hpp"
#include "optim/optimizer.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/quantize.hpp"

namespace {

using namespace avgpipe;
using tensor::Scalar;
using tensor::Tensor;
using tensor::Variable;

void BM_TensorMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Variable a(Tensor::randn({n, n}, rng), false);
  Variable b(Tensor::randn({n, n}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul(a, b).value().data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulForwardBackward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Variable a(Tensor::randn({n, n}, rng), true);
  Variable b(Tensor::randn({n, n}, rng), true);
  for (auto _ : state) {
    a.zero_grad();
    b.zero_grad();
    tensor::sum_all(tensor::matmul(a, b)).backward();
    benchmark::DoNotOptimize(a.grad().data().data());
  }
}
BENCHMARK(BM_MatmulForwardBackward)->Arg(32)->Arg(64);

void BM_LstmForward(benchmark::State& state) {
  Rng rng(1);
  nn::LSTM lstm(32, 32, rng);
  lstm.set_training(false);
  Variable x(Tensor::randn({8, 16, 32}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.forward(x).value().data().data());
  }
}
BENCHMARK(BM_LstmForward);

void BM_TransformerLayerForward(benchmark::State& state) {
  Rng rng(1);
  nn::TransformerEncoderLayer layer(32, 4, 64, rng, 0.0);
  layer.set_training(false);
  Variable x(Tensor::randn({4, 16, 32}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x).value().data().data());
  }
}
BENCHMARK(BM_TransformerLayerForward);

void BM_ChannelPingPong(benchmark::State& state) {
  Channel<int> ch(64);
  for (auto _ : state) {
    ch.send(1);
    benchmark::DoNotOptimize(ch.recv());
  }
}
BENCHMARK(BM_ChannelPingPong);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<Seconds>(i), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_ProcessorSharingReconfig(benchmark::State& state) {
  // Stress the rate-reconfiguration path: many overlapping ops.
  for (auto _ : state) {
    sim::Engine engine;
    sim::ComputeResource gpu(engine, 1e9);
    for (int i = 0; i < 100; ++i) {
      engine.schedule_at(static_cast<Seconds>(i) * 0.001, [&gpu] {
        gpu.submit(1e6, 0.3, [] {});
      });
    }
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_ProcessorSharingReconfig);

void BM_SimulateGnmtBatch(benchmark::State& state) {
  const auto w = workloads::gnmt_profile();
  const auto cluster = workloads::v100_cluster(6);
  const auto part = partition::pipedream_partition(w, cluster, 6);
  sim::SystemConfig sys;
  sys.kind = schedule::Kind::kAdvanceForward;
  sys.micro_batches = 32;
  sys.num_pipelines = 2;
  sys.elastic_averaging = true;
  for (auto _ : state) {
    auto job = sim::build_job(w, cluster, part, sys, 128, 2);
    benchmark::DoNotOptimize(sim::simulate(job).makespan);
  }
}
BENCHMARK(BM_SimulateGnmtBatch);

// -- hand-timed kernel suite (--json) -------------------------------------------

using Clock = std::chrono::steady_clock;

/// Median-of-reps wall time for one call of `fn`, with one warm-up call.
template <typename Fn>
double time_ns(Fn&& fn, int reps) {
  fn();  // warm up (populates arena caches, spawns pool threads)
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::vector<Scalar> bench_vec(std::size_t n, Rng& rng) {
  std::vector<Scalar> v(n);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

struct GemmResult {
  std::size_t m, n, k;
  bool trans_a, trans_b;
  double ref_ns, blocked_ns, ref_gflops, blocked_gflops, speedup, max_rel_err;
};

GemmResult bench_gemm(std::size_t m, std::size_t n, std::size_t k,
                      bool trans_a, bool trans_b) {
  Rng rng(0xBE7C);
  const auto a = bench_vec(m * k, rng);
  const auto b = bench_vec(k * n, rng);
  std::vector<Scalar> c_ref(m * n, 0.0), c_blk(m * n, 0.0);
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const int reps = std::max(3, static_cast<int>(2e8 / flops));

  GemmResult r{m, n, k, trans_a, trans_b, 0, 0, 0, 0, 0, 0};
  r.ref_ns = time_ns(
      [&] {
        oracle::gemm_loop(a.data(), b.data(), c_ref.data(), m, n, k, trans_a,
                          trans_b, false);
      },
      reps);
  r.blocked_ns = time_ns(
      [&] {
        tensor::gemm_blocked(a.data(), b.data(), c_blk.data(), m, n, k,
                             trans_a, trans_b, false);
      },
      reps);
  r.ref_gflops = flops / r.ref_ns;
  r.blocked_gflops = flops / r.blocked_ns;
  r.speedup = r.ref_ns / r.blocked_ns;
  for (std::size_t i = 0; i < m * n; ++i) {
    const double denom = std::max(1.0, std::abs(c_ref[i]));
    r.max_rel_err = std::max(r.max_rel_err,
                             std::abs(c_blk[i] - c_ref[i]) / denom);
  }
  return r;
}

struct SmallGemmResult {
  std::size_t m, n, k;
  bool trans_a, trans_b;
  tensor::detail::GemmIsa isa;
  double loop_ns, kernel_ns, kernel_gflops, speedup;
  bool bits_ok;  ///< the kernel's C equals the loop's bit for bit
};

/// ns per call of the plain loop against gemm_reference's build for `isa`,
/// each timed over batches of calls (one call is a few hundred ns).
SmallGemmResult bench_small_gemm(std::size_t m, std::size_t n, std::size_t k,
                                 bool trans_a, bool trans_b,
                                 tensor::detail::GemmIsa isa) {
  Rng rng(0x5A4);
  const auto a = bench_vec(m * k, rng);
  const auto b = bench_vec(k * n, rng);
  std::vector<Scalar> c_loop(m * n), c(m * n);
  constexpr int kCalls = 100;
  const auto per_call = [&](auto&& call) {
    return time_ns(
               [&] {
                 for (int i = 0; i < kCalls; ++i) call();
               },
               200) /
           kCalls;
  };
  SmallGemmResult r{m, n, k, trans_a, trans_b, isa, 0, 0, 0, 0, false};
  r.loop_ns = per_call([&] {
    oracle::gemm_loop(a.data(), b.data(), c_loop.data(), m, n, k, trans_a,
                      trans_b, false);
  });
  r.kernel_ns = per_call([&] {
    tensor::detail::gemm_reference_isa(isa, a.data(), b.data(), c.data(), m,
                                       n, k, trans_a, trans_b, false);
  });
  r.kernel_gflops = 2.0 * static_cast<double>(m) * n * k / r.kernel_ns;
  r.speedup = r.loop_ns / r.kernel_ns;
  r.bits_ok = std::memcmp(c.data(), c_loop.data(), c.size() * sizeof(Scalar)) ==
              0;
  return r;
}

struct FusedResult {
  std::string name;
  double fused_ns, unfused_ns, speedup;
};

FusedResult bench_fused_sgd() {
  const std::size_t n = 1 << 16;
  Rng rng(6);
  Tensor w({n}), g({n});
  for (auto& v : w.data()) v = rng.normal(0.0, 1.0);
  for (auto& v : g.data()) v = rng.normal(0.0, 1.0);
  Variable p(std::move(w), true);
  p.mutable_grad().copy_from(g);
  optim::Sgd sgd({p}, 1e-6, 0.9, 1e-4);

  Tensor velocity(p.value().shape());
  FusedResult r{"sgd_momentum_step", 0, 0, 0};
  r.fused_ns = time_ns([&] { sgd.step(); }, 50);
  r.unfused_ns = time_ns(
      [&] {
        Tensor gc = p.grad().clone();
        gc.axpy_(1e-4, p.value());
        velocity.scale_(0.9);
        velocity.axpy_(1.0, gc);
        p.value().axpy_(-1e-6, velocity);
      },
      50);
  r.speedup = r.unfused_ns / r.fused_ns;
  return r;
}

struct CodecResult {
  std::string name;        ///< "int8" / "fp16"
  double quant_gbps;       ///< dispatched quantize, input GB/s
  double dequant_gbps;     ///< dispatched dequantize, output GB/s
  double quant_ref_gbps;   ///< reference-oracle quantize
  double dequant_ref_gbps; ///< reference-oracle dequantize
  double wire_ratio;       ///< raw bytes / wire bytes
  double max_err;          ///< round-trip error (codec-specific norm)
  bool parity_ok;          ///< dispatched kernels bit-identical to oracles
};

/// Quantize/dequantize GB/s plus the bit-parity and error gates the CI
/// perf-smoke job enforces. Errors are measured in the codec's own norm:
/// per-block-max-relative for int8, half-ulp-relative for fp16.
CodecResult bench_codec(tensor::Codec codec) {
  const std::size_t n = (1 << 16) + 37;  // odd: exercises every tail path
  Rng rng(0xC0DEC);
  const auto src = bench_vec(n, rng);
  const double raw_bytes = static_cast<double>(n * sizeof(Scalar));
  const int reps = 50;

  CodecResult r{tensor::to_string(codec), 0, 0, 0, 0, 0, 0, true};
  r.wire_ratio =
      raw_bytes / static_cast<double>(tensor::codec_wire_bytes(codec, n));
  std::vector<Scalar> dst(n), dst_ref(n);

  if (codec == tensor::Codec::kInt8) {
    const std::size_t blocks = tensor::int8_num_blocks(n);
    std::vector<std::int8_t> q(n), q_ref(n);
    std::vector<float> s(blocks), s_ref(blocks);
    r.quant_gbps = raw_bytes / time_ns(
        [&] { tensor::quantize_int8(src.data(), n, q.data(), s.data()); },
        reps);
    r.quant_ref_gbps = raw_bytes / time_ns(
        [&] {
          tensor::quantize_int8_reference(src.data(), n, q_ref.data(),
                                          s_ref.data());
        },
        reps);
    r.dequant_gbps = raw_bytes / time_ns(
        [&] { tensor::dequantize_int8(q.data(), s.data(), n, dst.data()); },
        reps);
    r.dequant_ref_gbps = raw_bytes / time_ns(
        [&] {
          tensor::dequantize_int8_reference(q_ref.data(), s_ref.data(), n,
                                            dst_ref.data());
        },
        reps);
    r.parity_ok = q == q_ref && s == s_ref && dst == dst_ref;
    for (std::size_t b = 0; b * tensor::kQuantBlock < n; ++b) {
      const std::size_t lo = b * tensor::kQuantBlock;
      const std::size_t hi = std::min(n, lo + tensor::kQuantBlock);
      double block_max = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        block_max = std::max(block_max, std::abs(src[i]));
      }
      if (block_max == 0.0) continue;
      for (std::size_t i = lo; i < hi; ++i) {
        r.max_err =
            std::max(r.max_err, std::abs(src[i] - dst[i]) / block_max);
      }
    }
  } else {
    std::vector<std::uint16_t> h(n), h_ref(n);
    r.quant_gbps = raw_bytes /
        time_ns([&] { tensor::quantize_fp16(src.data(), n, h.data()); }, reps);
    r.quant_ref_gbps = raw_bytes / time_ns(
        [&] { tensor::quantize_fp16_reference(src.data(), n, h_ref.data()); },
        reps);
    r.dequant_gbps = raw_bytes /
        time_ns([&] { tensor::dequantize_fp16(h.data(), n, dst.data()); },
                reps);
    r.dequant_ref_gbps = raw_bytes / time_ns(
        [&] { tensor::dequantize_fp16_reference(h_ref.data(), n,
                                                dst_ref.data()); },
        reps);
    r.parity_ok = h == h_ref && dst == dst_ref;
    for (std::size_t i = 0; i < n; ++i) {
      const double denom = std::max(std::abs(src[i]), 0x1.0p-14);
      r.max_err = std::max(r.max_err, std::abs(src[i] - dst[i]) / denom);
    }
  }
  return r;
}

/// Per-codec round-trip error ceiling for the bench gate (see
/// tests/kernel_test.cpp for the derivations).
double codec_err_bound(tensor::Codec codec) {
  return codec == tensor::Codec::kInt8 ? 0.5 / 127.0 + 1e-6 : 0x1.0p-10;
}

struct CrcResult {
  std::size_t bytes;  ///< buffer size timed
  double gbps;        ///< ckpt::crc32 throughput
  bool check_ok;      ///< "123456789" -> 0xCBF43926
  bool chain_ok;      ///< chaining and crc32_combine agree with one pass
};

/// Checkpoint CRC-32 over 16 MB (about one checkpoint file), plus the
/// correctness identities the perf-smoke gate enforces.
CrcResult bench_crc32() {
  const std::size_t n = std::size_t{16} << 20;
  Rng rng(0xC4C32);
  std::vector<std::uint8_t> buf(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t word = rng.engine()();
    std::memcpy(buf.data() + i, &word, 8);
  }
  CrcResult r{n, 0, false, false};
  std::uint32_t whole = 0;
  r.gbps = static_cast<double>(n) /
           time_ns([&] { whole = ckpt::crc32(buf.data(), n); }, 10);
  r.check_ok = ckpt::crc32("123456789", 9) == 0xCBF43926u;
  const std::size_t split = n / 3 + 5;  // odd: the second pass is unaligned
  const std::uint32_t head = ckpt::crc32(buf.data(), split);
  const std::uint32_t tail = ckpt::crc32(buf.data() + split, n - split);
  r.chain_ok =
      ckpt::crc32(buf.data() + split, n - split, head) == whole &&
      ckpt::crc32_combine(head, tail, n - split) == whole;
  return r;
}

struct VecMathResult {
  std::string name;          ///< "tanh" / "exp"
  std::size_t n;             ///< span length timed
  double libm_ns_per_elem;   ///< scalar std:: loop
  double kernel_ns_per_elem; ///< dispatched span kernel
  double speedup;
  std::uint64_t max_ulp;     ///< against libm over the timed inputs
};

/// Bound the perf-smoke gate holds the span kernels to (tests/kernel_test.cpp
/// checks the same bound over wider sweeps).
constexpr std::uint64_t kVecMathMaxUlp = 4;

std::uint64_t ulp_distance(Scalar a, Scalar b) {
  if (a == b || (std::isnan(a) && std::isnan(b))) return 0;
  const auto ordered = [](Scalar v) {
    std::int64_t i = 0;
    std::memcpy(&i, &v, sizeof(i));
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

/// ns/element of vec_tanh / vec_exp against the std:: loop they replaced,
/// on one 32768-element span (256 KB: the attention-score and FF-activation
/// sizes of the BERT workload are in this range).
VecMathResult bench_vecmath(bool use_exp) {
  const std::size_t n = 32768;
  Rng rng(use_exp ? 0xE4B : 0x7A4);
  auto x = bench_vec(n, rng);
  for (auto& v : x) v *= 4.0;
  std::vector<Scalar> y_libm(n), y(n);
  const auto libm = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      y_libm[i] = use_exp ? std::exp(x[i]) : std::tanh(x[i]);
    }
  };
  const auto kernel = [&] {
    (use_exp ? tensor::vec_exp : tensor::vec_tanh)(x.data(), y.data(), n);
  };
  const double elems = static_cast<double>(n);
  VecMathResult r{use_exp ? "exp" : "tanh", n, 0, 0, 0, 0};
  r.libm_ns_per_elem = time_ns(libm, 50) / elems;
  r.kernel_ns_per_elem = time_ns(kernel, 50) / elems;
  r.speedup = r.libm_ns_per_elem / r.kernel_ns_per_elem;
  for (std::size_t i = 0; i < n; ++i) {
    r.max_ulp = std::max(r.max_ulp, ulp_distance(y[i], y_libm[i]));
  }
  return r;
}

struct ArenaResult {
  double acquires_per_step, heap_allocs_per_step;
};

ArenaResult bench_arena_steady_state() {
  // One optimizer + persistent parameters, fresh activations per step: the
  // shape every training loop in the repo has.
  Rng rng(7);
  Variable w(Tensor::randn({64, 32}, rng), true);
  optim::Sgd sgd({w}, 0.01, 0.9);
  auto step = [&] {
    Rng local(9);
    Variable x(Tensor::randn({16, 64}, local), false);
    w.zero_grad();
    tensor::mean_all(tensor::relu(tensor::matmul(x, w))).backward();
    sgd.step();
  };
  for (int i = 0; i < 3; ++i) step();  // warm-up fills the free lists
  tensor::arena::reset_stats();
  const int steps = 100;
  for (int i = 0; i < steps; ++i) step();
  const auto s = tensor::arena::stats();
  return {static_cast<double>(s.acquires) / steps,
          static_cast<double>(s.heap_allocs) / steps};
}

/// bert_ckpt's attention shape: micro-batch 8, sequence 32, d_model 64 in
/// 4 heads.
constexpr std::size_t kAttnBatch = 8, kAttnSeq = 32, kAttnModel = 64,
                      kAttnHeads = 4;

struct StridedGemmResult {
  std::size_t m, n, k, ld;
  double strided_ns, packed_ns, strided_gflops;
};

/// The attention score GEMM, S x S x Dh NT, reading q and k in place from
/// the packed [rows, 3D] projection (lda = ldb = 3D), against the same GEMM
/// on contiguous per-head copies.
StridedGemmResult bench_strided_gemm() {
  const std::size_t m = kAttnSeq, n = kAttnSeq, k = kAttnModel / kAttnHeads;
  const std::size_t ld = 3 * kAttnModel;
  Rng rng(0x57D);
  const auto qkv = bench_vec(kAttnSeq * ld, rng);
  std::vector<Scalar> q(m * k), kt(n * k);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy_n(qkv.begin() + i * ld, k, q.begin() + i * k);
    std::copy_n(qkv.begin() + i * ld + kAttnModel, k, kt.begin() + i * k);
  }
  std::vector<Scalar> c_strided(m * n), c_packed(m * n);
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  StridedGemmResult r{m, n, k, ld, 0, 0, 0};
  r.strided_ns = time_ns(
      [&] {
        tensor::gemm(qkv.data(), qkv.data() + kAttnModel, c_strided.data(), m,
                     n, k, false, true, false, {.lda = ld, .ldb = ld});
      },
      2000);
  r.packed_ns = time_ns(
      [&] {
        tensor::gemm(q.data(), kt.data(), c_packed.data(), m, n, k, false,
                     true, false);
      },
      2000);
  r.strided_gflops = flops / r.strided_ns;
  return r;
}

/// Forward+backward of one tensor::multi_head_attention node at bert_ckpt's
/// shape, in training mode without dropout (as bert_ckpt runs it).
double bench_attention_fwd_bwd_ns() {
  Rng rng(0xA77);
  Variable qkv(Tensor::randn({kAttnBatch, kAttnSeq, 3 * kAttnModel}, rng),
               true);
  const Tensor seed = Tensor::randn({kAttnBatch, kAttnSeq, kAttnModel}, rng);
  Rng drop_rng(1);
  return time_ns(
      [&] {
        qkv.zero_grad();
        tensor::multi_head_attention(qkv, kAttnHeads, 0.0, drop_rng, true)
            .backward(seed);
      },
      200);
}

const char* gemm_op(bool trans_a, bool trans_b) {
  static constexpr const char* kOps[] = {"NN", "NT", "TN", "TT"};
  return kOps[(trans_a ? 2 : 0) + (trans_b ? 1 : 0)];
}

int run_kernel_suite(const std::string& json_path) {
  struct Shape {
    std::size_t m, n, k;
    bool trans_a, trans_b;
  };
  // The last three are the forms an MLP stage issues per micro-batch of 32
  // at width 512: forward (NN), input gradient (NT), weight gradient (TN).
  const std::vector<Shape> shapes = {
      {64, 64, 64, false, false},    {128, 128, 128, false, false},
      {256, 256, 256, false, false}, {96, 257, 33, false, false},
      {32, 512, 512, false, false},  {32, 512, 512, false, true},
      {512, 512, 32, true, false}};
  std::printf("gemm micro-kernel: %s\n", tensor::gemm_isa());
  std::vector<GemmResult> gemms;
  bool parity_ok = true;
  for (const auto& [m, n, k, trans_a, trans_b] : shapes) {
    gemms.push_back(bench_gemm(m, n, k, trans_a, trans_b));
    const auto& g = gemms.back();
    // Tolerance mirrors tests/kernel_test.cpp: FMA reassociation accumulates
    // at most a few ulp per k-term.
    if (g.max_rel_err > 1e-13 * static_cast<double>(k + 1)) {
      parity_ok = false;
      std::fprintf(stderr,
                   "PARITY FAIL gemm %zux%zux%zu %s: max_rel_err=%.3e\n", m,
                   n, k, gemm_op(trans_a, trans_b), g.max_rel_err);
    }
    std::printf(
        "gemm %4zux%-4zux%-4zu %s loop %8.2f GFLOP/s  blocked %8.2f GFLOP/s  "
        "speedup %5.2fx  max_rel_err %.2e\n",
        m, n, k, gemm_op(trans_a, trans_b), g.ref_gflops,
        g.blocked_gflops, g.speedup, g.max_rel_err);
  }
  // mlp_tiny's GEMMs on 4-row micro-batches at widths 16 -> 32 -> 32:
  // forward (NN), input gradient (NT) and weight gradient (TN).
  const std::vector<Shape> small_shapes = {{4, 32, 16, false, false},
                                           {4, 32, 32, false, false},
                                           {4, 32, 32, false, true},
                                           {32, 32, 4, true, false}};
  std::vector<SmallGemmResult> small_gemms;
  for (const auto isa : {tensor::detail::GemmIsa::kPortable,
                         tensor::detail::GemmIsa::kAvx2,
                         tensor::detail::GemmIsa::kAvx512}) {
    if (!tensor::detail::gemm_isa_supported(isa)) continue;
    for (const auto& [m, n, k, trans_a, trans_b] : small_shapes) {
      small_gemms.push_back(bench_small_gemm(m, n, k, trans_a, trans_b, isa));
      const auto& g = small_gemms.back();
      if (!g.bits_ok) {
        parity_ok = false;
        std::fprintf(stderr,
                     "PARITY FAIL small gemm %zux%zux%zu %s %s: bits differ "
                     "from the loop\n",
                     m, n, k, gemm_op(trans_a, trans_b),
                     tensor::detail::to_string(isa));
      }
      std::printf(
          "small gemm %2zux%-2zux%-2zu %s %-8s loop %6.0f ns  kernel %6.0f ns "
          "(%6.2f GFLOP/s)  speedup %5.2fx  bits %s\n",
          m, n, k, gemm_op(trans_a, trans_b), tensor::detail::to_string(isa),
          g.loop_ns, g.kernel_ns, g.kernel_gflops, g.speedup,
          g.bits_ok ? "ok" : "FAIL");
    }
  }
  const std::vector<FusedResult> fused = {bench_fused_sgd()};
  for (const auto& f : fused) {
    std::printf("%-20s fused %10.0f ns  unfused %10.0f ns  speedup %.2fx\n",
                f.name.c_str(), f.fused_ns, f.unfused_ns, f.speedup);
  }
  std::vector<CodecResult> codecs;
  for (const tensor::Codec codec :
       {tensor::Codec::kInt8, tensor::Codec::kFp16}) {
    codecs.push_back(bench_codec(codec));
    const auto& c = codecs.back();
    if (!c.parity_ok) {
      parity_ok = false;
      std::fprintf(stderr,
                   "PARITY FAIL codec %s: dispatched != reference\n",
                   c.name.c_str());
    }
    if (c.max_err > codec_err_bound(codec)) {
      parity_ok = false;
      std::fprintf(stderr, "ERROR BOUND FAIL codec %s: max_err=%.3e > %.3e\n",
                   c.name.c_str(), c.max_err, codec_err_bound(codec));
    }
    std::printf(
        "codec %-5s quant %6.2f GB/s (ref %6.2f)  dequant %6.2f GB/s "
        "(ref %6.2f)  wire %.2fx  max_err %.2e\n",
        c.name.c_str(), c.quant_gbps, c.quant_ref_gbps, c.dequant_gbps,
        c.dequant_ref_gbps, c.wire_ratio, c.max_err);
  }
  std::vector<VecMathResult> vecmath;
  for (const bool use_exp : {false, true}) {
    vecmath.push_back(bench_vecmath(use_exp));
    const auto& v = vecmath.back();
    if (v.max_ulp > kVecMathMaxUlp) {
      parity_ok = false;
      std::fprintf(stderr, "ULP BOUND FAIL vec %s: max_ulp=%llu > %llu\n",
                   v.name.c_str(), static_cast<unsigned long long>(v.max_ulp),
                   static_cast<unsigned long long>(kVecMathMaxUlp));
    }
    std::printf(
        "vec %-4s n=%zu libm %6.2f ns/elem  kernel %6.2f ns/elem  speedup "
        "%5.2fx  max_ulp %llu\n",
        v.name.c_str(), v.n, v.libm_ns_per_elem, v.kernel_ns_per_elem,
        v.speedup, static_cast<unsigned long long>(v.max_ulp));
  }
  const CrcResult crc = bench_crc32();
  if (!crc.check_ok || !crc.chain_ok) {
    parity_ok = false;
    std::fprintf(stderr, "CRC FAIL crc32: check value %s, chaining %s\n",
                 crc.check_ok ? "ok" : "WRONG", crc.chain_ok ? "ok" : "WRONG");
  }
  std::printf("crc32 %zu MB %6.2f GB/s  check %s  chain %s\n", crc.bytes >> 20,
              crc.gbps, crc.check_ok ? "ok" : "FAIL",
              crc.chain_ok ? "ok" : "FAIL");
  const StridedGemmResult strided = bench_strided_gemm();
  std::printf(
      "gemm %4zux%-4zux%-4zu NT lda=ldb=%zu strided %8.2f GFLOP/s  %8.0f ns "
      "(packed copies %8.0f ns)\n",
      strided.m, strided.n, strided.k, strided.ld, strided.strided_gflops,
      strided.strided_ns, strided.packed_ns);
  const double attention_ns = bench_attention_fwd_bwd_ns();
  std::printf("attention B=%zu S=%zu D=%zu H=%zu fwd+bwd %10.0f ns\n",
              kAttnBatch, kAttnSeq, kAttnModel, kAttnHeads, attention_ns);
  const ArenaResult arena = bench_arena_steady_state();
  std::printf("arena steady-state: %.1f acquires/step, %.2f heap allocs/step\n",
              arena.acquires_per_step, arena.heap_allocs_per_step);

  std::ofstream out(json_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  out << "{\n  \"schema\": \"avgpipe-kernel-bench-v1\",\n";
  out << "  \"num_threads\": " << configured_num_threads() << ",\n";
  out << "  \"gemm_isa\": \"" << tensor::gemm_isa() << "\",\n";
  out << "  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const auto& g = gemms[i];
    out << "    {\"m\": " << g.m << ", \"n\": " << g.n << ", \"k\": " << g.k
        << ", \"op\": \"" << gemm_op(g.trans_a, g.trans_b) << "\""
        << ", \"ref_ns\": " << g.ref_ns << ", \"blocked_ns\": " << g.blocked_ns
        << ", \"ref_gflops\": " << g.ref_gflops
        << ", \"blocked_gflops\": " << g.blocked_gflops
        << ", \"speedup\": " << g.speedup
        << ", \"max_rel_err\": " << g.max_rel_err << "}"
        << (i + 1 < gemms.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"small_gemm\": [\n";
  for (std::size_t i = 0; i < small_gemms.size(); ++i) {
    const auto& g = small_gemms[i];
    out << "    {\"m\": " << g.m << ", \"n\": " << g.n << ", \"k\": " << g.k
        << ", \"op\": \"" << gemm_op(g.trans_a, g.trans_b) << "\""
        << ", \"isa\": \"" << tensor::detail::to_string(g.isa) << "\""
        << ", \"loop_ns\": " << g.loop_ns << ", \"kernel_ns\": " << g.kernel_ns
        << ", \"kernel_gflops\": " << g.kernel_gflops
        << ", \"speedup\": " << g.speedup
        << ", \"bits_ok\": " << (g.bits_ok ? "true" : "false") << "}"
        << (i + 1 < small_gemms.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fused\": [\n";
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const auto& f = fused[i];
    out << "    {\"name\": \"" << f.name << "\", \"fused_ns\": " << f.fused_ns
        << ", \"unfused_ns\": " << f.unfused_ns
        << ", \"speedup\": " << f.speedup << "}"
        << (i + 1 < fused.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"codec\": [\n";
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    const auto& c = codecs[i];
    out << "    {\"name\": \"" << c.name
        << "\", \"quant_gbps\": " << c.quant_gbps
        << ", \"dequant_gbps\": " << c.dequant_gbps
        << ", \"quant_ref_gbps\": " << c.quant_ref_gbps
        << ", \"dequant_ref_gbps\": " << c.dequant_ref_gbps
        << ", \"wire_ratio\": " << c.wire_ratio
        << ", \"max_err\": " << c.max_err
        << ", \"parity_ok\": " << (c.parity_ok ? "true" : "false") << "}"
        << (i + 1 < codecs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"vecmath\": [\n";
  for (std::size_t i = 0; i < vecmath.size(); ++i) {
    const auto& v = vecmath[i];
    out << "    {\"name\": \"" << v.name << "\", \"n\": " << v.n
        << ", \"libm_ns_per_elem\": " << v.libm_ns_per_elem
        << ", \"kernel_ns_per_elem\": " << v.kernel_ns_per_elem
        << ", \"speedup\": " << v.speedup
        << ", \"max_ulp\": " << v.max_ulp << "}"
        << (i + 1 < vecmath.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"crc32\": {\"bytes\": " << crc.bytes
      << ", \"gbps\": " << crc.gbps
      << ", \"check_ok\": " << (crc.check_ok ? "true" : "false")
      << ", \"chain_ok\": " << (crc.chain_ok ? "true" : "false") << "},\n";
  out << "  \"strided_gemm\": {\"m\": " << strided.m
      << ", \"n\": " << strided.n << ", \"k\": " << strided.k
      << ", \"op\": \"NT\", \"lda\": " << strided.ld
      << ", \"ldb\": " << strided.ld
      << ", \"strided_ns\": " << strided.strided_ns
      << ", \"packed_ns\": " << strided.packed_ns
      << ", \"strided_gflops\": " << strided.strided_gflops << "},\n";
  out << "  \"attention\": {\"batch\": " << kAttnBatch
      << ", \"seq\": " << kAttnSeq << ", \"d_model\": " << kAttnModel
      << ", \"heads\": " << kAttnHeads
      << ", \"fwd_bwd_ns\": " << attention_ns << "},\n";
  out << "  \"arena\": {\"acquires_per_step\": "
      << arena.acquires_per_step
      << ", \"heap_allocs_per_step\": " << arena.heap_allocs_per_step
      << "},\n";
  out << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return parity_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before handing argv to google-benchmark.
  std::string json_path;
  bool kernels_only = false;
  int out_argc = 0;
  std::vector<char*> out_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--kernels-only") == 0) {
      kernels_only = true;
    } else {
      out_argv.push_back(argv[i]);
      ++out_argc;
    }
  }
  out_argv.push_back(nullptr);

  int rc = 0;
  if (!json_path.empty()) rc = run_kernel_suite(json_path);
  if (!kernels_only) {
    benchmark::Initialize(&out_argc, out_argv.data());
    if (benchmark::ReportUnrecognizedArguments(out_argc, out_argv.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return rc;
}
