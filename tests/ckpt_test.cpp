#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/state.hpp"
#include "core/avgpipe.hpp"
#include "core/sync_policy.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "nn/models.hpp"
#include "trace/analysis.hpp"
#include "trace/trace.hpp"

namespace avgpipe {
namespace {

using core::AvgPipe;
using core::AvgPipeConfig;
using core::clone_values;
using core::max_abs_diff;
using core::ParamSet;
using core::SyncPolicyConfig;
using core::SyncPolicyKind;
using data::Batch;
using data::DataLoader;
using data::SyntheticFeatures;
using tensor::Tensor;
using tensor::Variable;

runtime::OptimizerFactory sgd_factory(double lr) {
  return [lr](std::vector<Variable> params) {
    return std::make_unique<optim::Sgd>(std::move(params), lr);
  };
}

nn::ModelFactory mlp_factory(std::size_t in, std::size_t hidden,
                             std::size_t depth, std::size_t classes) {
  return [=](std::uint64_t seed) {
    return nn::make_mlp(in, hidden, depth, classes, seed);
  };
}

/// Fresh temp directory, removed when the fixture object dies. mkdtemp keeps
/// parallel ctest shards from colliding on a shared name.
struct TempDir {
  TempDir() {
    std::string tmpl = "/tmp/avgpipe_ckpt_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

std::vector<Tensor> clone_list(const std::vector<Tensor>& ts) {
  std::vector<Tensor> out;
  out.reserve(ts.size());
  for (const auto& t : ts) out.push_back(t.clone());
  return out;
}

/// A small but fully-populated TrainState (dead pipeline, XPipe-style
/// predictor deltas, RNG streams) for the codec and directory tests.
ckpt::TrainState tiny_state(long step) {
  Rng rng(static_cast<std::uint64_t>(step) + 7);
  ckpt::TrainState s;
  s.step = step;
  s.policy_kind = 3;
  s.alpha = 0.375;
  s.reference = {Tensor::randn({3, 2}, rng), Tensor::randn({2}, rng)};
  s.policy_state = {Tensor::randn({3, 2}, rng)};
  s.broadcast = clone_list(s.reference);

  ckpt::PipelineState alive;
  alive.params = clone_list(s.reference);
  runtime::StageState stage;
  stage.optimizer.name = "sgd";
  stage.optimizer.steps = static_cast<std::size_t>(step);
  stage.optimizer.scalars = {0.9, -3.25e-7};
  stage.optimizer.slots = {Tensor::randn({3, 2}, rng)};
  stage.pred_delta = {Tensor::randn({3, 2}, rng)};
  stage.pred_have_delta = true;
  alive.stages = {stage};

  ckpt::PipelineState dead;
  dead.alive = false;

  s.pipelines = {alive, dead};
  s.rng_streams = {{"data", Rng(11).save_state()},
                   {"chaos", Rng(13).save_state()}};
  return s;
}

void expect_states_equal(const ckpt::TrainState& a, const ckpt::TrainState& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.policy_kind, b.policy_kind);
  EXPECT_EQ(a.alpha, b.alpha);  // bit-exact, not approximate
  EXPECT_EQ(max_abs_diff(a.reference, b.reference), 0.0);
  EXPECT_EQ(max_abs_diff(a.policy_state, b.policy_state), 0.0);
  EXPECT_EQ(max_abs_diff(a.broadcast, b.broadcast), 0.0);
  ASSERT_EQ(a.pipelines.size(), b.pipelines.size());
  for (std::size_t i = 0; i < a.pipelines.size(); ++i) {
    const auto& pa = a.pipelines[i];
    const auto& pb = b.pipelines[i];
    EXPECT_EQ(pa.alive, pb.alive) << "pipeline " << i;
    EXPECT_EQ(max_abs_diff(pa.params, pb.params), 0.0);
    ASSERT_EQ(pa.stages.size(), pb.stages.size());
    for (std::size_t k = 0; k < pa.stages.size(); ++k) {
      const auto& sa = pa.stages[k];
      const auto& sb = pb.stages[k];
      EXPECT_EQ(sa.optimizer.name, sb.optimizer.name);
      EXPECT_EQ(sa.optimizer.steps, sb.optimizer.steps);
      EXPECT_EQ(sa.optimizer.scalars, sb.optimizer.scalars);
      EXPECT_EQ(max_abs_diff(sa.optimizer.slots, sb.optimizer.slots), 0.0);
      EXPECT_EQ(max_abs_diff(sa.pred_delta, sb.pred_delta), 0.0);
      EXPECT_EQ(sa.pred_have_delta, sb.pred_have_delta);
    }
  }
  EXPECT_EQ(a.rng_streams, b.rng_streams);
  EXPECT_EQ(a.sync_codec, b.sync_codec);
  EXPECT_EQ(max_abs_diff(a.broadcast_residual, b.broadcast_residual), 0.0);
  for (std::size_t i = 0; i < a.pipelines.size(); ++i) {
    EXPECT_EQ(max_abs_diff(a.pipelines[i].residuals,
                           b.pipelines[i].residuals),
              0.0)
        << "pipeline " << i << " residuals";
  }
}

/// Append a record holding `payload` verbatim.
void add_bytes(ckpt::CheckpointWriter& w, const std::string& name,
               const std::vector<std::uint8_t>& payload) {
  w.record(name, [&](ckpt::ByteWriter& b) {
    b.bytes(payload.data(), payload.size());
  });
}

/// Direct CRC-32 over a file's bytes on disk.
std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return ckpt::crc32(bytes.data(), bytes.size());
}

/// tiny_state plus an active sync codec and error-feedback residuals.
ckpt::TrainState tiny_state_compressed(long step) {
  Rng rng(static_cast<std::uint64_t>(step) + 31);
  ckpt::TrainState s = tiny_state(step);
  s.sync_codec = static_cast<std::uint8_t>(tensor::Codec::kInt8);
  s.broadcast_residual = {Tensor::randn({3, 2}, rng), Tensor::randn({2}, rng)};
  s.pipelines[0].residuals = {Tensor::randn({3, 2}, rng),
                              Tensor::randn({2}, rng)};
  return s;
}

// -- format primitives -------------------------------------------------------------------

TEST(CkptFormatTest, ByteWriterReaderRoundTripsEveryScalarKind) {
  ckpt::ByteWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("checkpoint");

  ckpt::ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(std::signbit(r.f64()));  // -0.0 survives (raw IEEE bytes)
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "checkpoint");
  EXPECT_NO_THROW(r.expect_done("scalars"));
}

TEST(CkptFormatTest, ByteReaderRefusesTruncationAndTrailingJunk) {
  ckpt::ByteWriter w;
  w.u64(7);
  // Truncated: only half the bytes present.
  ckpt::ByteReader truncated(w.buffer().data(), 4);
  EXPECT_THROW(truncated.u64(), Error);
  // Trailing junk after a complete decode is corruption, not success.
  w.u8(0);
  ckpt::ByteReader trailing(w.buffer());
  trailing.u64();
  EXPECT_THROW(trailing.expect_done("trailing"), Error);
}

TEST(CkptFormatTest, TensorRoundTripIsBitExact) {
  // Compare re-serialized images, not values: byte equality is bit-exactness
  // even for -0.0 and NaN payloads that defeat arithmetic comparison.
  Tensor t = Tensor::from({0.1, -0.0, 1e-300, -3.25,
                           std::numeric_limits<double>::quiet_NaN()});
  ckpt::ByteWriter w;
  ckpt::write_tensor(w, t);

  ckpt::ByteReader r(w.buffer());
  const Tensor back = ckpt::read_tensor(r);
  r.expect_done("tensor");
  EXPECT_EQ(back.shape(), t.shape());

  ckpt::ByteWriter again;
  ckpt::write_tensor(again, back);
  EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(CkptFormatTest, OptimizerStateRoundTrips) {
  Rng rng(5);
  optim::OptimizerState s;
  s.name = "adam";
  s.steps = 17;
  s.scalars = {0.9, 0.999, 1e-8};
  s.slots = {Tensor::randn({4, 3}, rng), Tensor::randn({3}, rng)};

  ckpt::ByteWriter w;
  ckpt::write_optimizer_state(w, s);
  ckpt::ByteReader r(w.buffer());
  const optim::OptimizerState back = ckpt::read_optimizer_state(r);
  r.expect_done("optimizer");

  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.steps, s.steps);
  EXPECT_EQ(back.scalars, s.scalars);
  EXPECT_EQ(max_abs_diff(back.slots, s.slots), 0.0);
}

// -- CRC-32 ------------------------------------------------------------------------------

/// The textbook bytewise CRC-32 (reflected 0xEDB88320), bit by bit: the
/// oracle the table-driven kernel in src/ckpt must match exactly.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n,
                            std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

TEST(CkptCrcTest, CheckValue) {
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);
}

TEST(CkptCrcTest, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(100003);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    // 8 spare bytes so every start offset 0-7 sees the full length.
    const auto buf = random_bytes(100003 + 8, seed);
    for (const std::size_t n : lengths) {
      for (std::size_t off = 0; off < 8; ++off) {
        const std::uint8_t* p = buf.data() + off;
        ASSERT_EQ(ckpt::crc32(p, n), crc32_bitwise(p, n))
            << "seed " << seed << " len " << n << " offset " << off;
        // A non-zero seed exercises the chaining entry state too.
        ASSERT_EQ(ckpt::crc32(p, n, 0x12345678u),
                  crc32_bitwise(p, n, 0x12345678u))
            << "seed " << seed << " len " << n << " offset " << off;
      }
    }
  }
}

TEST(CkptCrcTest, ChainingIdentity) {
  const auto buf = random_bytes(10007, 4);
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 4096u, 10006u, 10007u}) {
    const std::uint32_t a = ckpt::crc32(buf.data(), split);
    EXPECT_EQ(ckpt::crc32(buf.data() + split, buf.size() - split, a),
              ckpt::crc32(buf.data(), buf.size()))
        << "split " << split;
  }
}

TEST(CkptCrcTest, CombineMatchesDirectCrcOverTheConcatenation) {
  const auto buf = random_bytes(70001, 5);
  const std::uint32_t whole = ckpt::crc32(buf.data(), buf.size());
  for (const std::size_t split :
       {0u, 1u, 3u, 8u, 255u, 256u, 4096u, 65536u, 70000u, 70001u}) {
    const std::uint32_t a = ckpt::crc32(buf.data(), split);
    const std::uint32_t b = ckpt::crc32(buf.data() + split, buf.size() - split);
    EXPECT_EQ(ckpt::crc32_combine(a, b, buf.size() - split), whole)
        << "split " << split;
  }
}

// -- checkpoint files --------------------------------------------------------------------

TEST(CkptFileTest, WriterCommitsAtomicallyAndReaderValidatesRecords) {
  TempDir tmp;
  const std::string path = tmp.path + "/ckpt.bin";
  ckpt::CheckpointWriter w;
  add_bytes(w, "meta", {1, 2, 3});
  add_bytes(w, "payload", std::vector<std::uint8_t>(257, 0x5A));
  EXPECT_THROW(add_bytes(w, "meta", {}), Error);  // names unique per file

  const auto committed = w.commit(path);
  EXPECT_EQ(committed.bytes, ckpt::file_size(path));
  EXPECT_EQ(w.image().size(), committed.bytes);
  EXPECT_EQ(ckpt::crc32(w.image().data(), w.image().size()), committed.crc);

  const auto reader = ckpt::CheckpointReader::open(path);
  ASSERT_TRUE(reader.has("meta"));
  ASSERT_TRUE(reader.has("payload"));
  const auto meta = reader.payload("meta");
  EXPECT_EQ(std::vector<std::uint8_t>(meta.begin(), meta.end()),
            (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(reader.payload("payload").size(), 257u);
  for (const auto& rec : reader.records()) EXPECT_TRUE(rec.crc_ok);
  EXPECT_THROW(reader.payload("absent"), Error);
  // No .tmp residue after a clean commit.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CkptFileTest, FlippedBitIsCaughtByRecordCrc) {
  TempDir tmp;
  const std::string path = tmp.path + "/ckpt.bin";
  ckpt::CheckpointWriter w;
  add_bytes(w, "payload", std::vector<std::uint8_t>(64, 0x00));
  w.commit(path);

  ckpt::flip_bit(path, /*bit_index=*/8 * 40);  // inside the payload
  EXPECT_THROW(ckpt::CheckpointReader::open(path), Error);

  // The lenient parse survives to report which record is bad.
  const auto info = ckpt::CheckpointReader::inspect(path);
  EXPECT_EQ(info.file_crc, file_crc(path));
  bool any_bad = !info.ok;
  for (const auto& rec : info.records) any_bad = any_bad || !rec.crc_ok;
  EXPECT_TRUE(any_bad);
}

TEST(CkptFileTest, TornWriteFailsStrictOpenButNotInspect) {
  TempDir tmp;
  const std::string path = tmp.path + "/ckpt.bin";
  ckpt::CheckpointWriter w;
  add_bytes(w, "payload", std::vector<std::uint8_t>(512, 0x77));
  w.commit(path);

  ckpt::truncate_file(path, ckpt::file_size(path) / 2);
  EXPECT_THROW(ckpt::CheckpointReader::open(path), Error);
  const auto info = ckpt::CheckpointReader::inspect(path);
  EXPECT_FALSE(info.ok);
  EXPECT_FALSE(info.error.empty());
  // The parse stopped mid-record; the whole-file CRC still covers every byte.
  EXPECT_EQ(info.file_crc, file_crc(path));
}

TEST(CkptFileTest, FailedRenameThrowsAndLeavesNoTmp) {
  // The target path is a non-empty directory, so rename(2) fails after the
  // tmp file was written and fsync'd: the commit must throw, close its fd
  // and remove the tmp rather than leave it behind.
  TempDir tmp;
  const std::string path = tmp.path + "/ckpt.bin";
  std::filesystem::create_directory(path);
  std::filesystem::create_directory(path + "/occupied");
  ckpt::CheckpointWriter w;
  add_bytes(w, "payload", std::vector<std::uint8_t>(128, 0x11));
  EXPECT_THROW(w.commit(path), Error);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path + "/occupied"));
}

TEST(CkptFileTest, GoldenFormatIsByteIdenticalToFormatV1) {
  // Byte count and whole-file CRC of tiny_state checkpoints as written by
  // the original serialize-then-copy writer (libstdc++ normal_distribution
  // draws the tensors). Any layout drift in the single-copy writer shows up
  // here. The manifest CRC, derived with crc32_combine, must also equal a
  // direct CRC over the bytes on disk.
  struct Golden {
    ckpt::TrainState state;
    std::uint64_t bytes;
    std::uint32_t crc;
  };
  const std::vector<Golden> goldens = {
      {tiny_state(5), 13478, 0x2EC5A204u},
      {tiny_state_compressed(6), 13765, 0xD8247AC4u}};
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  for (const auto& g : goldens) {
    const ckpt::ManifestEntry e = dir.write(g.state);
    EXPECT_EQ(e.bytes, g.bytes) << "step " << e.step;
    EXPECT_EQ(e.crc, g.crc) << "step " << e.step;
    const auto info = ckpt::CheckpointReader::inspect(tmp.path + "/" + e.file);
    EXPECT_TRUE(info.ok) << info.error;
    EXPECT_EQ(info.bytes, g.bytes);
    EXPECT_EQ(info.file_crc, g.crc);
  }
}

// -- TrainState codec --------------------------------------------------------------------

TEST(CkptStateTest, TrainStateRoundTripsThroughAFile) {
  TempDir tmp;
  const std::string path = tmp.path + "/state.bin";
  const ckpt::TrainState state = tiny_state(12);

  ckpt::CheckpointWriter w;
  ckpt::encode(state, w);
  w.commit(path);

  const ckpt::TrainState back =
      ckpt::decode(ckpt::CheckpointReader::open(path));
  expect_states_equal(state, back);
}

TEST(CkptStateTest, OffModeWritesNoResidualRecordsAndStaysByteCompatible) {
  // An uncompressed run's checkpoint must be byte-identical to the
  // pre-compression format: no residual.* records at all, and the decoded
  // state carries codec 0 with empty residual lists.
  const ckpt::TrainState state = tiny_state(3);
  ASSERT_EQ(state.sync_codec, 0);
  ckpt::CheckpointWriter w;
  ckpt::encode(state, w);
  TempDir tmp;
  const std::string path = tmp.path + "/state.bin";
  w.commit(path);

  const auto reader = ckpt::CheckpointReader::open(path);
  EXPECT_FALSE(reader.has("residual.broadcast"));
  EXPECT_FALSE(reader.has("residual.0"));
  const ckpt::TrainState back = ckpt::decode(reader);
  EXPECT_EQ(back.sync_codec, 0);
  EXPECT_TRUE(back.broadcast_residual.empty());
  for (const auto& p : back.pipelines) EXPECT_TRUE(p.residuals.empty());
}

TEST(CkptStateTest, CompressedStateRoundTripsResidualsExactly) {
  // Residuals are f64 state like everything else: the round trip must be
  // bit-exact, and a dead pipeline's empty residual list must survive too.
  TempDir tmp;
  const std::string path = tmp.path + "/state.bin";
  const ckpt::TrainState state = tiny_state_compressed(9);

  ckpt::CheckpointWriter w;
  ckpt::encode(state, w);
  w.commit(path);

  const auto reader = ckpt::CheckpointReader::open(path);
  EXPECT_TRUE(reader.has("residual.broadcast"));
  EXPECT_TRUE(reader.has("residual.0"));
  const ckpt::TrainState back = ckpt::decode(reader);
  expect_states_equal(state, back);
  EXPECT_EQ(back.sync_codec, static_cast<std::uint8_t>(tensor::Codec::kInt8));
}

// -- checkpoint directory (manifest protocol) --------------------------------------------

TEST(CkptDirTest, ManifestIsMonotonicInStep) {
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  dir.write(tiny_state(5));
  EXPECT_THROW(dir.write(tiny_state(5)), Error);  // must strictly advance
  EXPECT_THROW(dir.write(tiny_state(4)), Error);
  dir.write(tiny_state(6));
  const auto entries = dir.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.front().step, 5);
  EXPECT_EQ(entries.back().step, 6);
}

TEST(CkptDirTest, RetentionPrunesOldestFilesButKeepsManifestConsistent) {
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path, /*retain=*/2);
  for (long step = 1; step <= 4; ++step) dir.write(tiny_state(step));

  const auto entries = dir.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].step, 3);
  EXPECT_EQ(entries[1].step, 4);
  // Every manifest entry resolves to a real file, and the pruned ones are
  // actually gone from disk.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(tmp.path)) {
    if (e.path().filename() != "MANIFEST.json") ++files;
  }
  EXPECT_EQ(files, 2u);
  for (const auto& e : entries) {
    EXPECT_TRUE(std::filesystem::exists(tmp.path + "/" + e.file));
  }
}

TEST(CkptDirTest, LoadLatestFallsBackOverACorruptedNewestEntry) {
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  dir.write(tiny_state(1));
  dir.write(tiny_state(2));
  ckpt::flip_bit(tmp.path + "/" + dir.entries().back().file, 12345);

  ckpt::TrainState state;
  const auto res = dir.load_latest(&state);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.step, 1);
  EXPECT_EQ(res.fallbacks, 1);
  expect_states_equal(state, tiny_state(1));
}

TEST(CkptDirTest, LoadLatestFallsBackOverATornNewestEntry) {
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  dir.write(tiny_state(1));
  dir.write(tiny_state(2));
  const std::string newest = tmp.path + "/" + dir.entries().back().file;
  ckpt::truncate_file(newest, ckpt::file_size(newest) / 3);

  ckpt::TrainState state;
  const auto res = dir.load_latest(&state);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.step, 1);
  EXPECT_EQ(res.fallbacks, 1);
}

TEST(CkptDirTest, LoadLatestFallsBackOverAnotherStepsFileUnderTheNewestName) {
  // Files of one layout share their whole-file CRC, so an older valid file
  // copied over the newest entry's name passes every CRC; only its decoded
  // step shows it is not that entry.
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path, /*retain=*/3);
  for (long step = 1; step <= 3; ++step) dir.write(tiny_state(step));
  const auto entries = dir.entries();
  ASSERT_EQ(entries.size(), 3u);
  ASSERT_EQ(entries.front().crc, entries.back().crc);
  std::filesystem::copy_file(
      tmp.path + "/" + entries.front().file,
      tmp.path + "/" + entries.back().file,
      std::filesystem::copy_options::overwrite_existing);

  ckpt::TrainState state;
  const auto res = dir.load_latest(&state);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.step, 2);
  EXPECT_EQ(res.fallbacks, 1);
  EXPECT_NE(res.error.find("holds step 1"), std::string::npos) << res.error;
  EXPECT_NE(res.error.find("entry step 3"), std::string::npos) << res.error;
  expect_states_equal(state, tiny_state(2));
}

TEST(CkptDirTest, LoadLatestReportsFailureWhenEverythingIsCorrupted) {
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  dir.write(tiny_state(1));
  dir.write(tiny_state(2));
  for (const auto& e : dir.entries()) {
    ckpt::flip_bit(tmp.path + "/" + e.file, 999);
  }
  ckpt::TrainState state;
  const auto res = dir.load_latest(&state);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.fallbacks, 2);
  EXPECT_FALSE(res.error.empty());
}

TEST(CkptDirTest, EmptyDirectoryLoadsNothing) {
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  ckpt::TrainState state;
  const auto res = dir.load_latest(&state);
  EXPECT_FALSE(res.ok);
  EXPECT_TRUE(dir.entries().empty());
}

// -- asynchronous commits (one writer thread) --------------------------------------------

TEST(CkptAsyncTest, EveryReaderOfThePathSeesASubmittedSave) {
  // Read-your-writes: once submit returns, entries() and load_latest() on
  // the owning dir, and on a fresh dir over the same path spelled
  // differently, wait for the queued commit instead of missing it.
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  const ckpt::ManifestEntry queued = dir.submit(tiny_state(1));
  EXPECT_EQ(queued.step, 1);
  EXPECT_EQ(queued.file, "ckpt-000000001.avgp");

  ckpt::CheckpointDir other(tmp.path + "/.");
  ckpt::TrainState loaded;
  const auto res = other.load_latest(&loaded);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.step, 1);
  EXPECT_EQ(res.fallbacks, 0);
  expect_states_equal(loaded, tiny_state(1));

  dir.submit(tiny_state(2));
  const auto entries = other.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.back().step, 2);
  EXPECT_GT(entries.back().bytes, 0u);
  // write() is submit + wait: it returns the committed entry in full.
  const ckpt::ManifestEntry written = dir.write(tiny_state(3));
  EXPECT_EQ(written.step, 3);
  EXPECT_EQ(written.bytes, ckpt::file_size(tmp.path + "/" + written.file));
}

TEST(CkptAsyncTest, BackToBackSubmitsWithTheSameStepAreRejected) {
  // The second submit is checked against the step submitted first, even
  // though that commit may still be in flight when it arrives.
  TempDir tmp;
  ckpt::CheckpointDir dir(tmp.path);
  dir.submit(tiny_state(4));
  EXPECT_THROW(dir.submit(tiny_state(4)), Error);
  const auto entries = dir.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.back().step, 4);
}

TEST(CkptAsyncTest, BackToBackSavesOfOneStepAreRejected) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  TempDir tmp;
  ckpt::CheckpointDir ckpts(tmp.path);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.checkpoints = &ckpts;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  system.train_iteration({loader.batch(0, 0), loader.batch(0, 1)});
  EXPECT_EQ(system.save_checkpoint().step, 1);
  EXPECT_THROW(system.save_checkpoint(), Error);
  system.train_iteration({loader.batch(1, 0), loader.batch(1, 1)});
  EXPECT_EQ(system.save_checkpoint().step, 2);
  EXPECT_EQ(ckpts.entries().back().step, 2);
}

/// Replace the directory at `path` by a regular file (the directory moves
/// to `path.moved`), or undo that.
void swap_dir_for_file(const std::string& path, bool swap) {
  if (swap) {
    std::filesystem::rename(path, path + ".moved");
    std::ofstream(path) << "not a directory";
  } else {
    std::filesystem::remove(path);
    std::filesystem::rename(path + ".moved", path);
  }
}

bool has_tmp_file(const std::string& dir) {
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".tmp") return true;
  }
  return false;
}

TEST(CkptAsyncTest, WriterFailureIsRaisedOnceByTheNextCall) {
  // An I/O failure on the writer thread is never swallowed: the next call
  // on the directory raises it (entries and write here), exactly once, and
  // the directory keeps no .tmp and still names only committed files.
  TempDir tmp;
  const std::string path = tmp.path + "/ckpts";
  ckpt::CheckpointDir dir(path);
  dir.write(tiny_state(1));

  swap_dir_for_file(path, true);
  dir.submit(tiny_state(2));  // queued; the commit fails on the writer thread
  EXPECT_THROW(dir.entries(), Error);
  EXPECT_THROW(dir.write(tiny_state(3)), Error);
  swap_dir_for_file(path, false);

  const auto entries = dir.entries();  // the error was raised already
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.back().step, 1);
  EXPECT_FALSE(has_tmp_file(path));
  EXPECT_EQ(dir.write(tiny_state(2)).step, 2);

  swap_dir_for_file(path, true);
  dir.submit(tiny_state(3));
  ckpt::TrainState loaded;
  EXPECT_THROW(dir.load_latest(&loaded), Error);
  swap_dir_for_file(path, false);
  const auto res = dir.load_latest(&loaded);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.step, 2);
  EXPECT_FALSE(has_tmp_file(path));
}

TEST(CkptAsyncTest, FailedCommitIsRaisedByTheNextSave) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  TempDir tmp;
  const std::string path = tmp.path + "/ckpts";
  ckpt::CheckpointDir ckpts(path);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.checkpoints = &ckpts;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  for (std::size_t iter = 0; iter < 3; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    if (iter == 1) {
      ckpts.wait();  // let the first save land before the directory goes
      swap_dir_for_file(path, true);
    }
    if (iter < 2) {
      system.save_checkpoint();  // the second one fails off the driver
    } else {
      EXPECT_THROW(system.save_checkpoint(), Error);
    }
  }
  swap_dir_for_file(path, false);
  EXPECT_EQ(ckpts.entries().back().step, 1);
  EXPECT_FALSE(has_tmp_file(path));
  system.train_iteration({loader.batch(3, 0), loader.batch(3, 1)});
  EXPECT_EQ(system.save_checkpoint().step, 4);
  EXPECT_EQ(ckpts.entries().back().step, 4);
}

TEST(CkptAsyncTest, DirectoryMayGoBeforeThePipeThatSavedThroughIt) {
  // Owners often hold the CheckpointDir beside the AvgPipe and free it
  // first. Its destructor waits for the queued commit, and the pipe's
  // destructor drains by key, never through the freed directory.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  TempDir tmp;
  trace::Tracer tracer;
  auto ckpts = std::make_unique<ckpt::CheckpointDir>(tmp.path);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.checkpoints = ckpts.get();
  cfg.tracer = &tracer;
  auto system = std::make_unique<AvgPipe>(mlp_factory(6, 8, 2, 2),
                                          sgd_factory(0.1), cfg);
  system->train_iteration({loader.batch(0, 0), loader.batch(0, 1)});
  system->save_checkpoint();
  ckpts.reset();
  // Another directory's commit keeps the writer's table non-empty, so a
  // drain through the freed directory would read its freed key.
  ckpt::CheckpointDir other(tmp.path + "/other");
  other.submit(tiny_state(1));
  system.reset();
  const auto entries = ckpt::CheckpointDir(tmp.path).entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.back().step, 1);
  std::size_t commits = 0;
  for (const auto& ev : tracer.collect()) {
    commits += ev.kind == trace::EventKind::kCheckpointCommit ? 1 : 0;
  }
  EXPECT_EQ(commits, 1u);
}

TEST(CkptAsyncTest, StallAndCommitAreSeparateSpans) {
  // kCheckpoint is the driver's stall; the writer records the commit, with
  // the bytes on disk, as kCheckpointCommit in a buffer of its own.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  TempDir tmp;
  ckpt::CheckpointDir ckpts(tmp.path);
  trace::Tracer tracer;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.checkpoints = &ckpts;
  cfg.tracer = &tracer;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  for (std::size_t iter = 0; iter < 2; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    system.save_checkpoint();
  }
  const auto entries = ckpts.entries();
  ASSERT_EQ(entries.size(), 2u);
  std::vector<trace::TraceEvent> stalls, commits;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind == trace::EventKind::kCheckpoint) stalls.push_back(ev);
    if (ev.kind == trace::EventKind::kCheckpointCommit) commits.push_back(ev);
  }
  ASSERT_EQ(stalls.size(), 2u);
  ASSERT_EQ(commits.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(stalls[i].batch, entries[i].step);
    EXPECT_EQ(commits[i].batch, entries[i].step);
    EXPECT_EQ(commits[i].bytes, entries[i].bytes);
    EXPECT_GE(commits[i].t_begin, stalls[i].t_begin);
  }
  const trace::TraceAnalysis analysis(tracer.collect());
  EXPECT_EQ(analysis.checkpoint_bytes(), entries[0].bytes + entries[1].bytes);
  EXPECT_GT(analysis.checkpoint_commit_time(), 0.0);
}

// -- RNG streams -------------------------------------------------------------------------

TEST(CkptRngTest, RngSaveRestoreResumesTheDrawSequenceExactly) {
  Rng a(99);
  for (int i = 0; i < 100; ++i) a.uniform();
  const std::string snapshot = a.save_state();

  std::vector<double> expected;
  for (int i = 0; i < 32; ++i) expected.push_back(a.uniform());

  Rng b(1);  // different seed: state must come wholly from the snapshot
  b.restore_state(snapshot);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(b.uniform(), expected[static_cast<std::size_t>(i)]) << i;
  }
  EXPECT_THROW(b.restore_state("not an engine snapshot"), Error);
}

// -- resume bit-parity (one test per policy kind) ----------------------------------------

class CkptResumeParityTest : public ::testing::TestWithParam<SyncPolicyKind> {};

std::string kind_name(const ::testing::TestParamInfo<SyncPolicyKind>& info) {
  return to_string(info.param);
}

TEST_P(CkptResumeParityTest, ThreadedResumeIsBitIdenticalToUninterruptedRun) {
  // Same contract on the full threaded system (sync mode is deterministic).
  // XPipe makes this the deep test: its per-stage EMA predictor state rides
  // in StageState and a missed delta would silently fork the trajectory.
  const SyncPolicyKind kind = GetParam();
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.sync.kind = kind;
  const std::size_t kHalf = 4, kTotal = 8;

  AvgPipe uninterrupted(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  std::vector<double> losses;
  for (std::size_t iter = 0; iter < kTotal; ++iter) {
    losses.push_back(uninterrupted.train_iteration(
        {loader.batch(iter, 0), loader.batch(iter, 1)}));
  }

  TempDir tmp;
  ckpt::CheckpointDir ckpts(tmp.path);
  AvgPipeConfig cfg_ck = cfg;
  cfg_ck.checkpoints = &ckpts;
  {
    AvgPipe first(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg_ck);
    for (std::size_t iter = 0; iter < kHalf; ++iter) {
      first.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    }
    const auto entry = first.save_checkpoint();
    EXPECT_EQ(entry.step, static_cast<long>(kHalf));
    // The size is known once the writer's commit lands; entries() waits.
    EXPECT_GT(ckpts.entries().back().bytes, 0u);
  }

  AvgPipe resumed(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg_ck);
  const auto res = resumed.restore_latest_checkpoint();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.step, static_cast<long>(kHalf));

  for (std::size_t iter = kHalf; iter < kTotal; ++iter) {
    const double loss = resumed.train_iteration(
        {loader.batch(iter, 0), loader.batch(iter, 1)});
    EXPECT_DOUBLE_EQ(loss, losses[iter]) << "iter " << iter;
  }
  EXPECT_EQ(max_abs_diff(resumed.reference_snapshot(),
                         uninterrupted.reference_snapshot()),
            0.0);
  EXPECT_EQ(max_abs_diff(resumed.broadcast_snapshot(),
                         uninterrupted.broadcast_snapshot()),
            0.0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(max_abs_diff(resumed.replica_snapshot(i),
                           uninterrupted.replica_snapshot(i)),
              0.0)
        << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CkptResumeParityTest,
                         ::testing::ValuesIn(core::all_sync_policies()),
                         kind_name);

// -- resume bit-parity under a lossy sync codec ------------------------------------------

class CkptCompressedResumeTest
    : public ::testing::TestWithParam<SyncPolicyKind> {};

TEST_P(CkptCompressedResumeTest, ThreadedInt8ResumeIsBitIdentical) {
  // The recovery contract must survive compression: the EF residuals are
  // part of TrainState, so a restore lands on the exact lossy trajectory the
  // uninterrupted compressed run follows — same quantization decisions, same
  // compensation, 0.0 delta.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.sync.kind = GetParam();
  core::SyncCompression int8;
  int8.codec = tensor::Codec::kInt8;
  cfg.sync_compression = int8;
  const std::size_t kHalf = 4, kTotal = 8;

  AvgPipe uninterrupted(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  std::vector<double> losses;
  for (std::size_t iter = 0; iter < kTotal; ++iter) {
    losses.push_back(uninterrupted.train_iteration(
        {loader.batch(iter, 0), loader.batch(iter, 1)}));
  }

  TempDir tmp;
  ckpt::CheckpointDir ckpts(tmp.path);
  AvgPipeConfig cfg_ck = cfg;
  cfg_ck.checkpoints = &ckpts;
  {
    AvgPipe first(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg_ck);
    for (std::size_t iter = 0; iter < kHalf; ++iter) {
      first.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    }
    first.save_checkpoint();
  }

  AvgPipe resumed(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg_ck);
  const auto res = resumed.restore_latest_checkpoint();
  ASSERT_TRUE(res.ok) << res.error;

  for (std::size_t iter = kHalf; iter < kTotal; ++iter) {
    const double loss = resumed.train_iteration(
        {loader.batch(iter, 0), loader.batch(iter, 1)});
    EXPECT_DOUBLE_EQ(loss, losses[iter]) << "iter " << iter;
  }
  EXPECT_EQ(max_abs_diff(resumed.reference_snapshot(),
                         uninterrupted.reference_snapshot()),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CkptCompressedResumeTest,
                         ::testing::ValuesIn(core::all_sync_policies()),
                         kind_name);

TEST(CkptCompressedSystemTest, CodecMismatchResetsResidualsButRestores) {
  // A checkpoint written under one codec must still restore into a system
  // running another (or none): parameters land exactly, residuals reset.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  core::SyncCompression int8;
  int8.codec = tensor::Codec::kInt8;
  cfg.sync_compression = int8;
  AvgPipe compressed(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  for (std::size_t iter = 0; iter < 3; ++iter) {
    compressed.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  const ckpt::TrainState state = compressed.capture_state();

  AvgPipeConfig off_cfg = cfg;
  off_cfg.sync_compression = core::SyncCompression{};
  AvgPipe plain(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), off_cfg);
  plain.restore_state(state);  // must not throw
  EXPECT_EQ(max_abs_diff(plain.reference_snapshot(),
                         compressed.reference_snapshot()),
            0.0);
  const double loss =
      plain.train_iteration({loader.batch(3, 0), loader.batch(3, 1)});
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(CkptSystemTest, RestoreRejectsABmufDeltaThatDoesNotMatchTheModel) {
  // A policy record whose Δ decodes with another tensor count or size than
  // the reference must fail the restore, not feed the next fold a Δ it
  // would read and write out of bounds.
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.sync.kind = SyncPolicyKind::kBmuf;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  for (std::size_t iter = 0; iter < 2; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  const ckpt::TrainState good = system.capture_state();
  ASSERT_EQ(good.policy_state.size(), good.reference.size());

  ckpt::TrainState fewer = good;
  fewer.policy_state.pop_back();
  EXPECT_THROW(system.restore_state(fewer), Error);

  ckpt::TrainState bigger = good;
  bigger.policy_state.back() =
      Tensor({bigger.policy_state.back().numel() + 9});
  EXPECT_THROW(system.restore_state(bigger), Error);

  // The intact record still restores and trains.
  system.restore_state(good);
  EXPECT_TRUE(std::isfinite(
      system.train_iteration({loader.batch(2, 0), loader.batch(2, 1)})));
}

// -- registered RNG streams in system checkpoints ----------------------------------------

TEST(CkptSystemTest, RegisteredRngStreamsRideAlongCaptureAndRestore) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  Rng data_order(7);
  system.register_rng("data-order", &data_order);
  EXPECT_THROW(system.register_rng("data-order", &data_order), Error);

  system.train_iteration({loader.batch(0, 0), loader.batch(0, 1)});
  const ckpt::TrainState state = system.capture_state();
  ASSERT_EQ(state.rng_streams.size(), 1u);
  EXPECT_EQ(state.rng_streams[0].first, "data-order");

  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(data_order.uniform());

  system.restore_state(state);  // rewinds the stream to the capture point
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(data_order.uniform(), expected[static_cast<std::size_t>(i)]);
  }
}

// -- dead-pipeline membership across restore ---------------------------------------------

TEST(CkptSystemTest, DeadPipelineStaysDetachedAcrossRestore) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  system.train_iteration({loader.batch(0, 0), loader.batch(0, 1)});
  system.detach_pipeline(1, "operator drain");
  system.train_iteration({loader.batch(1, 0), loader.batch(1, 1)});
  const ckpt::TrainState state = system.capture_state();
  EXPECT_TRUE(state.pipelines[0].alive);
  EXPECT_FALSE(state.pipelines[1].alive);

  AvgPipe other(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);
  other.restore_state(state);
  EXPECT_TRUE(other.pipeline_alive(0));
  EXPECT_FALSE(other.pipeline_alive(1));
  EXPECT_EQ(other.alpha(), state.alpha);

  // And the membership machinery still works on the restored system.
  other.rejoin_pipeline(1);
  const double loss =
      other.train_iteration({loader.batch(2, 0), loader.batch(2, 1)});
  EXPECT_TRUE(std::isfinite(loss));
}

// -- failure escalation: mid-batch kill -> detach -> restore-from-checkpoint -------------

TEST(CkptEscalationTest, WorkerKillEscalatesToDurableRestore) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  TempDir tmp;
  ckpt::CheckpointDir ckpts(tmp.path);

  fault::FaultPlan plan;
  fault::WorkerKill kill;
  kill.pipeline = 1;
  kill.step = 2;  // dies mid-batch on the third iteration
  kill.micro_batch = 1;
  plan.kills.push_back(kill);

  trace::Tracer tracer;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.checkpoints = &ckpts;
  cfg.restore_on_failure = true;
  cfg.faults = &plan;
  cfg.tracer = &tracer;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  for (std::size_t iter = 0; iter < 2; ++iter) {
    system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
  }
  system.save_checkpoint();

  // The kill iteration: pipeline 1 dies mid-batch, is detached, and comes
  // back within the same train_iteration with its durable state.
  const double loss =
      system.train_iteration({loader.batch(2, 0), loader.batch(2, 1)});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_TRUE(system.pipeline_alive(1));
  EXPECT_EQ(system.alive_pipelines(), 2u);
  EXPECT_GE(system.health(1).failures, 1u);

  // Two more healthy rounds. (Only two: the restored pipeline's fresh
  // runtime restarts its train_batch counter, so the exact-step kill record
  // would legitimately re-fire once the counter reaches 2 again.)
  for (std::size_t iter = 3; iter < 5; ++iter) {
    const double l =
        system.train_iteration({loader.batch(iter, 0), loader.batch(iter, 1)});
    EXPECT_TRUE(std::isfinite(l)) << "iter " << iter;
  }

  std::size_t crashes = 0, rejoins = 0, checkpoints = 0;
  bool durable_restore = false;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind == trace::EventKind::kPipelineCrash) ++crashes;
    if (ev.kind == trace::EventKind::kPipelineRejoin) ++rejoins;
    if (ev.kind == trace::EventKind::kCheckpoint) ++checkpoints;
    if (ev.kind == trace::EventKind::kRestore && ev.batch == 2) {
      durable_restore = true;  // restored the step-2 checkpoint, no fallback
    }
  }
  EXPECT_EQ(crashes, 1u);
  EXPECT_GE(rejoins, 1u);
  EXPECT_EQ(checkpoints, 1u);
  EXPECT_TRUE(durable_restore);
}

TEST(CkptEscalationTest, KillWithoutLoadableCheckpointFallsBackToBroadcast) {
  SyntheticFeatures ds(64, 6, 2, 3);
  DataLoader loader(ds, 12, 1);
  TempDir tmp;
  ckpt::CheckpointDir ckpts(tmp.path);  // stays empty: nothing to load

  fault::FaultPlan plan;
  fault::WorkerKill kill;
  kill.pipeline = 0;
  kill.step = 1;
  plan.kills.push_back(kill);

  trace::Tracer tracer;
  AvgPipeConfig cfg;
  cfg.num_pipelines = 2;
  cfg.micro_batches = 3;
  cfg.boundaries = {2};
  cfg.checkpoints = &ckpts;
  cfg.restore_on_failure = true;
  cfg.faults = &plan;
  cfg.tracer = &tracer;
  AvgPipe system(mlp_factory(6, 8, 2, 2), sgd_factory(0.1), cfg);

  system.train_iteration({loader.batch(0, 0), loader.batch(0, 1)});
  const double loss =
      system.train_iteration({loader.batch(1, 0), loader.batch(1, 1)});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_TRUE(system.pipeline_alive(0));  // degraded to the broadcast rejoin

  bool fallback_restore = false;
  for (const auto& ev : tracer.collect()) {
    if (ev.kind == trace::EventKind::kRestore && ev.batch == -1) {
      fallback_restore = true;  // batch == -1 marks "no durable state used"
    }
  }
  EXPECT_TRUE(fallback_restore);

  const double next =
      system.train_iteration({loader.batch(2, 0), loader.batch(2, 1)});
  EXPECT_TRUE(std::isfinite(next));
}

}  // namespace
}  // namespace avgpipe
