#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

namespace avgpipe::tensor {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0u);
}

TEST(TensorTest, ShapeAndNumel) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ndim(), 3u);
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(2), 4u);
}

TEST(TensorTest, ZeroInitialised) {
  Tensor t({5});
  for (auto x : t.data()) EXPECT_EQ(x, 0.0);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::full({3}, 2.5);
  EXPECT_EQ(t[0], 2.5);
  EXPECT_EQ(Tensor::ones({2, 2}).sum(), 4.0);
}

TEST(TensorTest, FromInitializerList) {
  Tensor t = Tensor::from({1, 2, 3});
  EXPECT_EQ(t.shape(), Shape({3}));
  EXPECT_EQ(t[1], 2.0);
}

TEST(TensorTest, From2d) {
  Tensor t = Tensor::from2d({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(t.shape(), Shape({3, 2}));
  EXPECT_EQ(t.at(2, 1), 6.0);
}

TEST(TensorTest, From2dRaggedThrows) {
  EXPECT_THROW(Tensor::from2d({{1, 2}, {3}}), Error);
}

TEST(TensorTest, CopyAliasesCloneDoesNot) {
  Tensor a({4});
  Tensor b = a;        // alias
  Tensor c = a.clone();  // deep copy
  a[0] = 7.0;
  EXPECT_EQ(b[0], 7.0);
  EXPECT_EQ(c[0], 0.0);
  EXPECT_TRUE(a.aliases(b));
  EXPECT_FALSE(a.aliases(c));
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a({2, 6});
  Tensor b = a.reshape({3, 4});
  a[5] = 9.0;
  EXPECT_EQ(b[5], 9.0);
  EXPECT_EQ(b.shape(), Shape({3, 4}));
}

TEST(TensorTest, ReshapeWrongNumelThrows) {
  Tensor a({2, 3});
  EXPECT_THROW(a.reshape({7}), Error);
}

TEST(TensorTest, Axpy) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({10, 20, 30});
  a.axpy_(0.5, b);
  EXPECT_DOUBLE_EQ(a[0], 6.0);
  EXPECT_DOUBLE_EQ(a[2], 18.0);
}

TEST(TensorTest, AxpyShapeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(a.axpy_(1.0, b), Error);
}

TEST(TensorTest, Scale) {
  Tensor a = Tensor::from({2, -4});
  a.scale_(-0.5);
  EXPECT_DOUBLE_EQ(a[0], -1.0);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
}

TEST(TensorTest, LerpIsElasticPull) {
  // lerp_(other, t): a <- (1-t) a + t other — the paper's step ❷.
  Tensor a = Tensor::from({0, 10});
  Tensor ref = Tensor::from({10, 0});
  a.lerp_(ref, 0.25);
  EXPECT_DOUBLE_EQ(a[0], 2.5);
  EXPECT_DOUBLE_EQ(a[1], 7.5);
}

TEST(TensorTest, LerpFullPullEqualsReference) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor ref = Tensor::from({4, 5, 6});
  a.lerp_(ref, 1.0);
  EXPECT_EQ(a.max_abs_diff(ref), 0.0);
}

TEST(TensorTest, SumMeanNormDot) {
  Tensor a = Tensor::from({3, 4});
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
  EXPECT_DOUBLE_EQ(a.mean(), 3.5);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
  EXPECT_DOUBLE_EQ(a.abs_max(), 4.0);
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor a = Tensor::from({1, 5});
  Tensor b = Tensor::from({2, 2});
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 3.0);
}

TEST(TensorTest, CopyFrom) {
  Tensor a({3});
  a.copy_from(Tensor::from({7, 8, 9}));
  EXPECT_EQ(a[2], 9.0);
}

TEST(TensorTest, RandnDeterministicInSeed) {
  Rng r1(99), r2(99);
  Tensor a = Tensor::randn({16}, r1);
  Tensor b = Tensor::randn({16}, r2);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST(TensorTest, RandnStddev) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 2.0);
  double mean = t.mean();
  double var = 0;
  for (auto x : t.data()) var += (x - mean) * (x - mean);
  var /= static_cast<double>(t.numel());
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(TensorTest, ToStringTruncates) {
  Tensor t({100});
  const std::string s = t.to_string(4);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// -- offset views -------------------------------------------------------------

/// 0, 1, ..., n - 1.
Tensor iota(std::size_t n) {
  Tensor t({n});
  for (std::size_t i = 0; i < n; ++i) t[i] = static_cast<Scalar>(i);
  return t;
}

/// Every element of `buf` outside [lo, hi) is bit-identical to `before`'s.
void expect_outside_unchanged(const Tensor& buf, const Tensor& before,
                              std::size_t lo, std::size_t hi) {
  for (std::size_t i = 0; i < buf.numel(); ++i) {
    if (i >= lo && i < hi) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(buf[i]),
              std::bit_cast<std::uint64_t>(before[i]))
        << "element " << i;
  }
}

TEST(TensorViewTest, ViewPastTheEndThrows) {
  const Tensor buf({10});
  EXPECT_NO_THROW(buf.view(7, {3}));
  EXPECT_NO_THROW(buf.view(10, {0}));
  EXPECT_THROW(buf.view(8, {3}), Error);
  EXPECT_THROW(buf.view(11, {0}), Error);
  EXPECT_THROW(buf.view(0, {2, 6}), Error);
  // A view of a view stays inside the outer view, not just the storage.
  const Tensor v = buf.view(2, {6});
  EXPECT_THROW(v.view(4, {3}), Error);
  EXPECT_EQ(v.view(4, {2}).offset(), 6u);
}

TEST(TensorViewTest, ElementAccessReadsThroughTheView) {
  Tensor buf = iota(16);
  Tensor v = buf.view(4, {2, 3});
  EXPECT_EQ(v.numel(), 6u);
  EXPECT_EQ(v.offset(), 4u);
  EXPECT_EQ(v[0], 4.0);
  EXPECT_EQ(v.at(1, 2), 9.0);
  EXPECT_EQ(v.data().size(), 6u);
  EXPECT_EQ(v.data().data(), buf.data().data() + 4);
  v[5] = -1.0;
  EXPECT_EQ(buf[9], -1.0);
}

TEST(TensorViewTest, CloneCopiesOnlyTheRange) {
  const Tensor buf = iota(16);
  const Tensor c = buf.view(4, {2, 3}).clone();
  EXPECT_FALSE(c.aliases(buf));
  EXPECT_EQ(c.offset(), 0u);
  EXPECT_EQ(c.shape(), Shape({2, 3}));
  EXPECT_EQ(c.to_string(), "Tensor[2, 3] {4, 5, 6, 7, 8, 9}");
}

TEST(TensorViewTest, InPlaceOpsTouchOnlyTheRange) {
  const Tensor other = Tensor::from({1, 2, 3, 4, 5, 6}).reshape({2, 3});
  const Tensor before = iota(16);
  const auto check = [&](const char* op, auto&& apply, auto&& expected) {
    SCOPED_TRACE(op);
    Tensor buf = before.clone();
    Tensor v = buf.view(4, {2, 3});
    apply(v);
    expect_outside_unchanged(buf, before, 4, 10);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_DOUBLE_EQ(buf[4 + j], expected(before[4 + j], other[j]))
          << "element " << j;
    }
  };
  check("copy_from", [&](Tensor& v) { v.copy_from(other); },
        [](Scalar, Scalar o) { return o; });
  check("axpy_", [&](Tensor& v) { v.axpy_(2.0, other); },
        [](Scalar x, Scalar o) { return x + 2.0 * o; });
  check("lerp_", [&](Tensor& v) { v.lerp_(other, 0.25); },
        [](Scalar x, Scalar o) { return x + 0.25 * (o - x); });
  check("fill_", [](Tensor& v) { v.fill_(7.0); },
        [](Scalar, Scalar) { return 7.0; });
  check("reshape", [](Tensor& v) { v.reshape({6})[5] = -3.0; },
        [](Scalar x, Scalar) { return x == 9.0 ? -3.0 : x; });
}

TEST(TensorViewTest, ReductionsAndPrintingSeeOnlyTheRange) {
  Tensor buf = iota(16);
  buf[3] = 1e9;  // neighbours a reduction must not see
  buf[10] = -1e9;
  const Tensor v = buf.view(4, {2, 3});
  const Tensor other = Tensor::from({4, 5, 6, 7, 8, 0});
  EXPECT_EQ(v.max_abs_diff(other), 9.0);
  EXPECT_EQ(v.sum(), 39.0);
  EXPECT_EQ(v.to_string(), "Tensor[2, 3] {4, 5, 6, 7, 8, 9}");
  EXPECT_EQ(v.to_string(2), "Tensor[2, 3] {4, 5, ...}");
  EXPECT_THROW(v.reshape({7}), Error);
  EXPECT_EQ(v.reshape({3, 2}).offset(), 4u);
}

TEST(TensorViewTest, AliasesAndUseCountAreStorageLevel) {
  const Tensor buf({16});
  EXPECT_EQ(buf.use_count(), 1);
  const Tensor a = buf.view(0, {4});
  const Tensor b = buf.view(8, {4});
  EXPECT_TRUE(a.aliases(b));  // disjoint ranges, one storage
  EXPECT_TRUE(a.aliases(buf));
  EXPECT_FALSE(a.aliases(a.clone()));
  EXPECT_EQ(buf.use_count(), 3);
  EXPECT_EQ(a.use_count(), 3);
}

// -- shards -------------------------------------------------------------------

TEST(TensorShardTest, FlatZerosAlignsEveryViewAndZeroesTheGaps) {
  const std::vector<Tensor> like{Tensor({3}), Tensor({2, 5}), Tensor({8}),
                                 Tensor({1})};
  const std::vector<Tensor> flat = flat_zeros(like);
  ASSERT_EQ(flat.size(), like.size());
  std::size_t covered = 0;
  for (std::size_t j = 0; j < flat.size(); ++j) {
    EXPECT_TRUE(flat[j].aliases(flat[0]));
    EXPECT_EQ(flat[j].shape(), like[j].shape());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(flat[j].data().data()) % 64,
              0u);
    covered += flat[j].numel();
  }
  EXPECT_EQ(flat[1].offset(), 8u);  // 3 rounded up to 8 scalars
  EXPECT_EQ(flat[2].offset(), 24u);
  EXPECT_EQ(flat[3].offset(), 32u);
  EXPECT_EQ(shard_end(flat, 0), flat.size());
  const auto all = run_span(std::span<const Tensor>(flat), 0, flat.size());
  EXPECT_EQ(all.size(), 33u);
  EXPECT_LT(covered, all.size());
  for (const Scalar x : all) EXPECT_EQ(x, 0.0);
}

TEST(TensorShardTest, ZerosLikeKeepsTheShardLayout) {
  const std::vector<Tensor> like{Tensor({3}), Tensor({5})};
  std::vector<Tensor> mixed = flat_zeros(like);
  mixed.push_back(Tensor({4}));  // a separately allocated tensor
  const std::vector<Tensor> copy = zeros_like(mixed);
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_TRUE(copy[0].aliases(copy[1]));
  EXPECT_FALSE(copy[0].aliases(mixed[0]));
  EXPECT_FALSE(copy[2].aliases(copy[1]));
  EXPECT_EQ(copy[1].offset(), mixed[1].offset());
  EXPECT_EQ(shard_end(copy, 0), 2u);
  EXPECT_EQ(shard_end(copy, 2), 3u);
}

TEST(TensorShardTest, ForEachShardPairsFlatAndPerTensorLists) {
  const std::vector<Tensor> like{Tensor({3}), Tensor({5})};
  std::vector<Tensor> flat = flat_zeros(like);
  std::vector<Tensor> split{Tensor::from({1, 2, 3}),
                            Tensor::from({4, 5, 6, 7, 8})};
  std::vector<Tensor> flat_too = zeros_like(flat);
  std::vector<std::size_t> sizes;
  const auto add = [&](std::span<Scalar> dst, std::span<const Scalar> src) {
    sizes.push_back(dst.size());
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += src[j];
  };
  // Flat against per-tensor: one-view shards.
  for_each_shard(add, flat, std::as_const(split));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{3, 5}));
  EXPECT_EQ(flat[1][4], 8.0);
  // Flat against the same layout: one span, the gap included.
  sizes.clear();
  for_each_shard(add, flat_too, std::as_const(flat));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{13}));
  EXPECT_EQ(flat_too[0][2], 3.0);
  EXPECT_EQ(flat_too[1][0], 4.0);
  // Lists that differ in length or size are refused.
  std::vector<Tensor> short_list{Tensor({3})};
  EXPECT_THROW(for_each_shard(add, flat, std::as_const(short_list)), Error);
  std::vector<Tensor> wrong{Tensor({3}), Tensor({6})};
  EXPECT_THROW(for_each_shard(add, flat, std::as_const(wrong)), Error);
}

TEST(TensorShapeTest, ShapeNumelEmptyIsOne) {
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_numel({0}), 0u);
  EXPECT_EQ(shape_numel({3, 5}), 15u);
}

TEST(TensorShapeTest, ShapeToString) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

}  // namespace
}  // namespace avgpipe::tensor
