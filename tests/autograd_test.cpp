#include "tensor/autograd.hpp"

#include <cstring>

#include <gtest/gtest.h>

#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace avgpipe::tensor {
namespace {

using testutil::max_grad_error;

Variable leaf(std::initializer_list<Scalar> values) {
  return Variable(Tensor::from(values), /*requires_grad=*/true);
}

TEST(AutogradTest, ScalarChainRule) {
  // y = (2x)^2 summed; dy/dx = 8x.
  Variable x = leaf({3.0});
  Variable y = sum_all(mul(scale(x, 2.0), scale(x, 2.0)));
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 24.0);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  // y = x + x; dy/dx = 2.
  Variable x = leaf({5.0});
  Variable y = sum_all(add(x, x));
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 2.0);
}

TEST(AutogradTest, BackwardOnNonScalarThrows) {
  Variable x = leaf({1.0, 2.0});
  Variable y = add(x, x);
  EXPECT_THROW(y.backward(), Error);
}

TEST(AutogradTest, BackwardWithSeed) {
  Variable x = leaf({1.0, 2.0});
  Variable y = scale(x, 3.0);
  y.backward(Tensor::from({1.0, 10.0}));
  EXPECT_DOUBLE_EQ(x.grad()[0], 3.0);
  EXPECT_DOUBLE_EQ(x.grad()[1], 30.0);
}

TEST(AutogradTest, NoGradWhenNotRequired) {
  Variable x(Tensor::from({1.0}), /*requires_grad=*/false);
  Variable y = scale(x, 2.0);
  EXPECT_FALSE(y.requires_grad());
}

TEST(AutogradTest, DetachCutsHistory) {
  Variable x = leaf({2.0});
  Variable d = scale(x, 3.0).detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_DOUBLE_EQ(d.value()[0], 6.0);
}

TEST(AutogradTest, ZeroGradClears) {
  Variable x = leaf({1.0});
  sum_all(mul(x, x)).backward();
  EXPECT_NE(x.grad()[0], 0.0);
  x.zero_grad();
  EXPECT_DOUBLE_EQ(x.grad()[0], 0.0);
}

TEST(AutogradTest, DiamondGraph) {
  // y = x*x + x*x through two separate paths.
  Variable x = leaf({3.0});
  Variable a = mul(x, x);
  Variable b = mul(x, x);
  sum_all(add(a, b)).backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 12.0);
}

TEST(AutogradTest, SecondBackwardAccumulates) {
  Variable x = leaf({1.0});
  Variable y = sum_all(scale(x, 4.0));
  y.backward();
  y.backward();
  EXPECT_DOUBLE_EQ(x.grad()[0], 8.0);
}

// -- gradient ownership ---------------------------------------------------------

TEST(AutogradTest, SharedGradientIsCopiedOnWrite) {
  Rng rng(3);
  const Tensor g = Tensor::randn({6}, rng);
  const Tensor g_before = g.clone();
  const auto gv = g.data();

  // add(h, h): h adopts the seed on its first contribution, so the second
  // must copy before adding or it would write into the caller's seed.
  {
    Variable x(Tensor::randn({6}, rng), true);
    Variable h = scale(x, 1.5);
    add(h, h).backward(g);
    for (std::size_t i = 0; i < 6; ++i) {
      const Scalar hg = gv[i] + gv[i];
      EXPECT_EQ(x.grad()[i], hg * 1.5) << i;
    }
    EXPECT_EQ(g.max_abs_diff(g_before), 0.0) << "seed was written";
  }

  // s = add(a, b) is created last, so its backward runs first and a and b
  // both adopt s's gradient buffer. Each then takes a second contribution
  // (from ta and tb); adding into the shared buffer in place would leak
  // each one into the other's gradient.
  {
    Variable x(Tensor::randn({6}, rng), true);
    const Tensor wa = Tensor::randn({6}, rng), wb = Tensor::randn({6}, rng);
    Variable a = scale(x, 2.0), b = scale(x, 3.0);
    Variable ta = mul(a, Variable(wa)), tb = mul(b, Variable(wb));
    Variable s = add(a, b);
    add(add(s, ta), tb).backward(g);
    // Copy-based oracle, in the sweep's order: b's scale node runs before
    // a's, so x adopts b's contribution and then adds a's.
    for (std::size_t i = 0; i < 6; ++i) {
      const Scalar ga = gv[i] + gv[i] * wa[i];
      const Scalar gb = gv[i] + gv[i] * wb[i];
      EXPECT_EQ(x.grad()[i], gb * 3.0 + ga * 2.0) << i;
    }
    EXPECT_EQ(g.max_abs_diff(g_before), 0.0) << "seed was written";
  }
}

TEST(AutogradTest, LeafGradsOwnTheirStorage) {
  Rng rng(4);
  // Two leaves that both adopt the seed through add, and parameters behind
  // a reshape and a bias add (which hand their gradient on by reference).
  Variable w1(Tensor::randn({2, 3}, rng), true);
  Variable w2(Tensor::randn({2, 3}, rng), true);
  Variable bias(Tensor::randn({3}, rng), true);
  Variable flat(Tensor::randn({6}, rng), true);
  const Tensor seed = Tensor::randn({2, 3}, rng);
  Variable y = add_bias(add(add(w1, w2), reshape(flat, {2, 3})), bias);
  y.backward(seed);
  for (const Variable* p : {&w1, &w2, &bias, &flat}) {
    EXPECT_EQ(p->grad().use_count(), 1);
  }
  // zero_grad and in-place optimizer writes reach no other tensor.
  const Tensor w2_grad = w2.grad().clone();
  w1.zero_grad();
  flat.mutable_grad().scale_(2.0);
  EXPECT_EQ(w2.grad().max_abs_diff(w2_grad), 0.0);
  EXPECT_EQ(w2.grad().max_abs_diff(seed), 0.0);
}

// -- numeric gradient checks for every op -------------------------------------------

class GradCheckTest : public ::testing::Test {
 protected:
  Rng rng_{7};
};

TEST_F(GradCheckTest, Add) {
  Variable a(Tensor::randn({3, 4}, rng_), true);
  Variable b(Tensor::randn({3, 4}, rng_), true);
  EXPECT_LT(max_grad_error([&] { return sum_all(add(a, b)); }, {a, b}), 1e-6);
}

TEST_F(GradCheckTest, Sub) {
  Variable a(Tensor::randn({5}, rng_), true);
  Variable b(Tensor::randn({5}, rng_), true);
  EXPECT_LT(max_grad_error([&] { return sum_all(sub(a, b)); }, {a, b}), 1e-6);
}

TEST_F(GradCheckTest, Mul) {
  Variable a(Tensor::randn({4}, rng_), true);
  Variable b(Tensor::randn({4}, rng_), true);
  EXPECT_LT(max_grad_error([&] { return sum_all(mul(a, b)); }, {a, b}), 1e-6);
}

TEST_F(GradCheckTest, AddBias) {
  Variable x(Tensor::randn({3, 4}, rng_), true);
  Variable b(Tensor::randn({4}, rng_), true);
  EXPECT_LT(
      max_grad_error([&] { return sum_all(mul(add_bias(x, b),
                                              add_bias(x, b))); },
                     {x, b}),
      1e-5);
}

TEST_F(GradCheckTest, Matmul) {
  Variable a(Tensor::randn({3, 4}, rng_), true);
  Variable b(Tensor::randn({4, 2}, rng_), true);
  EXPECT_LT(max_grad_error(
                [&] { return sum_all(mul(matmul(a, b), matmul(a, b))); },
                {a, b}),
            1e-4);
}

TEST_F(GradCheckTest, Linear) {
  Variable x(Tensor::randn({2, 3, 4}, rng_), true);
  Variable w(Tensor::randn({4, 5}, rng_), true);
  Variable b(Tensor::randn({5}, rng_), true);
  Variable u(Tensor::randn({2, 3, 5}, rng_), false);
  EXPECT_LT(max_grad_error(
                [&] { return sum_all(mul(linear(x, w, b), u)); }, {x, w, b}),
            1e-5);
  EXPECT_LT(max_grad_error(
                [&] { return sum_all(mul(linear(x, w, Variable()), u)); },
                {x, w}),
            1e-5);
}

TEST_F(GradCheckTest, MultiHeadAttention) {
  // [B=2, S=3, 3D=12] with 2 heads of width 2. The dropout case rebuilds
  // its Rng per call so every finite-difference probe sees the same mask.
  Variable qkv(Tensor::randn({2, 3, 12}, rng_), true);
  Variable u(Tensor::randn({2, 3, 4}, rng_), false);
  for (const double p : {0.0, 0.3}) {
    EXPECT_LT(max_grad_error(
                  [&] {
                    Rng drop_rng(5);
                    return sum_all(mul(
                        multi_head_attention(qkv, 2, p, drop_rng, true), u));
                  },
                  {qkv}),
              1e-5)
        << "p=" << p;
  }
}

TEST_F(GradCheckTest, ReluTanhSigmoidGelu) {
  Variable a(Tensor::randn({16}, rng_), true);
  EXPECT_LT(max_grad_error([&] { return sum_all(relu(a)); }, {a}), 1e-5);
  EXPECT_LT(max_grad_error([&] { return sum_all(tanh_op(a)); }, {a}), 1e-5);
  EXPECT_LT(max_grad_error([&] { return sum_all(sigmoid(a)); }, {a}), 1e-5);
  EXPECT_LT(max_grad_error([&] { return sum_all(gelu(a)); }, {a}), 1e-5);
}

TEST_F(GradCheckTest, SoftmaxRows) {
  Variable a(Tensor::randn({3, 5}, rng_), true);
  Variable w(Tensor::randn({3, 5}, rng_), false);
  EXPECT_LT(max_grad_error(
                [&] { return sum_all(mul(softmax_rows(a), w)); }, {a}),
            1e-5);
}

TEST_F(GradCheckTest, LayerNorm) {
  Variable x(Tensor::randn({4, 6}, rng_), true);
  Variable g(Tensor::randn({6}, rng_), true);
  Variable b(Tensor::randn({6}, rng_), true);
  Variable w(Tensor::randn({4, 6}, rng_), false);
  EXPECT_LT(max_grad_error(
                [&] { return sum_all(mul(layer_norm(x, g, b), w)); },
                {x, g, b}),
            1e-4);
}

TEST_F(GradCheckTest, SliceCols) {
  Variable a(Tensor::randn({3, 6}, rng_), true);
  EXPECT_LT(max_grad_error(
                [&] {
                  Variable s = slice_cols(a, 1, 4);
                  return sum_all(mul(s, s));
                },
                {a}),
            1e-5);
}

TEST_F(GradCheckTest, SliceRows) {
  Variable a(Tensor::randn({5, 3}, rng_), true);
  EXPECT_LT(max_grad_error(
                [&] {
                  Variable s = slice_rows(a, 1, 4);
                  return sum_all(mul(s, s));
                },
                {a}),
            1e-5);
}

TEST_F(GradCheckTest, ConcatRows) {
  Variable a(Tensor::randn({2, 3}, rng_), true);
  Variable b(Tensor::randn({4, 3}, rng_), true);
  EXPECT_LT(max_grad_error(
                [&] {
                  Variable c = concat_rows({a, b});
                  return sum_all(mul(c, c));
                },
                {a, b}),
            1e-5);
}

TEST_F(GradCheckTest, Embedding) {
  Variable w(Tensor::randn({7, 4}, rng_), true);
  std::vector<int> idx{0, 3, 3, 6};
  EXPECT_LT(max_grad_error(
                [&] {
                  Variable e = embedding(w, idx);
                  return sum_all(mul(e, e));
                },
                {w}),
            1e-5);
}

TEST_F(GradCheckTest, SoftmaxCrossEntropy) {
  Variable logits(Tensor::randn({4, 5}, rng_), true);
  std::vector<int> targets{0, 2, 4, 1};
  EXPECT_LT(max_grad_error(
                [&] { return softmax_cross_entropy(logits, targets); },
                {logits}),
            1e-5);
}

TEST_F(GradCheckTest, MseLoss) {
  Variable pred(Tensor::randn({6}, rng_), true);
  Tensor target = Tensor::randn({6}, rng_);
  EXPECT_LT(max_grad_error([&] { return mse_loss(pred, target); }, {pred}),
            1e-5);
}

TEST_F(GradCheckTest, Reshape) {
  Variable a(Tensor::randn({2, 6}, rng_), true);
  EXPECT_LT(max_grad_error(
                [&] {
                  Variable r = reshape(a, {3, 4});
                  return sum_all(mul(r, r));
                },
                {a}),
            1e-5);
}

TEST_F(GradCheckTest, MeanAll) {
  Variable a(Tensor::randn({3, 3}, rng_), true);
  EXPECT_LT(max_grad_error([&] { return mean_all(mul(a, a)); }, {a}), 1e-5);
}

// -- op forward semantics -------------------------------------------------------------

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Variable x(Tensor::randn({4, 7}, rng), false);
  Tensor y = softmax_rows(x).value();
  for (std::size_t r = 0; r < 4; ++r) {
    double s = 0;
    for (std::size_t c = 0; c < 7; ++c) s += y.at(r, c);
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(OpsTest, MatmulValues) {
  Variable a(Tensor::from2d({{1, 2}, {3, 4}}), false);
  Variable b(Tensor::from2d({{5, 6}, {7, 8}}), false);
  Tensor c = matmul(a, b).value();
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(OpsTest, MatmulShapeMismatchThrows) {
  Variable a(Tensor({2, 3}), false);
  Variable b(Tensor({4, 2}), false);
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(OpsTest, CrossEntropyOfPerfectPredictionIsSmall) {
  Tensor logits({2, 3});
  logits.at(0, 1) = 100.0;
  logits.at(1, 2) = 100.0;
  Variable v(std::move(logits), false);
  EXPECT_LT(softmax_cross_entropy(v, {1, 2}).value()[0], 1e-6);
}

TEST(OpsTest, ArgmaxAndAccuracy) {
  Tensor logits = Tensor::from2d({{0, 1, 0}, {2, 0, 0}, {0, 0, 3}});
  auto am = argmax_rows(logits);
  EXPECT_EQ(am, (std::vector<int>{1, 0, 2}));
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0, 0}), 2.0 / 3.0);
}

TEST(OpsTest, DropoutTrainingScalesAndEvalIsIdentity) {
  Rng rng(11);
  Variable x(Tensor::ones({10000}), true);
  Tensor y = dropout(x, 0.5, rng, /*training=*/true).value();
  // Kept units are scaled by 1/keep = 2.
  std::size_t kept = 0;
  for (auto v : y.data()) {
    EXPECT_TRUE(v == 0.0 || v == 2.0);
    if (v != 0.0) ++kept;
  }
  EXPECT_NEAR(static_cast<double>(kept) / 10000.0, 0.5, 0.05);
  Tensor z = dropout(x, 0.5, rng, /*training=*/false).value();
  EXPECT_EQ(z.max_abs_diff(Tensor::ones({10000})), 0.0);
}

TEST(OpsTest, EmbeddingOutOfRangeThrows) {
  Rng rng(1);
  Variable w(Tensor::randn({4, 2}, rng), true);
  EXPECT_THROW(embedding(w, {4}), Error);
  EXPECT_THROW(embedding(w, {-1}), Error);
}

TEST(OpsTest, MultiHeadAttentionMatchesPerHeadCopiesBitExact) {
  // Against the per-head-copy reference: the output, the qkv gradient and
  // the dropout stream's state afterwards. Heads of 8x8 run every GEMM
  // below kGemmBlockedThreshold; bert_ckpt's shape (S=32, D=64, H=4) runs
  // them above it.
  struct Shape4 {
    std::size_t batch, seq, d, heads;
  };
  for (const auto& [batch, seq, d, heads] :
       {Shape4{2, 8, 16, 2}, Shape4{2, 32, 64, 4}}) {
    ASSERT_EQ(seq * seq * (d / heads) < kGemmBlockedThreshold, seq == 8);
    for (const double p : {0.0, 0.1}) {
      Rng data_rng(17);
      Variable qkv(Tensor::randn({batch, seq, 3 * d}, data_rng), true);
      const Tensor grad_out = Tensor::randn({batch, seq, d}, data_rng);
      Rng node_rng(23), ref_rng(23);
      Variable out = multi_head_attention(qkv, heads, p, node_rng, true);
      out.backward(grad_out);
      const auto ref = testutil::reference_attention(
          qkv.value(), heads, p, ref_rng, true, grad_out);
      const auto same_bits = [](const Tensor& a, const Tensor& b) {
        return a.numel() == b.numel() &&
               std::memcmp(a.data().data(), b.data().data(),
                           a.numel() * sizeof(Scalar)) == 0;
      };
      EXPECT_TRUE(same_bits(out.value(), ref.out)) << "seq=" << seq << " p=" << p;
      EXPECT_TRUE(same_bits(qkv.grad(), ref.grad_qkv))
          << "seq=" << seq << " p=" << p;
      EXPECT_EQ(node_rng.save_state(), ref_rng.save_state())
          << "seq=" << seq << " p=" << p;
    }
  }
}

TEST(OpsTest, GemmTransposeVariants) {
  // C = A^T * B with A 3x2, B 3x2 -> C 2x2.
  const Scalar a[] = {1, 2, 3, 4, 5, 6};  // 3x2
  const Scalar b[] = {1, 0, 0, 1, 1, 1};  // 3x2
  Scalar c[4] = {};
  gemm(a, b, c, 2, 2, 3, /*trans_a=*/true, /*trans_b=*/false, false);
  // A^T = [[1,3,5],[2,4,6]]; C = A^T B = [[6,8],[8,10]]... compute:
  // row0: 1*1+3*0+5*1=6 ; 1*0+3*1+5*1=8
  EXPECT_DOUBLE_EQ(c[0], 6.0);
  EXPECT_DOUBLE_EQ(c[1], 8.0);
  EXPECT_DOUBLE_EQ(c[2], 8.0);
  EXPECT_DOUBLE_EQ(c[3], 10.0);
}

}  // namespace
}  // namespace avgpipe::tensor
