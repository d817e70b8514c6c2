// Tests for DenseLayer: forward math, backward vs numerical gradients,
// parameter flattening.

#include "qens/ml/dense_layer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "qens/ml/loss.h"

namespace qens::ml {
namespace {

TEST(DenseLayerTest, ForwardLinearMath) {
  DenseLayer layer(2, 1, Activation::kIdentity);
  layer.weights()(0, 0) = 2.0;
  layer.weights()(1, 0) = -1.0;
  layer.bias()[0] = 0.5;
  Matrix x{{3, 4}};
  auto y = layer.Apply(x);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)(0, 0), 2.0 * 3 - 1.0 * 4 + 0.5);
}

TEST(DenseLayerTest, ForwardBatch) {
  DenseLayer layer(1, 2, Activation::kIdentity);
  layer.weights()(0, 0) = 1.0;
  layer.weights()(0, 1) = -1.0;
  Matrix x{{1}, {2}, {3}};
  auto y = layer.Apply(x);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->rows(), 3u);
  EXPECT_EQ(y->cols(), 2u);
  EXPECT_DOUBLE_EQ((*y)(2, 1), -3.0);
}

TEST(DenseLayerTest, ForwardShapeMismatch) {
  DenseLayer layer(3, 1, Activation::kIdentity);
  Matrix x(2, 2);
  EXPECT_TRUE(layer.Apply(x).status().IsInvalidArgument());
}

TEST(DenseLayerTest, ReluClampsNegativePreactivations) {
  DenseLayer layer(1, 1, Activation::kRelu);
  layer.weights()(0, 0) = 1.0;
  Matrix x{{-5.0}};
  auto y = layer.Apply(x);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)(0, 0), 0.0);
}

TEST(DenseLayerTest, BackwardRequiresCachedForward) {
  DenseLayer layer(1, 1, Activation::kIdentity);
  DenseGradients grads;
  Matrix g{{1.0}};
  Matrix dx;
  EXPECT_TRUE(layer.Backward(g, &grads, &dx).IsFailedPrecondition());
}

TEST(DenseLayerTest, GlorotInitBounded) {
  DenseLayer layer(10, 10, Activation::kRelu);
  Rng rng(3);
  layer.InitGlorot(&rng);
  const double limit = std::sqrt(6.0 / 20.0);
  bool any_nonzero = false;
  for (double w : layer.weights().data()) {
    EXPECT_LE(std::fabs(w), limit);
    any_nonzero |= w != 0.0;
  }
  EXPECT_TRUE(any_nonzero);
  for (double b : layer.bias()) EXPECT_EQ(b, 0.0);
}

TEST(DenseLayerTest, ParamFlattenRoundTrip) {
  DenseLayer layer(2, 3, Activation::kTanh);
  Rng rng(5);
  layer.InitGlorot(&rng);
  std::vector<double> flat;
  layer.FlattenParams(&flat);
  ASSERT_EQ(flat.size(), layer.ParameterCount());
  ASSERT_EQ(flat.size(), 2u * 3u + 3u);

  DenseLayer other(2, 3, Activation::kTanh);
  size_t offset = 0;
  ASSERT_TRUE(other.UnflattenParams(flat, &offset).ok());
  EXPECT_EQ(offset, flat.size());
  EXPECT_EQ(other.weights(), layer.weights());
  EXPECT_EQ(other.bias(), layer.bias());
}

TEST(DenseLayerTest, UnflattenTruncatedFails) {
  DenseLayer layer(2, 2, Activation::kIdentity);
  std::vector<double> flat(3, 0.0);  // Needs 6.
  size_t offset = 0;
  EXPECT_TRUE(layer.UnflattenParams(flat, &offset).IsInvalidArgument());
}

TEST(DenseLayerTest, ApplyDeltaShiftsParams) {
  DenseLayer layer(1, 1, Activation::kIdentity);
  DenseGradients delta;
  delta.d_weights = Matrix{{2.0}};
  delta.d_bias = {3.0};
  ASSERT_TRUE(layer.ApplyDelta(0.5, delta).ok());
  EXPECT_DOUBLE_EQ(layer.weights()(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(layer.bias()[0], 1.5);
}

// Gradient correctness: analytic backward vs central finite differences of
// the MSE loss, over each activation.
class DenseLayerGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseLayerGradCheck, BackwardMatchesNumericalGradient) {
  const Activation act = GetParam();
  const size_t in = 3, out = 2, batch = 4;
  DenseLayer layer(in, out, act);
  Rng rng(11);
  layer.InitGlorot(&rng);
  for (double& b : layer.bias()) b = rng.Uniform(-0.1, 0.1);

  Matrix x(batch, in);
  Matrix target(batch, out);
  for (double& v : x.data()) v = rng.Uniform(-1, 1);
  for (double& v : target.data()) v = rng.Uniform(-1, 1);

  auto loss_of = [&](DenseLayer& l) -> double {
    Matrix y = l.Apply(x).value();
    return ComputeLoss(LossKind::kMse, y, target).value();
  };

  // Analytic gradients.
  Matrix y;
  ASSERT_TRUE(layer.Forward(x, &y).ok());
  EXPECT_EQ(y, layer.Apply(x).value());  // Training forward == inference.
  Matrix dl = ComputeLossGrad(LossKind::kMse, y, target).value();
  DenseGradients grads;
  ASSERT_TRUE(layer.Backward(dl, &grads, nullptr).ok());

  const double eps = 1e-6;
  // Check a spread of weight entries.
  for (size_t r = 0; r < in; ++r) {
    for (size_t c = 0; c < out; ++c) {
      DenseLayer lo = layer, hi = layer;
      lo.weights()(r, c) -= eps;
      hi.weights()(r, c) += eps;
      const double numeric = (loss_of(hi) - loss_of(lo)) / (2 * eps);
      EXPECT_NEAR(grads.d_weights(r, c), numeric, 1e-5)
          << "w(" << r << "," << c << ") act=" << ActivationName(act);
    }
  }
  // Bias entries.
  for (size_t c = 0; c < out; ++c) {
    DenseLayer lo = layer, hi = layer;
    lo.bias()[c] -= eps;
    hi.bias()[c] += eps;
    const double numeric = (loss_of(hi) - loss_of(lo)) / (2 * eps);
    EXPECT_NEAR(grads.d_bias[c], numeric, 1e-5) << "b(" << c << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DenseLayerGradCheck,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kSigmoid,
                                           Activation::kTanh));

TEST(DenseLayerTest, BackwardInputGradientMatchesNumerical) {
  DenseLayer layer(2, 2, Activation::kSigmoid);
  Rng rng(13);
  layer.InitGlorot(&rng);
  Matrix x{{0.4, -0.3}};
  Matrix target{{0.1, 0.9}};

  Matrix y;
  ASSERT_TRUE(layer.Forward(x, &y).ok());
  Matrix dl = ComputeLossGrad(LossKind::kMse, y, target).value();
  DenseGradients grads;
  Matrix dx;
  ASSERT_TRUE(layer.Backward(dl, &grads, &dx).ok());

  const double eps = 1e-6;
  for (size_t c = 0; c < 2; ++c) {
    Matrix xlo = x, xhi = x;
    xlo(0, c) -= eps;
    xhi(0, c) += eps;
    const double lo =
        ComputeLoss(LossKind::kMse, layer.Apply(xlo).value(), target)
            .value();
    const double hi =
        ComputeLoss(LossKind::kMse, layer.Apply(xhi).value(), target)
            .value();
    EXPECT_NEAR(dx(0, c), (hi - lo) / (2 * eps), 1e-5);
  }
}

}  // namespace
}  // namespace qens::ml
