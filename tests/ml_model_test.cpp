// Tests for SequentialModel: layer chaining, predict/forward/backward,
// flat parameter round trips, architecture comparison.

#include "qens/ml/sequential_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "qens/ml/loss.h"

namespace qens::ml {
namespace {

SequentialModel TwoLayerNet(Rng* rng) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(2, 4, Activation::kRelu).ok());
  EXPECT_TRUE(m.AddLayer(4, 1, Activation::kIdentity).ok());
  m.InitWeights(rng);
  return m;
}

TEST(SequentialModelTest, LayerChainValidation) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(3, 5, Activation::kRelu).ok());
  EXPECT_TRUE(m.AddLayer(4, 1, Activation::kIdentity).IsInvalidArgument());
  EXPECT_TRUE(m.AddLayer(5, 1, Activation::kIdentity).ok());
  EXPECT_EQ(m.num_layers(), 2u);
  EXPECT_EQ(m.input_features(), 3u);
  EXPECT_EQ(m.output_features(), 1u);
}

TEST(SequentialModelTest, ZeroWidthLayerRejected) {
  SequentialModel m;
  EXPECT_TRUE(m.AddLayer(0, 1, Activation::kRelu).IsInvalidArgument());
  EXPECT_TRUE(m.AddLayer(1, 0, Activation::kRelu).IsInvalidArgument());
}

TEST(SequentialModelTest, EmptyModelFails) {
  SequentialModel m;
  Matrix x(1, 1);
  EXPECT_TRUE(m.Predict(x).status().IsFailedPrecondition());
  EXPECT_TRUE(m.Forward(x).status().IsFailedPrecondition());
  EXPECT_TRUE(m.Backward(x).IsFailedPrecondition());
  EXPECT_EQ(m.input_features(), 0u);
}

TEST(SequentialModelTest, PredictSingleLinearLayer) {
  SequentialModel m;
  ASSERT_TRUE(m.AddLayer(2, 1, Activation::kIdentity).ok());
  m.layer(0).weights()(0, 0) = 3.0;
  m.layer(0).weights()(1, 0) = -2.0;
  m.layer(0).bias()[0] = 1.0;
  Matrix x{{1, 1}, {2, 0}};
  auto y = m.Predict(x);
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((*y)(1, 0), 7.0);
}

TEST(SequentialModelTest, PredictIsConstSafe) {
  Rng rng(3);
  const SequentialModel m = TwoLayerNet(&rng);
  Matrix x{{0.5, -0.5}};
  auto y1 = m.Predict(x);
  auto y2 = m.Predict(x);
  ASSERT_TRUE(y1.ok());
  ASSERT_TRUE(y2.ok());
  EXPECT_EQ(*y1, *y2);
}

TEST(SequentialModelTest, ForwardThenBackwardShapes) {
  Rng rng(5);
  SequentialModel m = TwoLayerNet(&rng);
  Matrix x{{0.5, -0.5}, {1.0, 2.0}};
  Matrix target{{0.0}, {1.0}};
  auto y = m.Forward(x);
  ASSERT_TRUE(y.ok());
  const Matrix& pred = *y;
  EXPECT_EQ(pred, m.Predict(x).value());  // Training forward == inference.
  auto dl = ComputeLossGrad(LossKind::kMse, pred, target);
  ASSERT_TRUE(dl.ok());
  ASSERT_TRUE(m.Backward(*dl).ok());
  const std::vector<DenseGradients>& grads = m.gradients();
  ASSERT_EQ(grads.size(), 2u);
  EXPECT_TRUE(grads[0].d_weights.SameShape(m.layer(0).weights()));
  EXPECT_EQ(grads[1].d_bias.size(), 1u);
}

TEST(SequentialModelTest, CopyDoesNotInheritForwardCache) {
  // The layers' cached input views point into the source model's buffers;
  // a copy must not follow them (the source may be gone by then).
  Rng rng(6);
  auto source = std::make_unique<SequentialModel>(TwoLayerNet(&rng));
  Matrix x{{0.5, -0.5}, {1.0, 2.0}};
  Matrix grad{{1.0}, {-1.0}};
  ASSERT_TRUE(source->Forward(x).ok());
  SequentialModel copy = source->Clone();
  SequentialModel assigned;
  assigned = *source;
  ASSERT_TRUE(source->Backward(grad).ok());
  source.reset();
  EXPECT_TRUE(copy.Backward(grad).IsFailedPrecondition());
  EXPECT_TRUE(assigned.Backward(grad).IsFailedPrecondition());
  // Its own Forward makes it trainable again.
  ASSERT_TRUE(copy.Forward(x).ok());
  EXPECT_TRUE(copy.Backward(grad).ok());
}

TEST(SequentialModelTest, ParameterCountAndRoundTrip) {
  Rng rng(7);
  SequentialModel m = TwoLayerNet(&rng);
  EXPECT_EQ(m.ParameterCount(), (2u * 4 + 4) + (4u * 1 + 1));
  std::vector<double> params = m.GetParameters();
  ASSERT_EQ(params.size(), m.ParameterCount());

  Rng rng2(999);
  SequentialModel other = TwoLayerNet(&rng2);
  ASSERT_TRUE(other.SetParameters(params).ok());
  Matrix x{{0.3, 0.7}};
  EXPECT_EQ(m.Predict(x).value(), other.Predict(x).value());
}

TEST(SequentialModelTest, SetParametersWrongSizeFails) {
  Rng rng(9);
  SequentialModel m = TwoLayerNet(&rng);
  std::vector<double> bad(m.ParameterCount() + 1, 0.0);
  EXPECT_TRUE(m.SetParameters(bad).IsInvalidArgument());
}

TEST(SequentialModelTest, CloneIsIndependent) {
  Rng rng(11);
  SequentialModel m = TwoLayerNet(&rng);
  SequentialModel clone = m.Clone();
  clone.layer(0).weights()(0, 0) += 100.0;
  Matrix x{{1.0, 1.0}};
  EXPECT_NE(m.Predict(x).value()(0, 0), clone.Predict(x).value()(0, 0));
}

TEST(SequentialModelTest, SameArchitecture) {
  Rng rng(13);
  SequentialModel a = TwoLayerNet(&rng);
  SequentialModel b = TwoLayerNet(&rng);
  EXPECT_TRUE(a.SameArchitecture(b));

  SequentialModel c;
  ASSERT_TRUE(c.AddLayer(2, 4, Activation::kTanh).ok());  // Different act.
  ASSERT_TRUE(c.AddLayer(4, 1, Activation::kIdentity).ok());
  EXPECT_FALSE(a.SameArchitecture(c));

  SequentialModel d;
  ASSERT_TRUE(d.AddLayer(2, 8, Activation::kRelu).ok());  // Different width.
  ASSERT_TRUE(d.AddLayer(8, 1, Activation::kIdentity).ok());
  EXPECT_FALSE(a.SameArchitecture(d));
}

TEST(SequentialModelTest, DeepStackForward) {
  SequentialModel m;
  ASSERT_TRUE(m.AddLayer(1, 3, Activation::kTanh).ok());
  ASSERT_TRUE(m.AddLayer(3, 3, Activation::kTanh).ok());
  ASSERT_TRUE(m.AddLayer(3, 2, Activation::kSigmoid).ok());
  ASSERT_TRUE(m.AddLayer(2, 1, Activation::kIdentity).ok());
  Rng rng(17);
  m.InitWeights(&rng);
  Matrix x{{0.2}, {0.4}, {0.8}};
  auto y = m.Predict(x);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(y->rows(), 3u);
  EXPECT_EQ(y->cols(), 1u);
}

}  // namespace
}  // namespace qens::ml
