// Tests for the Keras-style training loop: convergence, validation split,
// early stopping, incremental (per-cluster) Fit calls, option validation.

#include "qens/ml/trainer.h"

#include <gtest/gtest.h>

#include <vector>

#include "qens/common/rng.h"
#include "qens/ml/model_factory.h"

namespace qens::ml {
namespace {

/// y = 2x + 3 with light noise.
void MakeLinearData(size_t n, uint64_t seed, Matrix* x, Matrix* y) {
  Rng rng(seed);
  *x = Matrix(n, 1);
  *y = Matrix(n, 1);
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Uniform(-2.0, 2.0);
    (*x)(i, 0) = xi;
    (*y)(i, 0) = 2.0 * xi + 3.0 + rng.Gaussian(0, 0.05);
  }
}

std::unique_ptr<Trainer> MakeSgdTrainer(TrainOptions options) {
  return std::make_unique<Trainer>(std::make_unique<SgdOptimizer>(0.05),
                                   options);
}

TEST(TrainerTest, FitLearnsLinearRelation) {
  Matrix x, y;
  MakeLinearData(200, 1, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 60;
  options.validation_split = 0.2;
  auto trainer = MakeSgdTrainer(options);
  auto report = trainer->Fit(&model, x, y);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->epochs_run, 60u);
  EXPECT_NEAR(model.layer(0).weights()(0, 0), 2.0, 0.1);
  EXPECT_NEAR(model.layer(0).bias()[0], 3.0, 0.1);
  EXPECT_LT(report->final_train_loss(), 0.05);
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  Matrix x, y;
  MakeLinearData(100, 2, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 30;
  auto trainer = MakeSgdTrainer(options);
  auto report = trainer->Fit(&model, x, y);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->train_loss.back(), report->train_loss.front());
}

TEST(TrainerTest, ValidationLossTracked) {
  Matrix x, y;
  MakeLinearData(100, 3, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 10;
  options.validation_split = 0.25;
  auto trainer = MakeSgdTrainer(options);
  auto report = trainer->Fit(&model, x, y);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->val_loss.size(), 10u);
}

TEST(TrainerTest, ZeroValidationSplitNoValLoss) {
  Matrix x, y;
  MakeLinearData(50, 4, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 5;
  options.validation_split = 0.0;
  auto trainer = MakeSgdTrainer(options);
  auto report = trainer->Fit(&model, x, y);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->val_loss.empty());
}

TEST(TrainerTest, EarlyStoppingTriggersOnPlateau) {
  Matrix x, y;
  MakeLinearData(200, 5, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 500;
  options.validation_split = 0.2;
  options.early_stopping_patience = 5;
  options.min_delta = 1e-6;
  auto trainer = MakeSgdTrainer(options);
  auto report = trainer->Fit(&model, x, y);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->early_stopped);
  EXPECT_LT(report->epochs_run, 500u);
}

TEST(TrainerTest, IncrementalFitCarriesWeights) {
  // The paper's per-cluster incremental training: two Fit calls on the same
  // model must continue from the first call's weights.
  Matrix x1, y1, x2, y2;
  MakeLinearData(100, 6, &x1, &y1);
  MakeLinearData(100, 7, &x2, &y2);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 40;
  options.validation_split = 0.0;
  auto trainer = MakeSgdTrainer(options);
  ASSERT_TRUE(trainer->Fit(&model, x1, y1).ok());
  const double w_mid = model.layer(0).weights()(0, 0);
  EXPECT_NEAR(w_mid, 2.0, 0.2);  // Already learned from stage 1.
  auto report2 = trainer->Fit(&model, x2, y2);
  ASSERT_TRUE(report2.ok());
  // Stage 2 starts near the optimum, so its first-epoch loss is small.
  EXPECT_LT(report2->train_loss.front(), 0.5);
}

TEST(TrainerTest, SamplesSeenAccounting) {
  Matrix x, y;
  MakeLinearData(100, 8, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 3;
  options.validation_split = 0.2;
  auto trainer = MakeSgdTrainer(options);
  auto report = trainer->Fit(&model, x, y);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->samples_seen, 3u * 80u);  // 80 train rows x 3 epochs.
}

TEST(TrainerTest, DeterministicGivenSeed) {
  Matrix x, y;
  MakeLinearData(100, 9, &x, &y);
  TrainOptions options;
  options.epochs = 10;
  options.seed = 77;

  SequentialModel m1, m2;
  ASSERT_TRUE(m1.AddLayer(1, 1, Activation::kIdentity).ok());
  ASSERT_TRUE(m2.AddLayer(1, 1, Activation::kIdentity).ok());
  ASSERT_TRUE(MakeSgdTrainer(options)->Fit(&m1, x, y).ok());
  ASSERT_TRUE(MakeSgdTrainer(options)->Fit(&m2, x, y).ok());
  EXPECT_EQ(m1.GetParameters(), m2.GetParameters());
}

TEST(TrainerTest, OptionValidation) {
  Matrix x, y;
  MakeLinearData(10, 10, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());

  TrainOptions bad;
  bad.epochs = 0;
  EXPECT_FALSE(MakeSgdTrainer(bad)->Fit(&model, x, y).ok());
  bad = TrainOptions();
  bad.batch_size = 0;
  EXPECT_FALSE(MakeSgdTrainer(bad)->Fit(&model, x, y).ok());
  bad = TrainOptions();
  bad.validation_split = 1.0;
  EXPECT_FALSE(MakeSgdTrainer(bad)->Fit(&model, x, y).ok());
}

TEST(TrainerTest, ShapeErrors) {
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(2, 1, Activation::kIdentity).ok());
  TrainOptions options;
  auto trainer = MakeSgdTrainer(options);
  Matrix x(5, 1), y(5, 1);  // Model expects 2 features.
  EXPECT_FALSE(trainer->Fit(&model, x, y).ok());
  Matrix x2(5, 2), y2(4, 1);  // Row mismatch.
  EXPECT_FALSE(trainer->Fit(&model, x2, y2).ok());
  Matrix empty_x(0, 2), empty_y(0, 1);
  EXPECT_FALSE(trainer->Fit(&model, empty_x, empty_y).ok());
}

TEST(TrainerTest, TrainBatchReturnsPreUpdateLoss) {
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  model.layer(0).weights()(0, 0) = 0.0;
  Matrix x{{1.0}};
  Matrix y{{2.0}};
  TrainOptions options;
  auto trainer = MakeSgdTrainer(options);
  auto loss = trainer->TrainBatch(&model, x, y);
  ASSERT_TRUE(loss.ok());
  EXPECT_DOUBLE_EQ(*loss, 4.0);  // (0 - 2)^2 before the step.
  EXPECT_NE(model.layer(0).weights()(0, 0), 0.0);  // Step applied.
}

TEST(TrainerTest, TinyDatasetStillTrains) {
  // 2 rows with validation split: split clamps to keep >=1 training row.
  Matrix x{{0.0}, {1.0}};
  Matrix y{{1.0}, {3.0}};
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  TrainOptions options;
  options.epochs = 5;
  options.validation_split = 0.5;
  auto trainer = MakeSgdTrainer(options);
  EXPECT_TRUE(trainer->Fit(&model, x, y).ok());
}

TEST(TrainerTest, RowSubsetFitMatchesFitOnGatheredRows) {
  // Fitting rows `rows` of (x, y) in place is bitwise the whole-matrix Fit
  // on those rows gathered in order, in both shuffle modes and with a
  // validation split, across back-to-back (incremental) fits.
  Matrix x, y;
  MakeLinearData(300, 12, &x, &y);
  std::vector<size_t> rows;
  for (size_t r = 3; r < 300; r += 4) rows.push_back(r);
  const Matrix gx = x.SelectRows(rows).value();
  const Matrix gy = y.SelectRows(rows).value();
  for (const bool keyed : {false, true}) {
    for (const double split : {0.0, 0.25}) {
      TrainOptions options;
      options.epochs = 7;
      options.batch_size = 8;
      options.seed = 31;
      options.keyed_shuffle = keyed;
      options.validation_split = split;
      SequentialModel subset, gathered;
      ASSERT_TRUE(subset.AddLayer(1, 1, Activation::kIdentity).ok());
      ASSERT_TRUE(gathered.AddLayer(1, 1, Activation::kIdentity).ok());
      auto subset_trainer = MakeSgdTrainer(options);
      auto gathered_trainer = MakeSgdTrainer(options);
      for (int fit = 0; fit < 2; ++fit) {
        auto a = subset_trainer->Fit(&subset, x, y, rows);
        auto b = gathered_trainer->Fit(&gathered, gx, gy);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a->train_loss, b->train_loss);
        EXPECT_EQ(a->val_loss, b->val_loss);
        EXPECT_EQ(a->samples_seen, b->samples_seen);
        EXPECT_EQ(subset.GetParameters(), gathered.GetParameters());
      }
    }
  }
}

TEST(TrainerTest, RowSubsetFitRejectsBadRows) {
  Matrix x, y;
  MakeLinearData(10, 13, &x, &y);
  SequentialModel model;
  ASSERT_TRUE(model.AddLayer(1, 1, Activation::kIdentity).ok());
  auto trainer = MakeSgdTrainer(TrainOptions());
  const std::vector<double> before = model.GetParameters();
  const std::vector<size_t> out_of_range = {0, 10};
  EXPECT_TRUE(trainer->Fit(&model, x, y, out_of_range).status().IsOutOfRange());
  EXPECT_EQ(trainer->Fit(&model, x, y, std::vector<size_t>{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model.GetParameters(), before);  // Nothing trained.
}

}  // namespace
}  // namespace qens::ml
