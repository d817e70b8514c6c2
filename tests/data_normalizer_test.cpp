// Tests for the feature Normalizer: min-max and standard scaling, inverse
// transforms, box mapping, degenerate columns, and the multi-part fit
// against a fit on the pooled rows.

#include "qens/data/normalizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace qens::data {
namespace {

Matrix Sample() {
  return Matrix{{0, 100}, {5, 200}, {10, 300}};
}

TEST(NormalizerTest, MinMaxMapsToUnitInterval) {
  auto norm = Normalizer::Fit(Sample(), ScalingKind::kMinMax);
  ASSERT_TRUE(norm.ok());
  auto t = norm->Transform(Sample());
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ((*t)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((*t)(1, 0), 0.5);
  EXPECT_DOUBLE_EQ((*t)(2, 0), 1.0);
  EXPECT_DOUBLE_EQ((*t)(0, 1), 0.0);
  EXPECT_DOUBLE_EQ((*t)(2, 1), 1.0);
}

TEST(NormalizerTest, StandardHasZeroMeanUnitVar) {
  auto norm = Normalizer::Fit(Sample(), ScalingKind::kStandard);
  ASSERT_TRUE(norm.ok());
  auto t = norm->Transform(Sample());
  ASSERT_TRUE(t.ok());
  for (size_t c = 0; c < 2; ++c) {
    double mean = 0, var = 0;
    for (size_t r = 0; r < 3; ++r) mean += (*t)(r, c);
    mean /= 3;
    for (size_t r = 0; r < 3; ++r) {
      var += ((*t)(r, c) - mean) * ((*t)(r, c) - mean);
    }
    var /= 3;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(NormalizerTest, InverseTransformRoundTrips) {
  for (ScalingKind kind : {ScalingKind::kMinMax, ScalingKind::kStandard}) {
    auto norm = Normalizer::Fit(Sample(), kind);
    ASSERT_TRUE(norm.ok());
    auto t = norm->Transform(Sample());
    ASSERT_TRUE(t.ok());
    auto back = norm->InverseTransform(*t);
    ASSERT_TRUE(back.ok());
    EXPECT_LT(back->MaxAbsDiff(Sample()), 1e-9);
  }
}

TEST(NormalizerTest, DegenerateColumnMapsToZero) {
  Matrix constant{{5, 1}, {5, 2}, {5, 3}};
  auto norm = Normalizer::Fit(constant, ScalingKind::kMinMax);
  ASSERT_TRUE(norm.ok());
  auto t = norm->Transform(constant);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ((*t)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ((*t)(2, 0), 0.0);
  // Inverse maps the degenerate column back to its constant value.
  auto back = norm->InverseTransform(*t);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ((*back)(1, 0), 5.0);
}

TEST(NormalizerTest, TransformBoxFollowsSameAffineMap) {
  auto norm = Normalizer::Fit(Sample(), ScalingKind::kMinMax);
  ASSERT_TRUE(norm.ok());
  auto box = query::HyperRectangle::FromFlatBounds({0, 5, 100, 300}).value();
  auto t = norm->TransformBox(box);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(t->dim(0).lo, 0.0);
  EXPECT_DOUBLE_EQ(t->dim(0).hi, 0.5);
  EXPECT_DOUBLE_EQ(t->dim(1).lo, 0.0);
  EXPECT_DOUBLE_EQ(t->dim(1).hi, 1.0);
}

TEST(NormalizerTest, TransformAppliesToNewData) {
  auto norm = Normalizer::Fit(Sample(), ScalingKind::kMinMax);
  ASSERT_TRUE(norm.ok());
  Matrix fresh{{20, 400}};  // Outside the fitted range: extrapolates.
  auto t = norm->Transform(fresh);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ((*t)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((*t)(0, 1), 1.5);
}

TEST(NormalizerTest, Errors) {
  EXPECT_FALSE(Normalizer::Fit(Matrix(), ScalingKind::kMinMax).ok());
  auto norm = Normalizer::Fit(Sample(), ScalingKind::kMinMax).value();
  Matrix wrong(1, 3);
  EXPECT_FALSE(norm.Transform(wrong).ok());
  EXPECT_FALSE(norm.InverseTransform(wrong).ok());
  auto bad_box = query::HyperRectangle::FromFlatBounds({0, 1}).value();
  EXPECT_FALSE(norm.TransformBox(bad_box).ok());
}

/// The parts stacked in order: the pooled matrix the multi-part fit must
/// agree with.
Matrix Stack(const std::vector<const Matrix*>& parts) {
  size_t rows = 0;
  size_t cols = 0;
  for (const Matrix* part : parts) {
    rows += part->rows();
    if (part->rows() > 0) cols = part->cols();
  }
  Matrix out(rows, cols);
  size_t r = 0;
  for (const Matrix* part : parts) {
    for (size_t i = 0; i < part->rows(); ++i, ++r) {
      for (size_t c = 0; c < cols; ++c) out(r, c) = (*part)(i, c);
    }
  }
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectFitPartsEqualsPooledFit(const std::vector<const Matrix*>& parts) {
  const Matrix pooled = Stack(parts);
  for (ScalingKind kind : {ScalingKind::kMinMax, ScalingKind::kStandard}) {
    auto want = Normalizer::Fit(pooled, kind);
    auto got = Normalizer::FitParts(parts, kind);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameBits(got->offset(), want->offset()));
    EXPECT_TRUE(SameBits(got->scale(), want->scale()));
  }
}

TEST(NormalizerTest, FitPartsEqualsPooledFit) {
  const Matrix a{{3, -1, 7}, {-2, 4, 7}};
  const Matrix b{{0.1, 9, 7}};
  const Matrix c{{5, -8, 7}, {-0.0, 0.0, 7}, {2, 2, 7}};
  ExpectFitPartsEqualsPooledFit({&a, &b, &c});
  ExpectFitPartsEqualsPooledFit({&c, &a});
  ExpectFitPartsEqualsPooledFit({&b});
}

TEST(NormalizerTest, FitPartsSkipsEmptyLeadingParts) {
  const Matrix none;
  const Matrix zero_rows(0, 2);
  const Matrix a{{1, 10}, {4, -2}};
  const Matrix b{{-3, 5}};
  ExpectFitPartsEqualsPooledFit({&none, &zero_rows, &a, &zero_rows, &b});
  auto norm = Normalizer::FitParts({&none, &zero_rows, &a, &b},
                                   ScalingKind::kMinMax);
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm->offset(), (std::vector<double>{-3, -2}));
}

TEST(NormalizerTest, FitPartsKeepsNaNFoldOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN first row seeds the fold and sticks; a later NaN row is skipped
  // by the comparisons. Both must resolve exactly as the pooled fit does.
  const Matrix first{{nan, 1}, {2, 3}};
  const Matrix later{{4, nan}, {-1, 6}};
  ExpectFitPartsEqualsPooledFit({&first, &later});
  ExpectFitPartsEqualsPooledFit({&later, &first});
  auto norm = Normalizer::FitParts({&first, &later}, ScalingKind::kMinMax);
  ASSERT_TRUE(norm.ok());
  EXPECT_TRUE(std::isnan(norm->offset()[0]));
  EXPECT_DOUBLE_EQ(norm->offset()[1], 1.0);
}

TEST(NormalizerTest, FitPartsConstantColumnHasZeroScale) {
  const Matrix a{{5, 1}, {5, 2}};
  const Matrix b{{5, 3}};
  ExpectFitPartsEqualsPooledFit({&a, &b});
  auto norm = Normalizer::FitParts({&a, &b}, ScalingKind::kMinMax);
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm->scale()[0], 0.0);
  EXPECT_DOUBLE_EQ(norm->offset()[0], 5.0);
}

TEST(NormalizerTest, FitPartsErrors) {
  const Matrix none;
  const Matrix zero_rows(0, 2);
  EXPECT_FALSE(Normalizer::FitParts({}, ScalingKind::kMinMax).ok());
  EXPECT_FALSE(
      Normalizer::FitParts({&none, &zero_rows}, ScalingKind::kMinMax).ok());
  EXPECT_FALSE(
      Normalizer::FitParts({&zero_rows}, ScalingKind::kStandard).ok());
  const Matrix two{{1, 2}};
  const Matrix three{{1, 2, 3}};
  EXPECT_FALSE(Normalizer::FitParts({&two, &three}, ScalingKind::kMinMax).ok());
  EXPECT_FALSE(Normalizer::FitParts({&two, nullptr}, ScalingKind::kMinMax).ok());
}

}  // namespace
}  // namespace qens::data
