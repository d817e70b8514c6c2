#ifndef QENS_DATA_NORMALIZER_H_
#define QENS_DATA_NORMALIZER_H_

/// \file normalizer.h
/// Feature scaling fitted on one dataset and applicable to others (and to
/// query rectangles, so that queries issued in raw units can be mapped into
/// a model's normalized space).

#include <vector>

#include "qens/common/status.h"
#include "qens/query/hyper_rectangle.h"
#include "qens/tensor/matrix.h"

namespace qens::data {

/// How features are scaled.
enum class ScalingKind {
  kMinMax,    ///< x -> (x - min) / (max - min), degenerate dims -> 0.
  kStandard,  ///< x -> (x - mean) / std, zero-std dims -> 0.
};

/// A fitted, invertible column-wise scaler.
class Normalizer {
 public:
  /// Fit on the columns of `data` (m >= 1 rows).
  static Result<Normalizer> Fit(const Matrix& data, ScalingKind kind);

  /// Fit on the rows of `parts` stacked in order, without building the
  /// stacked matrix: bit-identical to `Fit` on the pooled rows (every
  /// column is folded in the same row order, so NaN rows and ties resolve
  /// the same way). Parts with no rows are skipped; the rest must share
  /// one width. Fails when every part is empty.
  static Result<Normalizer> FitParts(const std::vector<const Matrix*>& parts,
                                     ScalingKind kind);

  ScalingKind kind() const { return kind_; }
  size_t dims() const { return offset_.size(); }

  /// Transform rows of `data` (width must match). Returns a new matrix.
  Result<Matrix> Transform(const Matrix& data) const;

  /// Inverse transform (round-trips Transform up to FP error).
  Result<Matrix> InverseTransform(const Matrix& data) const;

  /// Transform a box through the same affine map (per-dimension).
  Result<query::HyperRectangle> TransformBox(
      const query::HyperRectangle& box) const;

  /// Per-column affine parameters: transformed = (x - offset) * scale.
  const std::vector<double>& offset() const { return offset_; }
  const std::vector<double>& scale() const { return scale_; }

 private:
  Normalizer(ScalingKind kind, std::vector<double> offset,
             std::vector<double> scale)
      : kind_(kind), offset_(std::move(offset)), scale_(std::move(scale)) {}

  ScalingKind kind_;
  std::vector<double> offset_;
  std::vector<double> scale_;  ///< 0 marks a degenerate (constant) column.
};

}  // namespace qens::data

#endif  // QENS_DATA_NORMALIZER_H_
