#include "qens/data/normalizer.h"

#include <algorithm>
#include <cmath>

#include "qens/common/string_util.h"

namespace qens::data {

Result<Normalizer> Normalizer::Fit(const Matrix& data, ScalingKind kind) {
  return FitParts({&data}, kind);
}

Result<Normalizer> Normalizer::FitParts(
    const std::vector<const Matrix*>& parts, ScalingKind kind) {
  size_t d = 0;
  size_t m = 0;
  for (const Matrix* part : parts) {
    if (part == nullptr) {
      return Status::InvalidArgument("Normalizer::Fit: null part");
    }
    if (part->rows() == 0) continue;
    if (m == 0) {
      d = part->cols();
    } else if (part->cols() != d) {
      return Status::InvalidArgument(
          StrFormat("Normalizer::Fit: part has %zu cols, expected %zu",
                    part->cols(), d));
    }
    m += part->rows();
  }
  if (m == 0 || d == 0) {
    return Status::InvalidArgument("Normalizer::Fit: empty data");
  }
  std::vector<double> offset(d, 0.0);
  std::vector<double> scale(d, 0.0);

  // Rows are visited in pooled order and every column keeps its own fold,
  // so each column sees exactly the sequence a column-by-column scan of the
  // stacked matrix would.
  if (kind == ScalingKind::kMinMax) {
    std::vector<double> lo;
    std::vector<double> hi;
    for (const Matrix* part : parts) {
      for (size_t r = 0; r < part->rows(); ++r) {
        const double* p = part->RowPtr(r);
        if (lo.empty()) {
          lo.assign(p, p + d);
          hi = lo;
          continue;
        }
        for (size_t c = 0; c < d; ++c) {
          lo[c] = std::min(lo[c], p[c]);
          hi[c] = std::max(hi[c], p[c]);
        }
      }
    }
    for (size_t c = 0; c < d; ++c) {
      offset[c] = lo[c];
      scale[c] = hi[c] > lo[c] ? 1.0 / (hi[c] - lo[c]) : 0.0;
    }
  } else {
    std::vector<double> mean(d, 0.0);
    for (const Matrix* part : parts) {
      for (size_t r = 0; r < part->rows(); ++r) {
        const double* p = part->RowPtr(r);
        for (size_t c = 0; c < d; ++c) mean[c] += p[c];
      }
    }
    for (size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(m);
    std::vector<double> var(d, 0.0);
    for (const Matrix* part : parts) {
      for (size_t r = 0; r < part->rows(); ++r) {
        const double* p = part->RowPtr(r);
        for (size_t c = 0; c < d; ++c) {
          const double dv = p[c] - mean[c];
          var[c] += dv * dv;
        }
      }
    }
    for (size_t c = 0; c < d; ++c) {
      var[c] /= static_cast<double>(m);
      offset[c] = mean[c];
      scale[c] = var[c] > 0.0 ? 1.0 / std::sqrt(var[c]) : 0.0;
    }
  }
  return Normalizer(kind, std::move(offset), std::move(scale));
}

Result<Matrix> Normalizer::Transform(const Matrix& data) const {
  if (data.cols() != dims()) {
    return Status::InvalidArgument(
        StrFormat("Normalizer::Transform: %zu cols, fitted on %zu",
                  data.cols(), dims()));
  }
  Matrix out = data;
  for (size_t r = 0; r < out.rows(); ++r) {
    double* p = out.RowPtr(r);
    for (size_t c = 0; c < dims(); ++c) {
      p[c] = (p[c] - offset_[c]) * scale_[c];
    }
  }
  return out;
}

Result<Matrix> Normalizer::InverseTransform(const Matrix& data) const {
  if (data.cols() != dims()) {
    return Status::InvalidArgument(
        StrFormat("Normalizer::InverseTransform: %zu cols, fitted on %zu",
                  data.cols(), dims()));
  }
  Matrix out = data;
  for (size_t r = 0; r < out.rows(); ++r) {
    double* p = out.RowPtr(r);
    for (size_t c = 0; c < dims(); ++c) {
      // Degenerate columns collapse to the offset (their constant value).
      p[c] = scale_[c] != 0.0 ? p[c] / scale_[c] + offset_[c] : offset_[c];
    }
  }
  return out;
}

Result<query::HyperRectangle> Normalizer::TransformBox(
    const query::HyperRectangle& box) const {
  if (box.dims() != dims()) {
    return Status::InvalidArgument(
        StrFormat("Normalizer::TransformBox: %zu dims, fitted on %zu",
                  box.dims(), dims()));
  }
  std::vector<query::Interval> out(dims());
  for (size_t c = 0; c < dims(); ++c) {
    const double lo = (box.dim(c).lo - offset_[c]) * scale_[c];
    const double hi = (box.dim(c).hi - offset_[c]) * scale_[c];
    out[c] = query::Interval(std::min(lo, hi), std::max(lo, hi));
  }
  return query::HyperRectangle(std::move(out));
}

}  // namespace qens::data
