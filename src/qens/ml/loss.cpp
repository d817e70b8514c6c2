#include "qens/ml/loss.h"

#include <cmath>

#include "qens/common/string_util.h"

namespace qens::ml {
namespace {

constexpr double kHuberDelta = 1.0;

Status CheckShapes(const Matrix& pred, const Matrix& target) {
  if (!pred.SameShape(target)) {
    return Status::InvalidArgument(
        StrFormat("loss: pred %zux%zu vs target %zux%zu", pred.rows(),
                  pred.cols(), target.rows(), target.cols()));
  }
  if (pred.empty()) return Status::InvalidArgument("loss: empty inputs");
  return Status::OK();
}

}  // namespace

const char* LossName(LossKind k) {
  switch (k) {
    case LossKind::kMse:
      return "mse";
    case LossKind::kMae:
      return "mae";
    case LossKind::kHuber:
      return "huber";
  }
  return "unknown";
}

Result<LossKind> ParseLoss(const std::string& name) {
  const std::string n = ToLower(Trim(name));
  if (n == "mse") return LossKind::kMse;
  if (n == "mae") return LossKind::kMae;
  if (n == "huber") return LossKind::kHuber;
  return Status::InvalidArgument("unknown loss: '" + name + "'");
}

namespace {

/// One pass over (pred, target): the loss sum in ascending element order
/// and, when kGrad, dL/dpred into `g` in the same pass. Both the loss and
/// the gradient use exactly the operations of separate passes, so the
/// fused result is bit-identical to computing them one after the other.
template <bool kGrad>
double LossPass(LossKind kind, const double* p, const double* t, size_t n,
                double* g) {
  const double inv_n = 1.0 / static_cast<double>(n);
  double acc = 0.0;
  switch (kind) {
    case LossKind::kMse:
      for (size_t i = 0; i < n; ++i) {
        const double d = p[i] - t[i];
        acc += d * d;
        if constexpr (kGrad) g[i] = 2.0 * d * inv_n;
      }
      break;
    case LossKind::kMae:
      for (size_t i = 0; i < n; ++i) {
        const double d = p[i] - t[i];
        acc += std::fabs(d);
        if constexpr (kGrad) {
          g[i] = (d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0)) * inv_n;
        }
      }
      break;
    case LossKind::kHuber:
      for (size_t i = 0; i < n; ++i) {
        const double d = p[i] - t[i];
        const double ad = std::fabs(d);
        acc += ad <= kHuberDelta ? 0.5 * ad * ad
                                 : kHuberDelta * (ad - 0.5 * kHuberDelta);
        if constexpr (kGrad) {
          g[i] = ad <= kHuberDelta
                     ? d * inv_n
                     : (d > 0.0 ? kHuberDelta : -kHuberDelta) * inv_n;
        }
      }
      break;
  }
  return acc / static_cast<double>(n);
}

}  // namespace

Result<double> ComputeLoss(LossKind kind, const Matrix& pred,
                           const Matrix& target) {
  QENS_RETURN_NOT_OK(CheckShapes(pred, target));
  return LossPass<false>(kind, pred.data().data(), target.data().data(),
                         pred.size(), nullptr);
}

Result<double> ComputeLossAndGrad(LossKind kind, const Matrix& pred,
                                  const Matrix& target, Matrix* grad) {
  QENS_RETURN_NOT_OK(CheckShapes(pred, target));
  grad->ResizeUninitialized(pred.rows(), pred.cols());
  return LossPass<true>(kind, pred.data().data(), target.data().data(),
                        pred.size(), grad->data().data());
}

Result<Matrix> ComputeLossGrad(LossKind kind, const Matrix& pred,
                               const Matrix& target) {
  Matrix grad;
  QENS_RETURN_NOT_OK(ComputeLossAndGrad(kind, pred, target, &grad).status());
  return grad;
}

}  // namespace qens::ml
