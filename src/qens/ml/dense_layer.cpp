#include "qens/ml/dense_layer.h"

#include <cmath>

#include "qens/common/string_util.h"

namespace qens::ml {

DenseLayer::DenseLayer(size_t in_features, size_t out_features,
                       Activation activation)
    : in_features_(in_features),
      out_features_(out_features),
      activation_(activation),
      weights_(in_features, out_features),
      bias_(out_features, 0.0) {}

void DenseLayer::InitGlorot(Rng* rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(in_features_ + out_features_));
  for (double& w : weights_.data()) w = rng->Uniform(-limit, limit);
  std::fill(bias_.begin(), bias_.end(), 0.0);
}

Result<Matrix> DenseLayer::Apply(const Matrix& x) const {
  if (x.cols() != in_features_) {
    return Status::InvalidArgument(
        StrFormat("DenseLayer::Apply: input has %zu features, expected %zu",
                  x.cols(), in_features_));
  }
  Matrix z;
  QENS_RETURN_NOT_OK(x.MatMulAddBiasInto(weights_, bias_, &z));
  ApplyActivation(activation_, z, &z);  // In place: one buffer end to end.
  return z;
}

Status DenseLayer::Forward(const Matrix& x, Matrix* y) {
  if (x.cols() != in_features_) {
    return Status::InvalidArgument(
        StrFormat("DenseLayer::Forward: input has %zu features, expected %zu",
                  x.cols(), in_features_));
  }
  QENS_RETURN_NOT_OK(x.MatMulAddBiasInto(weights_, bias_, &cached_pre_));
  cached_input_.set(&x);  // Zero-copy: the caller keeps x alive.
  ApplyActivation(activation_, cached_pre_, y);
  return Status::OK();
}

Status DenseLayer::Backward(const Matrix& grad_out, DenseGradients* grads,
                            Matrix* dx) {
  const Matrix* input = cached_input_.get();
  if (input == nullptr) {
    return Status::FailedPrecondition(
        "DenseLayer::Backward called without a cached Forward");
  }
  if (grad_out.rows() != cached_pre_.rows() ||
      grad_out.cols() != out_features_) {
    return Status::InvalidArgument("DenseLayer::Backward: grad shape mismatch");
  }
  // dZ = dY (.) f'(Z), built in the layer-owned scratch buffer.
  ApplyActivationGrad(activation_, cached_pre_, &dz_scratch_);
  QENS_RETURN_NOT_OK(dz_scratch_.HadamardInPlace(grad_out));
  // dW = Xᵀ dZ ; db = column sums of dZ ; dX = dZ Wᵀ — both GEMMs via the
  // fused kernels, so no transposed copy of X or W is ever built. Every
  // output reuses its buffer's allocation.
  QENS_RETURN_NOT_OK(
      input->MatMulTransposedAInto(dz_scratch_, &grads->d_weights));
  dz_scratch_.ColSumsInto(&grads->d_bias);
  if (dx == nullptr) return Status::OK();
  return dz_scratch_.MatMulTransposedBInto(weights_, dx);
}

Status DenseLayer::ApplyDelta(double alpha, const DenseGradients& delta) {
  QENS_RETURN_NOT_OK(weights_.Axpy(alpha, delta.d_weights));
  if (delta.d_bias.size() != bias_.size()) {
    return Status::InvalidArgument("ApplyDelta: bias size mismatch");
  }
  for (size_t i = 0; i < bias_.size(); ++i) bias_[i] += alpha * delta.d_bias[i];
  return Status::OK();
}

size_t DenseLayer::ParameterCount() const {
  return weights_.size() + bias_.size();
}

void DenseLayer::FlattenParams(std::vector<double>* out) const {
  out->insert(out->end(), weights_.data().begin(), weights_.data().end());
  out->insert(out->end(), bias_.begin(), bias_.end());
}

Status DenseLayer::UnflattenParams(const std::vector<double>& flat,
                                   size_t* offset) {
  const size_t need = ParameterCount();
  if (*offset + need > flat.size()) {
    return Status::InvalidArgument(
        StrFormat("UnflattenParams: need %zu values at offset %zu but flat "
                  "buffer has %zu",
                  need, *offset, flat.size()));
  }
  std::copy(flat.begin() + static_cast<ptrdiff_t>(*offset),
            flat.begin() + static_cast<ptrdiff_t>(*offset + weights_.size()),
            weights_.data().begin());
  *offset += weights_.size();
  std::copy(flat.begin() + static_cast<ptrdiff_t>(*offset),
            flat.begin() + static_cast<ptrdiff_t>(*offset + bias_.size()),
            bias_.begin());
  *offset += bias_.size();
  return Status::OK();
}

}  // namespace qens::ml
