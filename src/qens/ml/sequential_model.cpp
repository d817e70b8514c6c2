#include "qens/ml/sequential_model.h"

#include "qens/common/string_util.h"

namespace qens::ml {

Status SequentialModel::AddLayer(size_t in_features, size_t out_features,
                                 Activation act) {
  if (in_features == 0 || out_features == 0) {
    return Status::InvalidArgument("AddLayer: zero-width layer");
  }
  if (!layers_.empty() && layers_.back().out_features() != in_features) {
    return Status::InvalidArgument(StrFormat(
        "AddLayer: in_features %zu does not chain with previous out %zu",
        in_features, layers_.back().out_features()));
  }
  layers_.emplace_back(in_features, out_features, act);
  return Status::OK();
}

size_t SequentialModel::input_features() const {
  return layers_.empty() ? 0 : layers_.front().in_features();
}

size_t SequentialModel::output_features() const {
  return layers_.empty() ? 0 : layers_.back().out_features();
}

void SequentialModel::InitWeights(Rng* rng) {
  for (auto& layer : layers_) layer.InitGlorot(rng);
}

Result<Matrix> SequentialModel::Predict(const Matrix& x) const {
  if (layers_.empty()) {
    return Status::FailedPrecondition("Predict: model has no layers");
  }
  // Apply is const and cache-free, so inference neither copies layers nor
  // touches training state.
  QENS_ASSIGN_OR_RETURN(Matrix cur, layers_[0].Apply(x));
  for (size_t i = 1; i < layers_.size(); ++i) {
    QENS_ASSIGN_OR_RETURN(cur, layers_[i].Apply(cur));
  }
  return cur;
}

Result<std::reference_wrapper<const Matrix>> SequentialModel::Forward(
    const Matrix& x) {
  if (layers_.empty()) {
    return Status::FailedPrecondition("Forward: model has no layers");
  }
  // Each layer caches a pointer to its input, so the model keeps every
  // layer's output alive until Backward; the last one is the prediction.
  if (activations_.size() != layers_.size()) {
    activations_.resize(layers_.size());
  }
  const Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    QENS_RETURN_NOT_OK(layers_[i].Forward(*cur, &activations_[i]));
    cur = &activations_[i];
  }
  return std::cref(*cur);
}

Status SequentialModel::Backward(const Matrix& grad_out) {
  if (layers_.empty()) {
    return Status::FailedPrecondition("Backward: model has no layers");
  }
  if (gradients_.size() != layers_.size()) {
    gradients_.resize(layers_.size());
    input_grads_.resize(layers_.size() - 1);
  }
  // input_grads_[i] is dL/d(output of layer i), produced by layer i + 1.
  // Layer 0's input gradient is never needed, so it is not computed.
  const Matrix* cur = &grad_out;
  for (size_t i = layers_.size(); i-- > 0;) {
    Matrix* dx = i == 0 ? nullptr : &input_grads_[i - 1];
    QENS_RETURN_NOT_OK(layers_[i].Backward(*cur, &gradients_[i], dx));
    cur = dx;
  }
  return Status::OK();
}

size_t SequentialModel::ParameterCount() const {
  size_t n = 0;
  for (const auto& layer : layers_) n += layer.ParameterCount();
  return n;
}

std::vector<double> SequentialModel::GetParameters() const {
  std::vector<double> flat;
  flat.reserve(ParameterCount());
  for (const auto& layer : layers_) layer.FlattenParams(&flat);
  return flat;
}

Status SequentialModel::SetParameters(const std::vector<double>& flat) {
  if (flat.size() != ParameterCount()) {
    return Status::InvalidArgument(
        StrFormat("SetParameters: got %zu values, model has %zu parameters",
                  flat.size(), ParameterCount()));
  }
  size_t offset = 0;
  for (auto& layer : layers_) {
    QENS_RETURN_NOT_OK(layer.UnflattenParams(flat, &offset));
  }
  return Status::OK();
}

bool SequentialModel::SameArchitecture(const SequentialModel& other) const {
  if (layers_.size() != other.layers_.size()) return false;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].in_features() != other.layers_[i].in_features() ||
        layers_[i].out_features() != other.layers_[i].out_features() ||
        layers_[i].activation() != other.layers_[i].activation()) {
      return false;
    }
  }
  return true;
}

}  // namespace qens::ml
