#ifndef QENS_ML_SEQUENTIAL_MODEL_H_
#define QENS_ML_SEQUENTIAL_MODEL_H_

/// \file sequential_model.h
/// A stack of dense layers — the model family the paper evaluates ("LR" is a
/// single 1-unit dense layer; "NN" adds a 64-unit ReLU hidden layer,
/// Table III). Exposes flat parameter access for serialization (the leader /
/// participant exchange) and parameter-space aggregation (FedAvg extension).

#include <functional>
#include <memory>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/ml/dense_layer.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

/// Feed-forward network: layers applied in order.
class SequentialModel {
 public:
  SequentialModel() = default;

  /// Append a layer. The first layer fixes the input width; subsequent
  /// layers must chain (in == previous out).
  Status AddLayer(size_t in_features, size_t out_features, Activation act);

  size_t num_layers() const { return layers_.size(); }
  const DenseLayer& layer(size_t i) const { return layers_[i]; }
  DenseLayer& layer(size_t i) { return layers_[i]; }

  /// Input/output widths; 0 when the model has no layers.
  size_t input_features() const;
  size_t output_features() const;

  /// Randomize all layer parameters (Glorot uniform, zero bias).
  void InitWeights(Rng* rng);

  /// Forward pass without gradient caching (inference). Const and
  /// allocation-light: no layer state is touched.
  Result<Matrix> Predict(const Matrix& x) const;

  /// Training forward pass with caching for Backward. Returns the model's
  /// output, held in a model-owned buffer that stays valid until the next
  /// Forward. Each layer caches a zero-copy view of its input; `x` itself
  /// must stay alive and unmodified until the matching Backward. Steady
  /// state (repeated batch shapes) allocates nothing.
  Result<std::reference_wrapper<const Matrix>> Forward(const Matrix& x);

  /// Backprop dL/dOutput through all layers into the model-owned
  /// gradients(), reusing their allocations. Requires a prior Forward.
  Status Backward(const Matrix& grad_out);

  /// Per-layer gradients from the last Backward (one entry per layer).
  const std::vector<DenseGradients>& gradients() const { return gradients_; }
  std::vector<DenseGradients>* mutable_gradients() { return &gradients_; }

  /// Total scalar parameter count across layers.
  size_t ParameterCount() const;

  /// All parameters as one flat vector (layer order, weights then bias).
  std::vector<double> GetParameters() const;

  /// Load parameters from a flat vector; fails unless the size matches
  /// ParameterCount() exactly.
  Status SetParameters(const std::vector<double>& flat);

  /// Deep copy.
  SequentialModel Clone() const { return *this; }

  /// True when the two models have identical layer shapes/activations.
  bool SameArchitecture(const SequentialModel& other) const;

 private:
  std::vector<DenseLayer> layers_;
  /// Training buffers, reused across batches. activations_[i] is the
  /// output of layer i from the last Forward (the input layer i+1 holds a
  /// view of; the last one is the model output). gradients_[i] holds layer
  /// i's parameter gradients and input_grads_[i] dL/d activations_[i] from
  /// the last Backward. A copied model must run its own Forward before
  /// Backward (training always does); until then its Backward fails.
  std::vector<Matrix> activations_;
  std::vector<DenseGradients> gradients_;
  std::vector<Matrix> input_grads_;
};

}  // namespace qens::ml

#endif  // QENS_ML_SEQUENTIAL_MODEL_H_
