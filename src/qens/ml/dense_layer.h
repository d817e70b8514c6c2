#ifndef QENS_ML_DENSE_LAYER_H_
#define QENS_ML_DENSE_LAYER_H_

/// \file dense_layer.h
/// Fully-connected layer: Y = f(X * W + b).
///
/// Shapes: X is (batch x in), W is (in x out), b is (out), Y is (batch x out).
/// The layer owns its parameters and, after a Forward with caching enabled,
/// the activations needed for Backward.

#include <cstddef>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/status.h"
#include "qens/ml/activation.h"
#include "qens/tensor/matrix.h"

namespace qens::ml {

/// Gradients produced by one Backward pass through a layer.
struct DenseGradients {
  Matrix d_weights;             ///< Same shape as the layer's weight matrix.
  std::vector<double> d_bias;   ///< Same length as the layer's bias.
};

/// A dense (fully connected) layer with an elementwise activation.
class DenseLayer {
 public:
  /// Construct with zeroed parameters. Use InitGlorot to randomize.
  DenseLayer(size_t in_features, size_t out_features, Activation activation);

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }
  Activation activation() const { return activation_; }

  /// Glorot/Xavier-uniform weight init, zero bias (the Keras Dense default,
  /// matching the paper's setup).
  void InitGlorot(Rng* rng);

  /// Inference-only forward pass: Y = f(X * W + b) with no caching and no
  /// layer mutation. Fails if x.cols() != in_features().
  Result<Matrix> Apply(const Matrix& x) const;

  /// Training forward pass into caller-owned `y` (resized, reusing its
  /// allocation; must not alias `x`). Stores a VIEW of the input (a pointer
  /// — zero-copy) plus the pre-activation for a subsequent Backward; the
  /// caller must keep `x` alive and unmodified until Backward runs
  /// (SequentialModel owns the inter-layer activations for exactly this).
  /// Bit-identical to Apply. Fails if x.cols() != in_features().
  Status Forward(const Matrix& x, Matrix* y);

  /// Backward pass given dL/dY (`grad_out`, batch x out). Writes parameter
  /// gradients into `grads` and dL/dX into `dx`, both reusing their
  /// allocations; a null `dx` skips the input gradient (the first layer's
  /// is never needed). Computes Xᵀ·dZ and dZ·Wᵀ through the fused
  /// transposed-operand kernels — no transpose is ever materialized.
  /// Requires a prior Forward on the same batch, with that x still alive.
  Status Backward(const Matrix& grad_out, DenseGradients* grads, Matrix* dx);

  /// Apply a parameter delta: W += alpha * dW, b += alpha * db.
  Status ApplyDelta(double alpha, const DenseGradients& delta);

  const Matrix& weights() const { return weights_; }
  Matrix& weights() { return weights_; }
  const std::vector<double>& bias() const { return bias_; }
  std::vector<double>& bias() { return bias_; }

  /// Number of scalar parameters (weights + bias).
  size_t ParameterCount() const;

  /// Append all parameters (row-major weights, then bias) to `out`.
  void FlattenParams(std::vector<double>* out) const;

  /// Read ParameterCount() values from flat[offset...]; advances *offset.
  Status UnflattenParams(const std::vector<double>& flat, size_t* offset);

 private:
  size_t in_features_;
  size_t out_features_;
  Activation activation_;
  Matrix weights_;            // (in x out)
  std::vector<double> bias_;  // (out)

  /// The input view Forward caches for Backward. A copied or moved layer
  /// starts without one: the view points at buffers the source's owner
  /// keeps, so a copy's Backward must fail until its own Forward runs.
  class InputView {
   public:
    InputView() = default;
    InputView(const InputView&) {}
    InputView& operator=(const InputView&) {
      input_ = nullptr;
      return *this;
    }
    const Matrix* get() const { return input_; }
    void set(const Matrix* input) { input_ = input; }

   private:
    const Matrix* input_ = nullptr;
  };

  // Cached by Forward for Backward. The input is held by pointer
  // (zero-copy); it is only dereferenced inside Backward, and the
  // Forward/Backward contract guarantees it is still alive there. The
  // pre-activation and the dZ scratch are layer-owned buffers whose
  // allocations are reused across batches.
  InputView cached_input_;  // (batch x in), caller-owned
  Matrix cached_pre_;       // (batch x out), pre-activation Z
  Matrix dz_scratch_;       // (batch x out), f'(Z) then dZ
};

}  // namespace qens::ml

#endif  // QENS_ML_DENSE_LAYER_H_
