#include "qens/ml/optimizer.h"

#include <cmath>

#include "qens/common/string_util.h"

namespace qens::ml {
namespace {

Status CheckGrads(const SequentialModel& model,
                  const std::vector<DenseGradients>& grads) {
  if (grads.size() != model.num_layers()) {
    return Status::InvalidArgument(
        StrFormat("optimizer: %zu gradient sets for %zu layers", grads.size(),
                  model.num_layers()));
  }
  for (size_t i = 0; i < grads.size(); ++i) {
    if (!grads[i].d_weights.SameShape(model.layer(i).weights()) ||
        grads[i].d_bias.size() != model.layer(i).bias().size()) {
      return Status::InvalidArgument(
          StrFormat("optimizer: gradient shape mismatch at layer %zu", i));
    }
  }
  return Status::OK();
}

}  // namespace

SgdOptimizer::SgdOptimizer(double learning_rate, double momentum)
    : Optimizer(learning_rate), momentum_(momentum) {}

Status SgdOptimizer::Step(SequentialModel* model,
                          const std::vector<DenseGradients>& grads) {
  QENS_RETURN_NOT_OK(CheckGrads(*model, grads));
  if (velocity_.size() != grads.size()) {
    velocity_.assign(grads.size(), {});
  }
  // In place, weights then bias: velocity_[li] keeps that flat layout, and
  // each parameter gets v = momentum * v - lr * g, then p += v.
  for (size_t li = 0; li < grads.size(); ++li) {
    DenseLayer& layer = model->layer(li);
    const std::vector<double>& gw = grads[li].d_weights.data();
    const std::vector<double>& gb = grads[li].d_bias;
    auto& vel = velocity_[li];
    if (vel.size() != gw.size() + gb.size()) {
      vel.assign(gw.size() + gb.size(), 0.0);
    }
    double* w = layer.weights().data().data();
    for (size_t i = 0; i < gw.size(); ++i) {
      vel[i] = momentum_ * vel[i] - learning_rate_ * gw[i];
      w[i] += vel[i];
    }
    double* b = layer.bias().data();
    double* vb = vel.data() + gw.size();
    for (size_t i = 0; i < gb.size(); ++i) {
      vb[i] = momentum_ * vb[i] - learning_rate_ * gb[i];
      b[i] += vb[i];
    }
  }
  return Status::OK();
}

void SgdOptimizer::Reset() { velocity_.clear(); }

AdamOptimizer::AdamOptimizer(double learning_rate, double beta1, double beta2,
                             double epsilon)
    : Optimizer(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {}

Status AdamOptimizer::Step(SequentialModel* model,
                           const std::vector<DenseGradients>& grads) {
  QENS_RETURN_NOT_OK(CheckGrads(*model, grads));
  if (m_.size() != grads.size()) {
    m_.assign(grads.size(), {});
    v_.assign(grads.size(), {});
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // One parameter: update its two moments and step it in place. m_[li]
  // and v_[li] keep the layer's flat weights-then-bias layout.
  auto update = [&](double g, double* param, double* m, double* v) {
    *m = beta1_ * *m + (1.0 - beta1_) * g;
    *v = beta2_ * *v + (1.0 - beta2_) * g * g;
    const double mhat = *m / bc1;
    const double vhat = *v / bc2;
    *param += -learning_rate_ * mhat / (std::sqrt(vhat) + epsilon_);
  };
  for (size_t li = 0; li < grads.size(); ++li) {
    DenseLayer& layer = model->layer(li);
    const std::vector<double>& gw = grads[li].d_weights.data();
    const std::vector<double>& gb = grads[li].d_bias;
    auto& m = m_[li];
    auto& v = v_[li];
    if (m.size() != gw.size() + gb.size()) {
      m.assign(gw.size() + gb.size(), 0.0);
      v.assign(gw.size() + gb.size(), 0.0);
    }
    double* w = layer.weights().data().data();
    for (size_t i = 0; i < gw.size(); ++i) update(gw[i], &w[i], &m[i], &v[i]);
    double* b = layer.bias().data();
    const size_t off = gw.size();
    for (size_t i = 0; i < gb.size(); ++i) {
      update(gb[i], &b[i], &m[off + i], &v[off + i]);
    }
  }
  return Status::OK();
}

void AdamOptimizer::Reset() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

Result<std::unique_ptr<Optimizer>> MakeOptimizer(const std::string& name,
                                                 double learning_rate) {
  const std::string n = ToLower(Trim(name));
  if (learning_rate <= 0.0) {
    return Status::InvalidArgument("MakeOptimizer: learning rate must be > 0");
  }
  if (n == "sgd") {
    return std::unique_ptr<Optimizer>(new SgdOptimizer(learning_rate));
  }
  if (n == "adam") {
    return std::unique_ptr<Optimizer>(new AdamOptimizer(learning_rate));
  }
  return Status::InvalidArgument("unknown optimizer: '" + name + "'");
}

}  // namespace qens::ml
