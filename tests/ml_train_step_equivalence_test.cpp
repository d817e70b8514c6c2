// Differential test for the allocation-free training step.
//
// The oracle below is the training step as it stood before the step was
// made allocation-free: separate loss and gradient passes, a fresh matrix
// for every intermediate, dX computed for every layer (the first one
// included), d_bias through a returned column-sum vector, optimizers that
// copy each layer's gradients into a flat vector, validation through a
// fresh prediction, and the general GEMM / transposed-GEMM / row-gather
// loops without the width-1 shortcuts. Its shuffles draw through the old
// rejection sampler, which computed the rejection limit on every draw.
//
// Every case trains the same initial model with the oracle and with
// ml::Trainer and requires bitwise-equal parameters, per-epoch losses and
// counters — signed zeros and infinities included, NaN wherever the oracle
// has NaN. A counting global
// operator new pins that steady-state TrainBatch calls never allocate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/ml/activation.h"
#include "qens/ml/loss.h"
#include "qens/ml/optimizer.h"
#include "qens/ml/sequential_model.h"
#include "qens/ml/trainer.h"
#include "qens/tensor/matrix.h"

// ---------------------------------------------------------------------------
// Counting allocator: every global operator new in this binary bumps the
// counter, so a window of calls can assert it allocated nothing.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return ::operator new(size); }
// Out of line, so the compiler never sees new's malloc meet delete's free
// across an inlined call (which it would flag as a mismatched pair).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}

namespace qens::ml {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the pre-change kernels and training step.
// ---------------------------------------------------------------------------

constexpr size_t kOracleColTile = 256;

/// The general ikj GEMM core: out(i, :) += a(i, :) * b, 4x-unrolled k with
/// sequential adds, for every width (no width-1 dot-product path).
void OracleGemmAccumulate(const double* a_data, size_t a_rows, size_t a_cols,
                          const double* b_data, size_t b_cols,
                          double* out_data) {
  for (size_t j0 = 0; j0 < b_cols; j0 += kOracleColTile) {
    const size_t j1 = std::min(j0 + kOracleColTile, b_cols);
    for (size_t i = 0; i < a_rows; ++i) {
      const double* a = a_data + i * a_cols;
      double* o = out_data + i * b_cols;
      size_t k = 0;
      for (; k + 4 <= a_cols; k += 4) {
        const double a0 = a[k];
        const double a1 = a[k + 1];
        const double a2 = a[k + 2];
        const double a3 = a[k + 3];
        const double* b0 = b_data + k * b_cols;
        const double* b1 = b0 + b_cols;
        const double* b2 = b1 + b_cols;
        const double* b3 = b2 + b_cols;
        for (size_t j = j0; j < j1; ++j) {
          double acc = o[j];
          acc += a0 * b0[j];
          acc += a1 * b1[j];
          acc += a2 * b2[j];
          acc += a3 * b3[j];
          o[j] = acc;
        }
      }
      for (; k < a_cols; ++k) {
        const double aik = a[k];
        const double* b = b_data + k * b_cols;
        for (size_t j = j0; j < j1; ++j) o[j] += aik * b[j];
      }
    }
  }
}

/// x * w + b: zero-filled output, full k-accumulation, then the bias.
Matrix OracleMatMulAddBias(const Matrix& x, const Matrix& w,
                           const std::vector<double>& b) {
  Matrix out(x.rows(), w.cols());
  OracleGemmAccumulate(x.data().data(), x.rows(), x.cols(), w.data().data(),
                       w.cols(), out.data().data());
  for (size_t i = 0; i < out.rows(); ++i) {
    double* o = out.RowPtr(i);
    for (size_t j = 0; j < out.cols(); ++j) o[j] += b[j];
  }
  return out;
}

/// aᵀ * b by rank-1 row updates, rows unrolled 4 at a time (no 1x1 path).
Matrix OracleMatMulTransposedA(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  const size_t n = b.cols();
  size_t r = 0;
  for (; r + 4 <= a.rows(); r += 4) {
    const double* a0 = a.RowPtr(r);
    const double* a1 = a.RowPtr(r + 1);
    const double* a2 = a.RowPtr(r + 2);
    const double* a3 = a.RowPtr(r + 3);
    const double* b0 = b.RowPtr(r);
    const double* b1 = b.RowPtr(r + 1);
    const double* b2 = b.RowPtr(r + 2);
    const double* b3 = b.RowPtr(r + 3);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double c0 = a0[i];
      const double c1 = a1[i];
      const double c2 = a2[i];
      const double c3 = a3[i];
      double* o = out.RowPtr(i);
      for (size_t j = 0; j < n; ++j) {
        double acc = o[j];
        acc += c0 * b0[j];
        acc += c1 * b1[j];
        acc += c2 * b2[j];
        acc += c3 * b3[j];
        o[j] = acc;
      }
    }
  }
  for (; r < a.rows(); ++r) {
    const double* ar = a.RowPtr(r);
    const double* br = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double ari = ar[i];
      double* o = out.RowPtr(i);
      for (size_t j = 0; j < n; ++j) o[j] += ari * br[j];
    }
  }
  return out;
}

/// a * bᵀ: one ascending-k dot product per output element.
Matrix OracleMatMulTransposedB(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      out(i, j) = acc;
    }
  }
  return out;
}

std::vector<double> OracleColSums(const Matrix& m) {
  std::vector<double> sums(m.cols(), 0.0);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) sums[c] += m(r, c);
  }
  return sums;
}

Matrix OracleSelectRows(const Matrix& m, const std::vector<size_t>& idx) {
  Matrix out(idx.size(), m.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy(m.RowPtr(idx[i]), m.RowPtr(idx[i]) + m.cols(), out.RowPtr(i));
  }
  return out;
}

/// The old rejection sampler: the limit is computed on every draw.
uint64_t OracleUniformInt(Rng* rng, uint64_t n) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  const uint64_t limit = max - max % n;
  uint64_t x;
  do {
    x = rng->Next();
  } while (x >= limit);
  return x % n;
}

void OracleShuffle(Rng* rng, std::vector<size_t>* v) {
  if (v->empty()) return;
  for (size_t i = v->size() - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(OracleUniformInt(rng, i + 1));
    std::swap((*v)[i], (*v)[j]);
  }
}

constexpr double kHuber = 1.0;

double OracleLoss(LossKind kind, const Matrix& pred, const Matrix& target) {
  const auto& p = pred.data();
  const auto& t = target.data();
  double acc = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    switch (kind) {
      case LossKind::kMse: {
        const double d = p[i] - t[i];
        acc += d * d;
        break;
      }
      case LossKind::kMae:
        acc += std::fabs(p[i] - t[i]);
        break;
      case LossKind::kHuber: {
        const double d = std::fabs(p[i] - t[i]);
        acc += d <= kHuber ? 0.5 * d * d : kHuber * (d - 0.5 * kHuber);
        break;
      }
    }
  }
  return acc / static_cast<double>(p.size());
}

Matrix OracleLossGrad(LossKind kind, const Matrix& pred, const Matrix& target) {
  Matrix grad(pred.rows(), pred.cols());
  const auto& p = pred.data();
  const auto& t = target.data();
  auto& g = grad.data();
  const double inv_n = 1.0 / static_cast<double>(p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    const double d = p[i] - t[i];
    switch (kind) {
      case LossKind::kMse:
        g[i] = 2.0 * (p[i] - t[i]) * inv_n;
        break;
      case LossKind::kMae:
        g[i] = (d > 0.0 ? 1.0 : (d < 0.0 ? -1.0 : 0.0)) * inv_n;
        break;
      case LossKind::kHuber:
        g[i] = std::fabs(d) <= kHuber ? d * inv_n
                                      : (d > 0.0 ? kHuber : -kHuber) * inv_n;
        break;
    }
  }
  return grad;
}

struct OracleLayer {
  Matrix w;
  std::vector<double> b;
  Activation act = Activation::kIdentity;
  Matrix input;  // Copy of the forward input.
  Matrix pre;    // Pre-activation.
};

struct OracleGrads {
  Matrix dw;
  std::vector<double> db;
};

enum class OptKind { kSgd, kMomentum, kAdam };

/// The old optimizers: per layer, gradients flattened (weights then bias)
/// into a fresh vector, then a flat delta applied.
class OracleOptimizer {
 public:
  OracleOptimizer(OptKind kind, double lr) : kind_(kind), lr_(lr) {}

  double lr() const { return lr_; }
  void set_lr(double lr) { lr_ = lr; }

  void Step(std::vector<OracleLayer>* layers,
            const std::vector<OracleGrads>& grads) {
    if (state_a_.size() != grads.size()) {
      state_a_.assign(grads.size(), {});
      state_b_.assign(grads.size(), {});
      t_ = 0;
    }
    ++t_;
    const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
    for (size_t li = 0; li < grads.size(); ++li) {
      std::vector<double> flat(grads[li].dw.data());
      flat.insert(flat.end(), grads[li].db.begin(), grads[li].db.end());
      auto& a = state_a_[li];
      auto& b = state_b_[li];
      if (a.size() != flat.size()) {
        a.assign(flat.size(), 0.0);
        b.assign(flat.size(), 0.0);
      }
      std::vector<double> delta(flat.size());
      for (size_t i = 0; i < flat.size(); ++i) {
        if (kind_ == OptKind::kAdam) {
          a[i] = kBeta1 * a[i] + (1.0 - kBeta1) * flat[i];
          b[i] = kBeta2 * b[i] + (1.0 - kBeta2) * flat[i] * flat[i];
          const double mhat = a[i] / bc1;
          const double vhat = b[i] / bc2;
          delta[i] = -lr_ * mhat / (std::sqrt(vhat) + kEpsilon);
        } else {
          const double momentum = kind_ == OptKind::kMomentum ? 0.9 : 0.0;
          a[i] = momentum * a[i] - lr_ * flat[i];
          delta[i] = a[i];
        }
      }
      OracleLayer& layer = (*layers)[li];
      auto& w = layer.w.data();
      for (size_t i = 0; i < w.size(); ++i) w[i] += delta[i];
      for (size_t i = 0; i < layer.b.size(); ++i) {
        layer.b[i] += delta[w.size() + i];
      }
    }
  }

 private:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEpsilon = 1e-8;
  OptKind kind_;
  double lr_;
  size_t t_ = 0;
  std::vector<std::vector<double>> state_a_;  // Velocity, or Adam's m.
  std::vector<std::vector<double>> state_b_;  // Adam's v.
};

Matrix OracleForward(std::vector<OracleLayer>* layers, const Matrix& x) {
  Matrix cur = x;
  for (OracleLayer& layer : *layers) {
    layer.input = cur;
    layer.pre = OracleMatMulAddBias(cur, layer.w, layer.b);
    Matrix y;
    ApplyActivation(layer.act, layer.pre, &y);
    cur = y;
  }
  return cur;
}

Matrix OraclePredict(const std::vector<OracleLayer>& layers, const Matrix& x) {
  Matrix cur = x;
  for (const OracleLayer& layer : layers) {
    Matrix z = OracleMatMulAddBias(cur, layer.w, layer.b);
    ApplyActivation(layer.act, z, &z);
    cur = z;
  }
  return cur;
}

std::vector<OracleGrads> OracleBackward(const std::vector<OracleLayer>& layers,
                                        const Matrix& grad_out) {
  std::vector<OracleGrads> grads(layers.size());
  Matrix cur = grad_out;
  for (size_t i = layers.size(); i-- > 0;) {
    const OracleLayer& layer = layers[i];
    Matrix dz;
    ApplyActivationGrad(layer.act, layer.pre, &dz);
    EXPECT_TRUE(dz.HadamardInPlace(cur).ok());
    grads[i].dw = OracleMatMulTransposedA(layer.input, dz);
    grads[i].db = OracleColSums(dz);
    cur = OracleMatMulTransposedB(dz, layer.w);  // Layer 0's too.
  }
  return grads;
}

double OracleTrainBatch(std::vector<OracleLayer>* layers,
                        OracleOptimizer* optimizer, const TrainOptions& opts,
                        const Matrix& x, const Matrix& y) {
  const Matrix pred = OracleForward(layers, x);
  const double loss = OracleLoss(opts.loss, pred, y);
  const Matrix grad = OracleLossGrad(opts.loss, pred, y);
  std::vector<OracleGrads> grads = OracleBackward(*layers, grad);
  if (opts.weight_decay > 0.0) {
    for (size_t li = 0; li < grads.size(); ++li) {
      auto& d = grads[li].dw.data();
      const auto& w = (*layers)[li].w.data();
      for (size_t i = 0; i < d.size(); ++i) d[i] += opts.weight_decay * w[i];
    }
  }
  if (opts.clip_norm > 0.0) {
    double norm_sq = 0.0;
    for (const auto& g : grads) {
      for (double v : g.dw.data()) norm_sq += v * v;
      for (double v : g.db) norm_sq += v * v;
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > opts.clip_norm) {
      const double scale = opts.clip_norm / norm;
      for (auto& g : grads) {
        for (double& v : g.dw.data()) v *= scale;
        for (double& v : g.db) v *= scale;
      }
    }
  }
  optimizer->Step(layers, grads);
  return loss;
}

TrainReport OracleFit(std::vector<OracleLayer>* layers,
                      OracleOptimizer* optimizer, const TrainOptions& opts,
                      const Matrix& x, const Matrix& y) {
  Rng rng(opts.seed);
  const SplitRng stream(opts.seed);
  std::vector<size_t> order(x.rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (opts.shuffle) {
    if (opts.keyed_shuffle) {
      Rng init_rng = stream.Split(RngPurpose::kTrainOrderInit).ToRng();
      OracleShuffle(&init_rng, &order);
    } else {
      OracleShuffle(&rng, &order);
    }
  }
  size_t n_val = static_cast<size_t>(opts.validation_split *
                                     static_cast<double>(x.rows()));
  n_val = std::min(n_val, x.rows() - 1);
  const size_t n_train = x.rows() - n_val;
  std::vector<size_t> train_idx(order.begin(),
                                order.begin() + static_cast<ptrdiff_t>(n_train));
  const std::vector<size_t> val_idx(
      order.begin() + static_cast<ptrdiff_t>(n_train), order.end());
  const Matrix x_val = OracleSelectRows(x, val_idx);
  const Matrix y_val = OracleSelectRows(y, val_idx);

  TrainReport report;
  double best_val = 0.0;
  size_t bad_epochs = 0;
  const double base_lr = optimizer->lr();
  for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    if (opts.lr_decay > 0.0) {
      optimizer->set_lr(base_lr /
                        (1.0 + opts.lr_decay * static_cast<double>(epoch)));
    }
    if (opts.shuffle) {
      if (opts.keyed_shuffle) {
        Rng epoch_rng =
            stream.Split(RngPurpose::kMinibatchShuffle).Split(epoch).ToRng();
        OracleShuffle(&epoch_rng, &train_idx);
      } else {
        OracleShuffle(&rng, &train_idx);
      }
    }
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < n_train; start += opts.batch_size) {
      const size_t end = std::min(start + opts.batch_size, n_train);
      const std::vector<size_t> batch(
          train_idx.begin() + static_cast<ptrdiff_t>(start),
          train_idx.begin() + static_cast<ptrdiff_t>(end));
      const Matrix xb = OracleSelectRows(x, batch);
      const Matrix yb = OracleSelectRows(y, batch);
      epoch_loss += OracleTrainBatch(layers, optimizer, opts, xb, yb);
      ++batches;
      report.samples_seen += batch.size();
    }
    report.train_loss.push_back(batches > 0 ? epoch_loss / batches : 0.0);
    ++report.epochs_run;
    if (n_val > 0) {
      const double vl = OracleLoss(opts.loss, OraclePredict(*layers, x_val),
                                   y_val);
      report.val_loss.push_back(vl);
      if (opts.early_stopping_patience > 0) {
        if (report.val_loss.size() == 1 || vl < best_val - opts.min_delta) {
          best_val = vl;
          bad_epochs = 0;
        } else if (++bad_epochs >= opts.early_stopping_patience) {
          report.early_stopped = true;
          break;
        }
      }
    }
  }
  optimizer->set_lr(base_lr);
  return report;
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

/// Bitwise equality of two double sequences, except that any NaN matches
/// any NaN. Signed zeros and infinities must match bit for bit (== would
/// call -0.0 equal to 0.0). NaN sign and payload are not: IEEE-754 leaves
/// them unspecified, and the compiler may commute a NaN * NaN product, so
/// the same loop built at -O2 (this file) and -O3 (the library's hot
/// files) can disagree on them.
::testing::AssertionResult BitsEqual(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    uint64_t ba;
    uint64_t bb;
    std::memcpy(&ba, &a[i], sizeof ba);
    std::memcpy(&bb, &b[i], sizeof bb);
    if (ba != bb) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

struct LayerSpec {
  size_t out;
  Activation act;
};

struct Case {
  std::string name;
  size_t features = 1;
  std::vector<LayerSpec> layers;
  OptKind opt = OptKind::kSgd;
  double lr = 0.03;
  TrainOptions options;
  size_t rows = 75;
  bool zero_init = false;      ///< All parameters 0 (0 * NaN must stay NaN).
  bool special_values = false; ///< NaN, Inf and -0.0 among the inputs.
};

SequentialModel BuildCaseModel(const Case& c, uint64_t seed) {
  SequentialModel model;
  size_t in = c.features;
  for (const LayerSpec& spec : c.layers) {
    EXPECT_TRUE(model.AddLayer(in, spec.out, spec.act).ok());
    in = spec.out;
  }
  Rng rng(seed);
  model.InitWeights(&rng);
  if (c.zero_init) {
    EXPECT_TRUE(
        model.SetParameters(std::vector<double>(model.ParameterCount(), 0.0))
            .ok());
  }
  return model;
}

std::vector<OracleLayer> ToOracle(const SequentialModel& model) {
  std::vector<OracleLayer> layers(model.num_layers());
  for (size_t i = 0; i < model.num_layers(); ++i) {
    layers[i].w = model.layer(i).weights();
    layers[i].b = model.layer(i).bias();
    layers[i].act = model.layer(i).activation();
  }
  return layers;
}

std::vector<double> OracleParameters(const std::vector<OracleLayer>& layers) {
  std::vector<double> flat;
  for (const OracleLayer& layer : layers) {
    flat.insert(flat.end(), layer.w.data().begin(), layer.w.data().end());
    flat.insert(flat.end(), layer.b.begin(), layer.b.end());
  }
  return flat;
}

std::unique_ptr<Optimizer> MakeCaseOptimizer(OptKind kind, double lr) {
  switch (kind) {
    case OptKind::kSgd:
      return std::make_unique<SgdOptimizer>(lr);
    case OptKind::kMomentum:
      return std::make_unique<SgdOptimizer>(lr, 0.9);
    case OptKind::kAdam:
      return std::make_unique<AdamOptimizer>(lr);
  }
  return nullptr;
}

void MakeData(const Case& c, uint64_t seed, Matrix* x, Matrix* y) {
  Rng rng(seed * 7919 + 17);
  const size_t outputs = c.layers.back().out;
  *x = Matrix(c.rows, c.features);
  *y = Matrix(c.rows, outputs);
  for (double& v : x->data()) v = rng.Uniform(-2.0, 2.0);
  for (size_t r = 0; r < c.rows; ++r) {
    for (size_t o = 0; o < outputs; ++o) {
      double acc = 0.5 * static_cast<double>(o);
      for (size_t f = 0; f < c.features; ++f) acc += (*x)(r, f);
      (*y)(r, o) = acc + rng.Gaussian(0.0, 0.3);
    }
  }
  if (c.special_values) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    (*x)(3 % c.rows, 0) = -0.0;
    (*x)(11 % c.rows, c.features - 1) = nan;
    (*x)(29 % c.rows, 0) = inf;
    (*y)(41 % c.rows, 0) = -0.0;
    (*y)(53 % c.rows, 0) = -inf;
  }
}

void ExpectSameFit(const Case& c, uint64_t seed) {
  SCOPED_TRACE(c.name + " seed " + std::to_string(seed));
  Matrix x, y;
  MakeData(c, seed, &x, &y);
  SequentialModel model = BuildCaseModel(c, seed);
  std::vector<OracleLayer> oracle = ToOracle(model);

  TrainOptions opts = c.options;
  opts.seed = seed;
  Trainer trainer(MakeCaseOptimizer(c.opt, c.lr), opts);
  OracleOptimizer oracle_opt(c.opt, c.lr);
  // Two fits back to back, like the per-cluster incremental passes: the
  // optimizer state and the model's buffers carry from one to the next.
  for (int pass = 0; pass < 2; ++pass) {
    Result<TrainReport> got = trainer.Fit(&model, x, y);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const TrainReport want = OracleFit(&oracle, &oracle_opt, opts, x, y);
    EXPECT_TRUE(BitsEqual(got->train_loss, want.train_loss)) << "train loss";
    EXPECT_TRUE(BitsEqual(got->val_loss, want.val_loss)) << "val loss";
    EXPECT_EQ(got->samples_seen, want.samples_seen);
    EXPECT_EQ(got->epochs_run, want.epochs_run);
    EXPECT_EQ(got->early_stopped, want.early_stopped);
    EXPECT_TRUE(BitsEqual(model.GetParameters(), OracleParameters(oracle)))
        << "parameters after pass " << pass;
  }
}

TrainOptions Opts(size_t epochs, size_t batch, double val_split,
                  LossKind loss) {
  TrainOptions o;
  o.epochs = epochs;
  o.batch_size = batch;
  o.validation_split = val_split;
  o.loss = loss;
  return o;
}

std::vector<Case> AllCases() {
  const std::vector<LayerSpec> lr1 = {{1, Activation::kIdentity}};
  std::vector<Case> cases;
  auto add = [&](Case c) { cases.push_back(std::move(c)); };

  // LR, the paper's model: one feature, plain SGD, no validation.
  add({"lr_sgd_mse", 1, lr1, OptKind::kSgd, 0.03,
       Opts(6, 32, 0.0, LossKind::kMse)});
  add({"lr_sgd_mse_3feat_val", 3, lr1, OptKind::kSgd, 0.03,
       Opts(6, 32, 0.2, LossKind::kMse)});
  add({"lr_momentum_mae", 2, lr1, OptKind::kMomentum, 0.01,
       Opts(5, 7, 0.2, LossKind::kMae)});
  add({"lr_adam_huber", 1, lr1, OptKind::kAdam, 0.05,
       Opts(5, 32, 0.2, LossKind::kHuber)});
  // NN with each hidden activation, and a deeper / multi-output stack so
  // the general-width kernels are covered next to the width-1 ones.
  add({"nn_relu_adam_mse", 4,
       {{8, Activation::kRelu}, {1, Activation::kIdentity}},
       OptKind::kAdam, 0.01, Opts(5, 32, 0.2, LossKind::kMse)});
  add({"nn_sigmoid_sgd_huber", 3,
       {{6, Activation::kSigmoid}, {1, Activation::kIdentity}},
       OptKind::kSgd, 0.05, Opts(5, 16, 0.1, LossKind::kHuber)});
  add({"nn_tanh_momentum_mae", 5,
       {{7, Activation::kTanh}, {1, Activation::kIdentity}},
       OptKind::kMomentum, 0.02, Opts(4, 10, 0.2, LossKind::kMae)});
  add({"nn_deep_multi_output", 13,
       {{9, Activation::kTanh},
        {5, Activation::kSigmoid},
        {2, Activation::kRelu}},
       OptKind::kAdam, 0.01, Opts(4, 32, 0.2, LossKind::kMse)});
  {
    Case c{"lr_decay_clip_weight_decay", 2, lr1, OptKind::kSgd, 0.1,
           Opts(6, 8, 0.2, LossKind::kMse)};
    c.options.weight_decay = 0.01;
    c.options.clip_norm = 0.5;
    c.options.lr_decay = 0.3;
    add(c);
  }
  {
    Case c{"nn_decay_clip_weight_decay", 3,
           {{8, Activation::kRelu}, {1, Activation::kIdentity}},
           OptKind::kMomentum, 0.05, Opts(6, 9, 0.2, LossKind::kHuber)};
    c.options.weight_decay = 0.05;
    c.options.clip_norm = 0.1;
    c.options.lr_decay = 0.5;
    add(c);
  }
  {
    Case c{"early_stopping", 1, lr1, OptKind::kSgd, 0.5,
           Opts(40, 32, 0.3, LossKind::kMse)};
    c.options.early_stopping_patience = 2;
    c.options.min_delta = 1e-3;
    add(c);
  }
  {
    Case c{"nn_early_stopping_adam", 2,
           {{5, Activation::kRelu}, {1, Activation::kIdentity}},
           OptKind::kAdam, 0.3, Opts(30, 16, 0.25, LossKind::kMae)};
    c.options.early_stopping_patience = 1;
    add(c);
  }
  {
    Case c{"keyed_shuffle", 2,
           {{4, Activation::kTanh}, {1, Activation::kIdentity}},
           OptKind::kSgd, 0.05, Opts(5, 32, 0.2, LossKind::kMse)};
    c.options.keyed_shuffle = true;
    add(c);
  }
  {
    Case c{"no_shuffle_single_row_batches", 1, lr1, OptKind::kSgd, 0.01,
           Opts(3, 1, 0.0, LossKind::kMse)};
    c.options.shuffle = false;
    c.rows = 9;
    add(c);
  }
  {
    Case c{"batch_larger_than_data", 2, lr1, OptKind::kAdam, 0.1,
           Opts(4, 64, 0.2, LossKind::kHuber)};
    c.rows = 33;
    add(c);
  }
  // Non-finite and signed-zero inputs: every path must propagate them the
  // same way (0 * NaN is NaN, never skipped).
  for (LossKind loss : {LossKind::kMse, LossKind::kMae, LossKind::kHuber}) {
    Case lr{std::string("special_lr_") + LossName(loss), 2, lr1, OptKind::kSgd,
            0.03, Opts(3, 32, 0.2, loss)};
    lr.special_values = true;
    add(lr);
    Case nn{std::string("special_nn_zero_init_") + LossName(loss), 3,
            {{6, Activation::kRelu}, {1, Activation::kIdentity}},
            OptKind::kAdam, 0.01, Opts(3, 16, 0.2, loss)};
    nn.special_values = true;
    nn.zero_init = true;
    add(nn);
  }
  {
    Case c{"special_clip_sigmoid_zero_init", 2,
           {{3, Activation::kSigmoid}, {1, Activation::kIdentity}},
           OptKind::kMomentum, 0.05, Opts(3, 8, 0.0, LossKind::kMse)};
    c.special_values = true;
    c.zero_init = true;
    c.options.clip_norm = 1.0;
    c.options.weight_decay = 0.01;
    add(c);
  }
  return cases;
}

TEST(TrainStepEquivalenceTest, FitMatchesOracleBitwise) {
  for (const Case& c : AllCases()) {
    for (uint64_t seed : {1u, 2u, 7u, 2023u}) ExpectSameFit(c, seed);
  }
}

TEST(TrainStepEquivalenceTest, SpecialValuesReachTheParameters) {
  // Guard the guard: the special-value cases must actually drive NaN into
  // the trained parameters, or they would not test propagation at all.
  for (const Case& c : AllCases()) {
    if (!c.special_values) continue;
    Matrix x, y;
    MakeData(c, 1, &x, &y);
    SequentialModel model = BuildCaseModel(c, 1);
    TrainOptions opts = c.options;
    opts.seed = 1;
    Trainer trainer(MakeCaseOptimizer(c.opt, c.lr), opts);
    ASSERT_TRUE(trainer.Fit(&model, x, y).ok());
    bool any_nan = false;
    for (double v : model.GetParameters()) any_nan |= std::isnan(v);
    EXPECT_TRUE(any_nan) << c.name;
  }
}

TEST(TrainStepEquivalenceTest, TrainBatchMatchesOracleStepByStep) {
  // Single steps on fixed batches, including a shape change mid-stream
  // (the last short batch of an epoch, then a full one again).
  Case c{"nn", 4,
         {{8, Activation::kRelu}, {1, Activation::kIdentity}},
         OptKind::kAdam, 0.01, Opts(1, 32, 0.0, LossKind::kMse)};
  Matrix x, y;
  c.rows = 32;
  MakeData(c, 5, &x, &y);
  SequentialModel model = BuildCaseModel(c, 5);
  std::vector<OracleLayer> oracle = ToOracle(model);
  Trainer trainer(MakeCaseOptimizer(c.opt, c.lr), c.options);
  OracleOptimizer oracle_opt(c.opt, c.lr);
  for (size_t rows : {32u, 32u, 11u, 32u, 1u, 32u}) {
    std::vector<size_t> idx(rows);
    for (size_t i = 0; i < rows; ++i) idx[i] = (i * 5) % 32;
    const Matrix xb = OracleSelectRows(x, idx);
    const Matrix yb = OracleSelectRows(y, idx);
    Result<double> got = trainer.TrainBatch(&model, xb, yb);
    ASSERT_TRUE(got.ok());
    const double want =
        OracleTrainBatch(&oracle, &oracle_opt, c.options, xb, yb);
    EXPECT_TRUE(BitsEqual({*got}, {want})) << rows << " rows";
    EXPECT_TRUE(BitsEqual(model.GetParameters(), OracleParameters(oracle)))
        << rows << " rows";
  }
}

TEST(TrainStepEquivalenceTest, KernelsMatchOracleOnSpecialValues) {
  // The width-1 kernel paths against the general loops, on narrow shapes
  // whose entries are often 0, -0.0, NaN or +-Inf: 0 * NaN and 0 * Inf
  // must come out NaN (never skipped), and -0.0 must keep its sign.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {0.0, -0.0, nan, inf, -inf, 1.5};
  Rng rng(11);
  auto fill = [&](Matrix* m) {
    for (double& v : m->data()) {
      v = rng.Bernoulli(0.3) ? specials[rng.UniformInt(specials.size())]
                             : rng.Uniform(-2.0, 2.0);
    }
  };
  for (int trial = 0; trial < 400; ++trial) {
    const size_t m = 1 + rng.UniformInt(40);
    const size_t k = 1 + rng.UniformInt(trial % 2 == 0 ? 1 : 6);
    const size_t n = 1 + rng.UniformInt(trial % 3 == 0 ? 3 : 1);
    Matrix x(m, k), w(k, n), dz(m, n);
    fill(&x);
    fill(&w);
    fill(&dz);
    std::vector<double> bias(n);
    for (double& v : bias) v = rng.Bernoulli(0.2) ? nan : rng.Uniform();
    SCOPED_TRACE(::testing::Message() << m << "x" << k << " * " << k << "x"
                                      << n << " trial " << trial);

    Matrix fwd;
    ASSERT_TRUE(x.MatMulAddBiasInto(w, bias, &fwd).ok());
    EXPECT_TRUE(BitsEqual(fwd.data(), OracleMatMulAddBias(x, w, bias).data()));
    Matrix dw;
    ASSERT_TRUE(x.MatMulTransposedAInto(dz, &dw).ok());
    EXPECT_TRUE(BitsEqual(dw.data(), OracleMatMulTransposedA(x, dz).data()));
    std::vector<double> db;
    dz.ColSumsInto(&db);
    EXPECT_TRUE(BitsEqual(db, OracleColSums(dz)));
    std::vector<size_t> idx(1 + rng.UniformInt(50));
    for (size_t& i : idx) i = rng.UniformInt(m);
    Matrix picked;
    ASSERT_TRUE(x.SelectRowsInto(idx, &picked).ok());
    EXPECT_TRUE(BitsEqual(picked.data(), OracleSelectRows(x, idx).data()));
  }
  // NaN-ness is what the comparison keeps; pin one case of each by hand.
  const Matrix zero{{0.0}};
  const Matrix zero_one{{0.0, 1.0}};
  const Matrix zero_one_col{{0.0}, {1.0}};
  const Matrix inf_w{{inf}};
  const Matrix nan_w{{nan}, {2.0}};
  const Matrix nan_dz{{nan}, {1.0}};
  Matrix out;
  ASSERT_TRUE(zero.MatMulAddBiasInto(inf_w, {0.0}, &out).ok());
  EXPECT_TRUE(std::isnan(out(0, 0)));
  ASSERT_TRUE(zero_one.MatMulAddBiasInto(nan_w, {0.0}, &out).ok());
  EXPECT_TRUE(std::isnan(out(0, 0)));
  ASSERT_TRUE(zero_one_col.MatMulTransposedAInto(nan_dz, &out).ok());
  EXPECT_TRUE(std::isnan(out(0, 0)));
}

// ---------------------------------------------------------------------------
// Allocation pins.
// ---------------------------------------------------------------------------

/// Allocations made by `calls` TrainBatch calls after a warm-up that lets
/// every buffer reach the batch shapes.
size_t SteadyStateAllocations(const Case& c, size_t calls) {
  Matrix x, y;
  MakeData(c, 3, &x, &y);
  SequentialModel model = BuildCaseModel(c, 3);
  Trainer trainer(MakeCaseOptimizer(c.opt, c.lr), c.options);
  std::vector<size_t> full(32), tail(x.rows() - 32);
  for (size_t i = 0; i < full.size(); ++i) full[i] = i;
  for (size_t i = 0; i < tail.size(); ++i) tail[i] = 32 + i;
  Matrix xb, yb, xt, yt;
  EXPECT_TRUE(x.SelectRowsInto(full, &xb).ok());
  EXPECT_TRUE(y.SelectRowsInto(full, &yb).ok());
  EXPECT_TRUE(x.SelectRowsInto(tail, &xt).ok());
  EXPECT_TRUE(y.SelectRowsInto(tail, &yt).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(trainer.TrainBatch(&model, xb, yb).ok());
    EXPECT_TRUE(trainer.TrainBatch(&model, xt, yt).ok());
  }
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t i = 0; i < calls; ++i) {
    // A full batch and the short tail batch, as an epoch alternates them.
    const bool tail_batch = i % 4 == 3;
    Result<double> loss = tail_batch ? trainer.TrainBatch(&model, xt, yt)
                                     : trainer.TrainBatch(&model, xb, yb);
    if (!loss.ok()) return std::numeric_limits<size_t>::max();
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(TrainStepAllocationTest, CounterSeesAllocations) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  auto v = std::make_unique<std::vector<double>>(100);
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(v->size(), 100u);
}

TEST(TrainStepAllocationTest, SteadyStateTrainBatchNeverAllocates) {
  const std::vector<LayerSpec> lr1 = {{1, Activation::kIdentity}};
  const std::vector<LayerSpec> mlp = {{64, Activation::kRelu},
                                      {1, Activation::kIdentity}};
  std::vector<Case> cases = {
      {"lr_sgd", 1, lr1, OptKind::kSgd, 0.03,
       Opts(1, 32, 0.0, LossKind::kMse)},
      {"lr_momentum_mae", 3, lr1, OptKind::kMomentum, 0.03,
       Opts(1, 32, 0.0, LossKind::kMae)},
      {"mlp_adam", 13, mlp, OptKind::kAdam, 0.001,
       Opts(1, 32, 0.0, LossKind::kMse)},
      {"deep_huber", 5,
       {{7, Activation::kTanh}, {4, Activation::kSigmoid},
        {2, Activation::kIdentity}},
       OptKind::kSgd, 0.01, Opts(1, 32, 0.0, LossKind::kHuber)},
  };
  Case regularized = cases[2];
  regularized.name = "mlp_decay_clip";
  regularized.options.weight_decay = 0.01;
  regularized.options.clip_norm = 0.5;
  cases.push_back(regularized);
  for (Case& c : cases) {
    c.rows = 45;
    EXPECT_EQ(SteadyStateAllocations(c, 200), 0u) << c.name;
  }
}

TEST(TrainStepAllocationTest, FitAllocationsDoNotGrowWithEpochs) {
  // Per-fit set-up allocates (index vectors, the validation slice), but the
  // epoch loop — batches and the validation pass — must not.
  Case c{"mlp", 3,
         {{16, Activation::kRelu}, {1, Activation::kIdentity}},
         OptKind::kAdam, 0.01, Opts(1, 32, 0.2, LossKind::kMse)};
  c.rows = 90;
  Matrix x, y;
  MakeData(c, 4, &x, &y);
  auto fit_allocations = [&](size_t epochs) {
    SequentialModel model = BuildCaseModel(c, 4);
    TrainOptions opts = c.options;
    opts.epochs = epochs;
    Trainer trainer(MakeCaseOptimizer(c.opt, c.lr), opts);
    EXPECT_TRUE(trainer.Fit(&model, x, y).ok());  // Warm the buffers.
    const size_t before = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(trainer.Fit(&model, x, y).ok());
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  EXPECT_EQ(fit_allocations(2), fit_allocations(40));
}

}  // namespace
}  // namespace qens::ml
