#include "qens/ml/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/common/string_util.h"
#include "qens/obs/metrics.h"
#include "qens/obs/trace.h"

namespace qens::ml {

Trainer::Trainer(std::unique_ptr<Optimizer> optimizer, TrainOptions options)
    : optimizer_(std::move(optimizer)), options_(options) {
  assert(optimizer_ != nullptr);
}

Result<double> Trainer::TrainBatch(SequentialModel* model, const Matrix& x,
                                   const Matrix& y) {
  // Every buffer below is model- or trainer-owned and keeps its allocation
  // across batches: a steady-state step never touches the heap.
  QENS_ASSIGN_OR_RETURN(const Matrix& pred, model->Forward(x));
  QENS_ASSIGN_OR_RETURN(
      double loss, ComputeLossAndGrad(options_.loss, pred, y, &loss_grad_));
  QENS_RETURN_NOT_OK(model->Backward(loss_grad_));
  std::vector<DenseGradients>& grads = *model->mutable_gradients();

  // L2 weight decay on weights (not biases).
  if (options_.weight_decay > 0.0) {
    for (size_t li = 0; li < grads.size(); ++li) {
      QENS_RETURN_NOT_OK(
          grads[li].d_weights.Axpy(options_.weight_decay,
                                   model->layer(li).weights()));
    }
  }

  // Global gradient-norm clipping across all layers.
  if (options_.clip_norm > 0.0) {
    double norm_sq = 0.0;
    for (const auto& g : grads) {
      for (double v : g.d_weights.data()) norm_sq += v * v;
      for (double v : g.d_bias) norm_sq += v * v;
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > options_.clip_norm) {
      const double scale = options_.clip_norm / norm;
      for (auto& g : grads) {
        g.d_weights.Scale(scale);
        for (double& v : g.d_bias) v *= scale;
      }
    }
  }

  QENS_RETURN_NOT_OK(optimizer_->Step(model, grads));
  return loss;
}

Result<TrainReport> Trainer::Fit(SequentialModel* model, const Matrix& x,
                                 const Matrix& y) {
  std::vector<size_t> order(x.rows());
  std::iota(order.begin(), order.end(), size_t{0});
  return FitRows(model, x, y, std::move(order));
}

Result<TrainReport> Trainer::Fit(SequentialModel* model, const Matrix& x,
                                 const Matrix& y,
                                 std::span<const size_t> rows) {
  return FitRows(model, x, y, std::vector<size_t>(rows.begin(), rows.end()));
}

Result<TrainReport> Trainer::FitRows(SequentialModel* model, const Matrix& x,
                                     const Matrix& y,
                                     std::vector<size_t> order) {
  obs::TraceSpan span("trainer.fit");
  if (order.empty()) return Status::InvalidArgument("Fit: empty dataset");
  if (x.rows() != y.rows()) {
    return Status::InvalidArgument(StrFormat(
        "Fit: %zu feature rows vs %zu target rows", x.rows(), y.rows()));
  }
  if (model->input_features() != x.cols()) {
    return Status::InvalidArgument(
        StrFormat("Fit: model expects %zu features, data has %zu",
                  model->input_features(), x.cols()));
  }
  if (model->output_features() != y.cols()) {
    return Status::InvalidArgument(
        StrFormat("Fit: model outputs %zu values, targets have %zu",
                  model->output_features(), y.cols()));
  }
  if (std::ranges::any_of(order, [&](size_t r) { return r >= x.rows(); })) {
    return Status::OutOfRange(
        StrFormat("Fit: a row id is out of range (%zu rows)", x.rows()));
  }
  if (options_.validation_split < 0.0 || options_.validation_split >= 1.0) {
    return Status::InvalidArgument("Fit: validation_split outside [0,1)");
  }
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("Fit: batch_size must be > 0");
  }
  if (options_.epochs == 0) {
    return Status::InvalidArgument("Fit: epochs must be > 0");
  }

  Rng rng(options_.seed);
  const SplitRng stream(options_.seed);

  // Initial shuffle, then hold out the tail as the validation set
  // (Keras semantics: validation_split takes the last fraction).
  if (options_.shuffle) {
    if (options_.keyed_shuffle) {
      Rng init_rng = stream.Split(RngPurpose::kTrainOrderInit).ToRng();
      init_rng.Shuffle(&order);
    } else {
      rng.Shuffle(&order);
    }
  }

  const size_t n = order.size();
  size_t n_val = static_cast<size_t>(options_.validation_split *
                                     static_cast<double>(n));
  // Keep at least one training row.
  n_val = std::min(n_val, n - 1);
  const size_t n_train = n - n_val;

  std::vector<size_t> train_idx(order.begin(),
                                order.begin() + static_cast<ptrdiff_t>(n_train));
  std::vector<size_t> val_idx(order.begin() + static_cast<ptrdiff_t>(n_train),
                              order.end());

  QENS_ASSIGN_OR_RETURN(Matrix x_val, x.SelectRows(val_idx));
  QENS_ASSIGN_OR_RETURN(Matrix y_val, y.SelectRows(val_idx));

  TrainReport report;
  report.train_loss.reserve(options_.epochs);
  if (n_val > 0) report.val_loss.reserve(options_.epochs);
  double best_val = 0.0;
  size_t bad_epochs = 0;
  const double base_lr = optimizer_->learning_rate();

  // Batch scratch hoisted out of the epoch loop: the index buffer and the
  // (xb, yb) slices keep their allocations across every batch of every
  // epoch (batch shapes repeat, so SelectRowsInto never reallocates in
  // steady state). TrainBatch caches a view of xb, which stays alive here;
  // the validation pass caches one of x_val, which does too.
  std::vector<size_t> batch;
  batch.reserve(options_.batch_size);
  Matrix xb, yb;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    if (options_.lr_decay > 0.0) {
      optimizer_->set_learning_rate(
          base_lr / (1.0 + options_.lr_decay * static_cast<double>(epoch)));
    }
    if (options_.shuffle) {
      if (options_.keyed_shuffle) {
        // Pure function of (seed, epoch): replaying epoch e never depends
        // on how many draws earlier epochs consumed.
        Rng epoch_rng =
            stream.Split(RngPurpose::kMinibatchShuffle).Split(epoch).ToRng();
        epoch_rng.Shuffle(&train_idx);
      } else {
        rng.Shuffle(&train_idx);
      }
    }

    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < n_train; start += options_.batch_size) {
      const size_t end = std::min(start + options_.batch_size, n_train);
      batch.assign(train_idx.begin() + static_cast<ptrdiff_t>(start),
                   train_idx.begin() + static_cast<ptrdiff_t>(end));
      QENS_RETURN_NOT_OK(x.SelectRowsInto(batch, &xb));
      QENS_RETURN_NOT_OK(y.SelectRowsInto(batch, &yb));
      QENS_ASSIGN_OR_RETURN(double loss, TrainBatch(model, xb, yb));
      epoch_loss += loss;
      ++batches;
      report.samples_seen += batch.size();
    }
    report.train_loss.push_back(batches > 0 ? epoch_loss / batches : 0.0);
    ++report.epochs_run;

    if (n_val > 0) {
      // The training forward pass computes exactly what Predict does, into
      // the model's reused buffers instead of a fresh matrix per epoch.
      QENS_ASSIGN_OR_RETURN(const Matrix& pv, model->Forward(x_val));
      QENS_ASSIGN_OR_RETURN(double vl, ComputeLoss(options_.loss, pv, y_val));
      report.val_loss.push_back(vl);

      if (options_.early_stopping_patience > 0) {
        if (report.val_loss.size() == 1 || vl < best_val - options_.min_delta) {
          best_val = vl;
          bad_epochs = 0;
        } else {
          ++bad_epochs;
          if (bad_epochs >= options_.early_stopping_patience) {
            report.early_stopped = true;
            break;
          }
        }
      }
    }
  }
  // Restore the base learning rate so successive Fit calls (per-cluster
  // incremental training) all start from the configured rate.
  optimizer_->set_learning_rate(base_lr);
  obs::Count("trainer.fits");
  obs::Count("trainer.epochs", report.epochs_run);
  obs::Count("trainer.samples_seen", report.samples_seen);
  if (report.early_stopped) obs::Count("trainer.early_stops");
  return report;
}

}  // namespace qens::ml
