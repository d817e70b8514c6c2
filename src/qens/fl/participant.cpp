#include "qens/fl/participant.h"

#include <algorithm>
#include <ranges>
#include <span>
#include <vector>

#include "qens/common/split_rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/string_util.h"

namespace qens::fl {
namespace {

/// Build a trainer for local fitting. Local fits disable the validation
/// split: the paper's per-cluster incremental passes are short and the
/// cluster may be small; validation is done leader-side on query-region
/// test data.
Result<std::unique_ptr<ml::Trainer>> LocalTrainer(
    const ml::HyperParams& hyper, size_t epochs,
    const LocalTrainOptions& options, const sim::EdgeNode& node) {
  ml::HyperParams hp = hyper;
  hp.epochs = epochs;
  hp.validation_split = 0.0;
  // Keyed mode derives the per-node stream from coordinates (collision-free
  // across nodes/queries); legacy mode keeps the historical additive seed.
  const uint64_t seed = options.keyed_streams
                            ? SplitRng(options.seed).Split(node.id()).key()
                            : options.seed + node.id();
  return ml::BuildTrainer(hp, seed, options.keyed_streams);
}

/// The targets a local fit over `rows` (a range of row ids) trains on: `y`
/// itself, or — for a label-poisoning attacker — its mirror over those
/// rows within their observed range, y' = lo + hi - y, which keeps the
/// poisoned labels in-distribution while inverting every trend the honest
/// fit would learn. The mirror is written into `mirrored`, sized to `y`
/// once and reused across a job's fits; rows outside `rows` are left as
/// they are, since the fit never reads them.
template <typename Rows>
const Matrix& FitTargets(const Matrix& y, const Rows& rows,
                         bool poison_labels, Matrix* mirrored) {
  if (!poison_labels) return y;
  if (mirrored->rows() != y.rows() || mirrored->cols() != y.cols()) {
    *mirrored = Matrix(y.rows(), y.cols());
  }
  if (rows.empty() || y.cols() == 0) return *mirrored;
  double lo = y(*rows.begin(), 0);
  double hi = lo;
  for (size_t r : rows) {
    for (size_t c = 0; c < y.cols(); ++c) {
      lo = std::min(lo, y(r, c));
      hi = std::max(hi, y(r, c));
    }
  }
  for (size_t r : rows) {
    for (size_t c = 0; c < y.cols(); ++c) {
      (*mirrored)(r, c) = lo + hi - y(r, c);
    }
  }
  return *mirrored;
}

}  // namespace

Result<LocalTrainResult> TrainOnSupportingClusters(
    const sim::EdgeNode& node, const ml::SequentialModel& global_model,
    const std::vector<size_t>& supporting_clusters,
    const LocalTrainOptions& options, const sim::CostModel& cost_model) {
  if (supporting_clusters.empty()) {
    return Status::InvalidArgument(
        StrFormat("node %zu: no supporting clusters to train on", node.id()));
  }
  if (options.epochs_per_cluster == 0) {
    return Status::InvalidArgument("epochs_per_cluster must be > 0");
  }

  Stopwatch watch;
  LocalTrainResult result;
  result.model = global_model.Clone();
  result.samples_total = node.NumSamples();

  QENS_ASSIGN_OR_RETURN(
      std::unique_ptr<ml::Trainer> trainer,
      LocalTrainer(options.hyper, options.epochs_per_cluster, options, node));

  // Incremental pass: one Fit per supporting cluster, in ranking order as
  // provided — the model carries its weights from cluster to cluster. Each
  // fit reads the cluster's rows of the node's data in place.
  const data::Dataset& local = node.local_data();
  Matrix mirrored;
  for (size_t cluster_id : supporting_clusters) {
    QENS_ASSIGN_OR_RETURN(const std::span<const size_t> rows,
                          node.ClusterRows(cluster_id));
    const Matrix& targets =
        FitTargets(local.targets(), rows, options.poison_labels, &mirrored);
    QENS_ASSIGN_OR_RETURN(
        ml::TrainReport report,
        trainer->Fit(&result.model, local.features(), targets, rows));
    result.samples_used += rows.size();
    result.samples_seen += report.samples_seen;
    result.cluster_final_loss.push_back(report.final_train_loss());
  }

  result.sim_train_seconds = cost_model.TrainingSeconds(
      result.samples_used, options.epochs_per_cluster, node.capacity());
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

Result<LocalTrainResult> TrainOnFullData(const sim::EdgeNode& node,
                                         const ml::SequentialModel& global_model,
                                         const LocalTrainOptions& options,
                                         const sim::CostModel& cost_model) {
  Stopwatch watch;
  LocalTrainResult result;
  result.model = global_model.Clone();
  result.samples_total = node.NumSamples();

  QENS_ASSIGN_OR_RETURN(
      std::unique_ptr<ml::Trainer> trainer,
      LocalTrainer(options.hyper, options.hyper.epochs, options, node));
  const data::Dataset& local = node.local_data();
  Matrix mirrored;
  const auto all_rows = std::views::iota(size_t{0}, local.NumSamples());
  const Matrix& targets =
      FitTargets(local.targets(), all_rows, options.poison_labels, &mirrored);
  QENS_ASSIGN_OR_RETURN(
      ml::TrainReport report,
      trainer->Fit(&result.model, local.features(), targets));
  result.samples_used = local.NumSamples();
  result.samples_seen = report.samples_seen;
  result.cluster_final_loss.push_back(report.final_train_loss());

  result.sim_train_seconds = cost_model.TrainingSeconds(
      result.samples_used, options.hyper.epochs, node.capacity());
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace qens::fl
