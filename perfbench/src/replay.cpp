#include "replay.h"

#include <algorithm>
#include <utility>

#include "qens/common/rng.h"
#include "qens/common/split_rng.h"
#include "qens/fl/aggregation.h"
#include "qens/fl/participant.h"
#include "qens/fl/seed_derivation.h"
#include "qens/ml/loss.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_factory.h"
#include "qens/ml/model_io.h"
#include "report.h"

namespace qens::perfbench {

Result<ReplaySample> ReplayQuery(const fl::Fleet& fleet,
                                 const fl::Leader& leader,
                                 uint64_t session_seed,
                                 const query::RangeQuery& query) {
  const fl::FederationOptions& options = fleet.options;
  const sim::EdgeEnvironment& environment = fleet.environment;
  ReplaySample sample;
  const Clock::time_point query_start = Clock::now();

  QENS_ASSIGN_OR_RETURN(query::RangeQuery internal,
                        fleet.InternalQuery(query));

  Clock::time_point t = Clock::now();
  Result<data::Dataset> test = fleet.QueryRegionTestData(query);
  sample.eval_s = SecondsSince(t);
  if (!test.ok()) {
    sample.skipped = true;
    sample.total_s = SecondsSince(query_start);
    return sample;
  }
  sample.test_rows = test->NumSamples();

  t = Clock::now();
  QENS_ASSIGN_OR_RETURN(fl::SelectionDecision decision,
                        leader.Decide(internal));
  sample.decide_s = SecondsSince(t);
  const std::vector<size_t> chosen = decision.SelectedNodeIds();
  if (chosen.empty()) {
    sample.skipped = true;
    sample.total_s = SecondsSince(query_start);
    return sample;
  }

  t = Clock::now();
  QENS_ASSIGN_OR_RETURN(std::vector<selection::NodeRank> all_ranks,
                        leader.Rank(internal));
  sample.rank_s = SecondsSince(t);

  t = Clock::now();
  Rng init_rng(fl::ModelInitSeed(session_seed, query.id,
                                 options.strong_seed_mix,
                                 options.splittable_rng));
  QENS_ASSIGN_OR_RETURN(
      ml::SequentialModel global,
      ml::BuildModel(options.hyper,
                     environment.node(0).local_data().NumFeatures(),
                     &init_rng));
  // RunQuery prices the broadcast before training; the size is part of
  // the assembly it does per query.
  const ml::WireOptions& wire = options.wire;
  const size_t model_bytes =
      wire.enabled ? ml::EncodedModelBytes(global, ml::DownlinkKind(wire),
                                           wire.top_k_fraction)
                   : ml::SerializedModelBytes(global);
  (void)model_bytes;
  fl::LocalTrainOptions local_options;
  local_options.hyper = options.hyper;
  local_options.epochs_per_cluster = options.epochs_per_cluster;
  if (options.splittable_rng) {
    local_options.seed = SplitRng(session_seed)
                             .Split(RngPurpose::kLocalTraining)
                             .Split(query.id)
                             .key();
    local_options.keyed_streams = true;
  } else {
    local_options.seed = session_seed + query.id;
  }
  std::vector<fl::TrainJob> jobs;
  for (size_t node_id : chosen) {
    auto rank = std::find_if(all_ranks.begin(), all_ranks.end(),
                             [node_id](const selection::NodeRank& r) {
                               return r.node_id == node_id;
                             });
    if (rank == all_ranks.end() || rank->supporting_clusters == 0) continue;
    jobs.push_back(fl::TrainJob{node_id, rank->ranking, true,
                                rank->SupportingClusterIds()});
    sample.supporting_clusters += rank->supporting_clusters;
  }
  sample.assemble_s = SecondsSince(t);
  if (jobs.empty()) {
    sample.skipped = true;
    sample.total_s = SecondsSince(query_start);
    return sample;
  }

  std::vector<ml::SequentialModel> local_models;
  std::vector<double> weights;
  for (const fl::TrainJob& job : jobs) {
    t = Clock::now();
    QENS_ASSIGN_OR_RETURN(
        fl::LocalTrainResult result,
        fl::TrainOnSupportingClusters(environment.node(job.node_id), global,
                                      job.supporting, local_options,
                                      environment.cost_model()));
    sample.train_s += SecondsSince(t);
    sample.samples_seen += result.samples_seen;
    local_models.push_back(std::move(result.model));
    weights.push_back(job.rank_weight);
  }
  sample.selected_nodes = chosen;

  t = Clock::now();
  double weight_sum = 0.0;
  for (double w : weights) weight_sum += w;
  if (weight_sum <= 0.0) std::fill(weights.begin(), weights.end(), 1.0);
  QENS_ASSIGN_OR_RETURN(
      fl::EnsembleModel ensemble,
      fl::EnsembleModel::Create(std::move(local_models), weights));
  const Matrix& x = test->features();
  const Matrix& y = test->targets();
  const std::pair<fl::AggregationKind, double*> answers[] = {
      {fl::AggregationKind::kModelAveraging, &sample.loss_model_avg},
      {fl::AggregationKind::kWeightedAveraging, &sample.loss_weighted},
      {fl::AggregationKind::kFedAvgParameters, &sample.loss_fedavg},
  };
  for (const auto& [kind, loss] : answers) {
    QENS_ASSIGN_OR_RETURN(Matrix pred, ensemble.Predict(x, kind));
    QENS_ASSIGN_OR_RETURN(*loss, ml::ComputeLoss(ml::LossKind::kMse, pred, y));
    *loss = fleet.DenormalizeMse(*loss);
  }
  sample.aggregate_s = SecondsSince(t);
  sample.total_s = SecondsSince(query_start);
  return sample;
}

}  // namespace qens::perfbench
