#ifndef QENS_PERFBENCH_REPLAY_H_
#define QENS_PERFBENCH_REPLAY_H_

/// \file replay.h
/// The traced replay of one query: the public calls
/// QuerySession::RunQuery makes for the paper protocol (query-driven
/// policy, data selectivity, one round, no fault / Byzantine / dynamic /
/// wire layer), made in the same order, each wrapped in a span taken here
/// in the benchmark. The library itself is not instrumented.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qens/common/status.h"
#include "qens/fl/leader.h"
#include "qens/fl/query_session.h"
#include "qens/query/range_query.h"

namespace qens::perfbench {

/// One replayed query: span durations (seconds), the work counts behind
/// them, and the answer, which must equal RunQuery's bit for bit.
struct ReplaySample {
  bool skipped = false;
  double eval_s = 0.0;       ///< Fleet::QueryRegionTestData.
  double decide_s = 0.0;     ///< Leader::Decide.
  double rank_s = 0.0;       ///< Leader::Rank (the selectivity pass).
  double assemble_s = 0.0;   ///< ml::BuildModel + train-job assembly.
  double train_s = 0.0;      ///< Sum of fl::TrainOnSupportingClusters.
  double aggregate_s = 0.0;  ///< EnsembleModel + Predicts + ComputeLoss.
  double total_s = 0.0;      ///< Whole replay, spans and gaps.
  size_t test_rows = 0;
  size_t samples_seen = 0;         ///< LocalTrainResult::samples_seen, summed.
  size_t supporting_clusters = 0;  ///< Over the trained nodes.
  std::vector<size_t> selected_nodes;
  double loss_model_avg = 0.0;
  double loss_weighted = 0.0;
  double loss_fedavg = 0.0;
};

/// Replay `query` (raw units) against `fleet` with `leader` (built over
/// the fleet's profiles) for a session seeded with `session_seed`.
Result<ReplaySample> ReplayQuery(const fl::Fleet& fleet,
                                 const fl::Leader& leader,
                                 uint64_t session_seed,
                                 const query::RangeQuery& query);

}  // namespace qens::perfbench

#endif  // QENS_PERFBENCH_REPLAY_H_
