// The local-training fan-out contract. The Federation facade trains a
// round's jobs concurrently (the caller plus max_parallel_nodes - 1 pool
// workers) whenever two or more jobs train. Every outcome must be
// bit-identical to the max_parallel_nodes = 1 oracle, which always trains
// inline: at every participant count, in both RNG modes, and under every
// layer that touches a round (stragglers with a deadline cut, label-flip
// Byzantine attackers, a dynamic fleet, the q8 wire codec, several FedAvg
// rounds). Counters pin which path ran: a round with one training job
// trains inline, and QueryServer sessions never create a pool.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qens/common/rng.h"
#include "qens/common/thread_pool.h"
#include "qens/fl/federation.h"
#include "qens/fl/query_server.h"
#include "qens/obs/metrics.h"

namespace qens::fl {
namespace {

data::Dataset MakeNodeData(double offset, double slope, uint64_t seed,
                           size_t n) {
  Rng rng(seed);
  Matrix x(n, 1), y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = offset + rng.Uniform(0, 10);
    y(i, 0) = slope * x(i, 0) + rng.Gaussian(0, 0.2);
  }
  return data::Dataset::Create(x, y).value();
}

/// Six nodes of `rows` rows each over overlapping ranges.
std::vector<data::Dataset> MakeNodes(size_t rows) {
  std::vector<data::Dataset> nodes;
  for (size_t i = 0; i < 6; ++i) {
    nodes.push_back(MakeNodeData(static_cast<double>(i % 3), 2.0, i + 1, rows));
  }
  return nodes;
}

/// Four selected nodes of 400 rows (320 train rows) at 20 epochs per
/// cluster.
FederationOptions BaseOptions(bool splittable) {
  FederationOptions options;
  options.environment.kmeans.k = 3;
  options.ranking.epsilon = 0.1;
  options.query_driven.top_l = 4;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.hyper.epochs = 15;
  options.epochs_per_cluster = 20;
  options.seed = 77;
  options.splittable_rng = splittable;
  return options;
}

query::RangeQuery QueryOver(double lo, double hi, uint64_t id) {
  query::RangeQuery q;
  q.id = id;
  q.region = query::HyperRectangle::FromFlatBounds({lo, hi}).value();
  return q;
}

const std::vector<query::RangeQuery>& Queries() {
  static const std::vector<query::RangeQuery> queries = {
      QueryOver(0, 12, 1), QueryOver(1, 9, 2), QueryOver(0, 12, 3)};
  return queries;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(Bits(a[i]), Bits(b[i]));
}

void ExpectIdentical(const QueryOutcome& a, const QueryOutcome& b) {
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.selected_nodes, b.selected_nodes);
  EXPECT_EQ(a.dropped_nodes, b.dropped_nodes);
  EXPECT_EQ(a.round_survivors, b.round_survivors);
  EXPECT_EQ(a.failed_nodes, b.failed_nodes);
  EXPECT_EQ(a.deadline_missed_nodes, b.deadline_missed_nodes);
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.send_retries, b.send_retries);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.samples_selected, b.samples_selected);
  EXPECT_EQ(a.rejected_nodes, b.rejected_nodes);
  EXPECT_EQ(a.quarantined_nodes, b.quarantined_nodes);
  EXPECT_EQ(a.rejected_updates, b.rejected_updates);
  EXPECT_EQ(a.quarantined_skips, b.quarantined_skips);
  EXPECT_EQ(a.nodes_joined, b.nodes_joined);
  EXPECT_EQ(a.nodes_left, b.nodes_left);
  EXPECT_EQ(a.fleet_refreshes, b.fleet_refreshes);
  EXPECT_EQ(a.fleet_epoch, b.fleet_epoch);
  EXPECT_EQ(a.test_rows, b.test_rows);
  EXPECT_EQ(Bits(a.loss_model_avg), Bits(b.loss_model_avg));
  EXPECT_EQ(Bits(a.loss_weighted), Bits(b.loss_weighted));
  EXPECT_EQ(Bits(a.loss_fedavg), Bits(b.loss_fedavg));
  EXPECT_EQ(a.has_loss_robust, b.has_loss_robust);
  EXPECT_EQ(Bits(a.loss_robust), Bits(b.loss_robust));
  EXPECT_EQ(Bits(a.sim_time_total), Bits(b.sim_time_total));
  EXPECT_EQ(Bits(a.sim_time_parallel), Bits(b.sim_time_parallel));
  EXPECT_EQ(Bits(a.sim_time_comm), Bits(b.sim_time_comm));
  ExpectSameBits(a.survivor_weights, b.survivor_weights);

  ASSERT_EQ(a.round_records.size(), b.round_records.size());
  for (size_t r = 0; r < a.round_records.size(); ++r) {
    const obs::RoundRecord& x = a.round_records[r];
    const obs::RoundRecord& y = b.round_records[r];
    EXPECT_EQ(x.engaged, y.engaged);
    EXPECT_EQ(x.survivors, y.survivors);
    EXPECT_EQ(x.rejected, y.rejected);
    EXPECT_EQ(x.quarantined, y.quarantined);
    EXPECT_EQ(x.quorum_met, y.quorum_met);
    EXPECT_EQ(Bits(x.parallel_seconds), Bits(y.parallel_seconds));
    EXPECT_EQ(Bits(x.total_train_seconds), Bits(y.total_train_seconds));
    EXPECT_EQ(Bits(x.comm_seconds), Bits(y.comm_seconds));
    EXPECT_EQ(x.wire_down_bytes, y.wire_down_bytes);
    EXPECT_EQ(x.wire_up_bytes, y.wire_up_bytes);
    ASSERT_EQ(x.nodes.size(), y.nodes.size());
    for (size_t i = 0; i < x.nodes.size(); ++i) {
      EXPECT_EQ(x.nodes[i].node_id, y.nodes[i].node_id);
      EXPECT_EQ(x.nodes[i].fate, y.nodes[i].fate);
      EXPECT_EQ(Bits(x.nodes[i].train_seconds), Bits(y.nodes[i].train_seconds));
      EXPECT_EQ(Bits(x.nodes[i].comm_seconds), Bits(y.nodes[i].comm_seconds));
      EXPECT_EQ(x.nodes[i].samples_used, y.nodes[i].samples_used);
      EXPECT_EQ(x.nodes[i].straggler, y.nodes[i].straggler);
    }
  }
}

uint64_t Counter(const std::string& name) {
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get()->Snapshot();
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Enables the obs registry (round records + counters) for one test.
class FanOutTest : public testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::Enable(); }
  void TearDown() override { obs::MetricsRegistry::Disable(); }
};

/// One run: the outcomes of Queries() and the network bytes they sent.
struct FedRun {
  std::vector<QueryOutcome> outcomes;
  size_t network_bytes = 0;
};

FedRun RunFederation(const FederationOptions& options, size_t rounds,
                     size_t rows = 400) {
  FedRun run;
  auto fed = Federation::Create(MakeNodes(rows), options);
  EXPECT_TRUE(fed.ok()) << fed.status().ToString();
  if (!fed.ok()) return run;
  for (const query::RangeQuery& q : Queries()) {
    auto outcome = fed->RunQueryMultiRound(
        q, selection::PolicyKind::kQueryDriven, /*data_selectivity=*/true,
        rounds);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return run;
    run.outcomes.push_back(*outcome);
  }
  run.network_bytes = fed->environment().network().total_bytes();
  return run;
}

/// A layer that touches the round, applied on top of BaseOptions.
struct Scenario {
  std::string name;
  size_t rounds;
  std::function<void(FederationOptions*)> apply;
};

std::vector<Scenario> Scenarios(double deadline_s) {
  return {
      {"three_rounds", 3, [](FederationOptions*) {}},
      {"stragglers_deadline_cut", 2,
       [deadline_s](FederationOptions* o) {
         FaultToleranceOptions& ft = o->fault_tolerance;
         ft.enabled = true;
         ft.faults.seed = 29;
         ft.faults.straggler_rate = 0.5;
         ft.faults.straggler_slowdown_min = 8.0;
         ft.faults.straggler_slowdown_max = 8.0;
         ft.faults.dropout_rate = 0.1;
         ft.faults.message_loss_rate = 0.2;
         ft.min_quorum_frac = 0.25;
         ft.round_deadline_s = deadline_s;
       }},
      {"label_flip_byzantine", 2,
       [](FederationOptions* o) {
         FaultToleranceOptions& ft = o->fault_tolerance;
         ft.enabled = true;
         ft.min_quorum_frac = 0.25;
         ft.faults.seed = 17;
         ft.faults.corruption_rate = 0.5;
         ft.faults.corruption_kinds = {
             sim::CorruptionKind::kLabelFlipPoisoning};
         ByzantineOptions& byz = o->byzantine;
         byz.enabled = true;
         byz.aggregator = AggregationKind::kCoordinateMedian;
         byz.quarantine_rounds = 1;
       }},
      {"dynamic_fleet", 2,
       [](FederationOptions* o) {
         DynamicFleetOptions& dyn = o->dynamic;
         dyn.enabled = true;
         dyn.churn.seed = 11;
         dyn.churn.churn_rate = 0.5;
         dyn.churn.churn_horizon = 32;
         dyn.churn.min_up_rounds = 1;
         dyn.churn.max_up_rounds = 3;
         dyn.churn.min_down_rounds = 1;
         dyn.churn.max_down_rounds = 2;
         dyn.drift.seed = 23;
         dyn.drift.rate = 0.4;
         dyn.drift.feature_shift = 0.05;
         dyn.refresh = true;
         dyn.refresh_threshold = 0.001;
       }},
      {"q8_wire", 2,
       [](FederationOptions* o) {
         o->wire.enabled = true;
         o->wire.codec = ml::WireCodecKind::kQuant8;
       }},
  };
}

/// A deadline that cuts 8x-slowed nodes but admits normal ones: twice the
/// fault-free critical path of the first query.
double CalibratedDeadline(bool splittable) {
  FederationOptions options = BaseOptions(splittable);
  options.fault_tolerance.enabled = true;
  auto fed = Federation::Create(MakeNodes(400), options);
  EXPECT_TRUE(fed.ok());
  auto outcome = fed->RunQueryDriven(Queries()[0]);
  EXPECT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->skipped);
  return 2.0 * outcome->sim_time_parallel;
}

TEST_F(FanOutTest, BitIdenticalToInlineOracleAtEveryParticipantCount) {
  for (const bool splittable : {false, true}) {
    const double deadline_s = CalibratedDeadline(splittable);
    for (const Scenario& scenario : Scenarios(deadline_s)) {
      FederationOptions options = BaseOptions(splittable);
      scenario.apply(&options);
      options.max_parallel_nodes = 1;
      obs::MetricsRegistry::Get()->Reset();
      const FedRun oracle = RunFederation(options, scenario.rounds);
      ASSERT_EQ(oracle.outcomes.size(), Queries().size());
      ASSERT_FALSE(oracle.outcomes[0].skipped);
      EXPECT_EQ(Counter("federation.train.fanout_rounds"), 0u);
      EXPECT_EQ(Counter("federation.train.pools_created"), 0u);

      for (const size_t participants :
           {size_t{0}, size_t{2}, size_t{3}, size_t{4}}) {
        SCOPED_TRACE(testing::Message()
                     << "splittable=" << splittable << " scenario="
                     << scenario.name << " max_parallel_nodes="
                     << participants);
        options.max_parallel_nodes = participants;
        obs::MetricsRegistry::Get()->Reset();
        const FedRun run = RunFederation(options, scenario.rounds);
        ASSERT_EQ(run.outcomes.size(), oracle.outcomes.size());
        for (size_t i = 0; i < run.outcomes.size(); ++i) {
          ExpectIdentical(oracle.outcomes[i], run.outcomes[i]);
        }
        EXPECT_EQ(run.network_bytes, oracle.network_bytes);
        // The comparison is not vacuous: these rounds really fanned out
        // (0 = hardware threads, which may be 1 on a one-core host).
        if (participants > 1 ||
            common::ThreadPool::DefaultThreadCount() > 1) {
          EXPECT_GT(Counter("federation.train.fanout_rounds"), 0u);
          EXPECT_GE(Counter("federation.train.pools_created"), 1u);
        }
      }
    }
  }
}

TEST_F(FanOutTest, DeadlineCapsTheCriticalPathOnBothPaths) {
  const double deadline_s = CalibratedDeadline(/*splittable=*/false);
  const Scenario scenario = Scenarios(deadline_s)[1];
  ASSERT_EQ(scenario.name, "stragglers_deadline_cut");
  FederationOptions options = BaseOptions(false);
  scenario.apply(&options);
  options.max_parallel_nodes = 4;
  const FedRun run = RunFederation(options, 3);
  size_t cut = 0;
  for (const QueryOutcome& o : run.outcomes) {
    cut += o.deadline_missed_nodes.size();
    if (o.skipped) continue;
    for (const obs::RoundRecord& record : o.round_records) {
      EXPECT_LE(record.parallel_seconds, deadline_s + 1e-12);
    }
    EXPECT_LE(o.sim_time_parallel, 3 * deadline_s + 1e-12);
  }
  EXPECT_GT(cut, 0u);  // The deadline really cut stragglers.
}

TEST_F(FanOutTest, SmallRoundsFanOutToo) {
  // 40-row nodes at 2 epochs per cluster: a round trains at most
  // 4 x 32 x 2 = 256 sample-epochs, and still fans out bit-identically.
  FederationOptions options = BaseOptions(false);
  options.epochs_per_cluster = 2;
  options.max_parallel_nodes = 1;
  const FedRun oracle = RunFederation(options, 2, /*rows=*/40);
  options.max_parallel_nodes = 4;
  obs::MetricsRegistry::Get()->Reset();
  const FedRun run = RunFederation(options, 2, /*rows=*/40);
  ASSERT_EQ(run.outcomes.size(), oracle.outcomes.size());
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    ExpectIdentical(oracle.outcomes[i], run.outcomes[i]);
  }
  EXPECT_GT(Counter("federation.train.fanout_rounds"), 0u);
  EXPECT_EQ(Counter("federation.train.pools_created"), 1u);
}

TEST_F(FanOutTest, SmallRoundsAfterThePoolGrewStayIdentical) {
  // An All-nodes query grows the pool to three workers; the two-node
  // query-driven rounds after it reuse that pool (no new one is built),
  // waking only the one worker they can use, and match the oracle.
  FederationOptions options = BaseOptions(false);
  options.query_driven.top_l = 2;
  options.max_parallel_nodes = 1;
  auto oracle = Federation::Create(MakeNodes(400), options);
  options.max_parallel_nodes = 4;
  auto fanned = Federation::Create(MakeNodes(400), options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(fanned.ok());
  obs::MetricsRegistry::Get()->Reset();
  auto grow_a = oracle->RunQuery(Queries()[0], selection::PolicyKind::kAllNodes,
                                 false);
  auto grow_b = fanned->RunQuery(Queries()[0], selection::PolicyKind::kAllNodes,
                                 false);
  ASSERT_TRUE(grow_a.ok());
  ASSERT_TRUE(grow_b.ok());
  ExpectIdentical(*grow_a, *grow_b);
  EXPECT_EQ(Counter("federation.train.pools_created"), 1u);
  for (const query::RangeQuery& q : Queries()) {
    auto a = oracle->RunQueryMultiRound(q, selection::PolicyKind::kQueryDriven,
                                        true, 2);
    auto b = fanned->RunQueryMultiRound(q, selection::PolicyKind::kQueryDriven,
                                        true, 2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->selected_nodes.size(), 2u);
    ExpectIdentical(*a, *b);
  }
  EXPECT_EQ(Counter("federation.train.pools_created"), 1u);
  EXPECT_EQ(Counter("federation.train.fanout_rounds"),
            1 + 2 * Queries().size());
}

TEST_F(FanOutTest, ASingleTrainingJobTrainsInline) {
  FederationOptions options = BaseOptions(false);
  options.query_driven.top_l = 1;
  options.max_parallel_nodes = 4;
  const FedRun run = RunFederation(options, 2);
  ASSERT_FALSE(run.outcomes.empty());
  EXPECT_GT(Counter("federation.train.inline_rounds"), 0u);
  EXPECT_EQ(Counter("federation.train.fanout_rounds"), 0u);
  EXPECT_EQ(Counter("federation.train.pools_created"), 0u);
}

TEST_F(FanOutTest, FullDataJobsFanOutToo) {
  // Without data selectivity every node trains on all its rows for
  // hyper.epochs; the All-nodes policy engages all six nodes.
  FederationOptions options = BaseOptions(false);
  options.max_parallel_nodes = 1;
  auto oracle = Federation::Create(MakeNodes(400), options);
  options.max_parallel_nodes = 3;
  auto fanned = Federation::Create(MakeNodes(400), options);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(fanned.ok());
  obs::MetricsRegistry::Get()->Reset();
  for (const query::RangeQuery& q : Queries()) {
    auto a = oracle->RunQuery(q, selection::PolicyKind::kAllNodes, false);
    auto b = fanned->RunQuery(q, selection::PolicyKind::kAllNodes, false);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->selected_nodes.size(), 6u);
    ExpectIdentical(*a, *b);
  }
  EXPECT_EQ(Counter("federation.train.fanout_rounds"), Queries().size());
  EXPECT_EQ(Counter("federation.train.pools_created"), 1u);
}

TEST_F(FanOutTest, QueryServerSessionsNeverCreateAPool) {
  // The same rounds, run as QueryServer sessions at any worker count: the
  // server is the parallel layer, sessions train inline and record no
  // fan-out decision.
  auto fleet = Fleet::Create(MakeNodes(400), BaseOptions(false));
  ASSERT_TRUE(fleet.ok());
  std::vector<SessionSpec> specs(3);
  for (SessionSpec& spec : specs) {
    spec.queries = Queries();
    spec.rounds = 2;
  }
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "num_workers=" << workers);
    ServingOptions serving;
    serving.num_workers = workers;
    auto server = QueryServer::Create(*fleet, serving);
    ASSERT_TRUE(server.ok());
    obs::MetricsRegistry::Get()->Reset();
    auto results = server->Serve(specs);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_GT(Counter("federation.rounds"), 0u);
    EXPECT_EQ(Counter("federation.train.pools_created"), 0u);
    EXPECT_EQ(Counter("federation.train.fanout_rounds"), 0u);
    EXPECT_EQ(Counter("federation.train.inline_rounds"), 0u);
  }
}

}  // namespace
}  // namespace qens::fl
