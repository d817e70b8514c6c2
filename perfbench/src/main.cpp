// qens_perf: runs one benchmark workload against the public qens API and
// prints one raw JSON record (samples, counters, output checks) on stdout.
// perfbench/run.py builds this binary, runs it in its own process per
// workload and turns the record into the benchmark's metrics.
//
//   qens_perf --workload paper_qd|fleet_scan|serve_mixed --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// workload with spans taken around the public calls of each layer. The
// inputs (station data, queries, request schedule) are generated here, the
// query stream from --seed; the library receives only those inputs.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qens/clustering/kmeans.h"
#include "qens/common/rng.h"
#include "qens/data/air_quality_generator.h"
#include "qens/fl/admission.h"
#include "qens/fl/federation.h"
#include "qens/fl/query_server.h"
#include "qens/ml/model_codec.h"
#include "qens/ml/model_factory.h"
#include "qens/obs/metrics.h"
#include "qens/query/workload_generator.h"
#include "qens/selection/ranking.h"
#include "replay.h"
#include "report.h"

namespace qens::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Every option not set here stays at the library's
// default, so a change of default shows up in the numbers.
// ---------------------------------------------------------------------------

/// The floor on timed and replayed samples: p99 needs at least ten
/// samples beyond it.
constexpr size_t kMinAnswered = 1000;

/// serve_mixed: more sessions than workers, workers under nproc = 4. The
/// requests come in kServeBatches batches of kServeSessions sessions, one
/// ServeRequests call each; the deterministic metrics cover every batch.
constexpr size_t kServeSessions = 16;
constexpr size_t kServeWorkers = 3;
constexpr size_t kServeRequestsPerSession = 100;
constexpr size_t kServeBatches = 3;
constexpr size_t kServeRounds = 2;
/// Requests per session in the traced run's registry on/off serves: short
/// serves, so that many pairs fit in the time given to them.
constexpr size_t kRegistryRequests = 10;
/// Virtual seconds between a session's arrivals: about 90% of the virtual
/// service rate of a 2-round request on the paper fleet (mean critical
/// path ~0.51 virtual s), so the admission queue holds real backlog
/// without growing without bound.
constexpr double kServeArrivalSpacing = 0.57;

struct Workload {
  data::AirQualityOptions data;
  fl::FederationOptions federation;
  query::WorkloadOptions queries;
  /// Sequential workloads: the answer-quality, byte and cost-model
  /// metrics are taken over the first `deterministic_answers` answered
  /// queries, so they do not depend on how many queries a run times.
  size_t deterministic_answers = 4000;
  bool serving = false;
};

/// The paper's Section V set-up (examples/configs/paper.ini): LR with
/// Table III hyper-parameters, E = 15 per cluster, 40 epochs, eps = 0.15,
/// l = 3, K = 5. The deployment (station data, split and training seeds)
/// is paper.ini's and the same for every run; the workload seed draws the
/// query stream. Seed-to-seed spread then measures the workload, not a
/// different fleet per seed.
Workload PaperShape(uint64_t seed) {
  Workload w;
  w.data.num_stations = 10;
  w.data.samples_per_station = 1500;
  w.data.heterogeneity = data::Heterogeneity::kHeterogeneous;
  w.data.single_feature = true;
  w.data.seed = 2023;
  w.federation.environment.kmeans.k = 5;
  w.federation.ranking.epsilon = 0.15;
  w.federation.query_driven.top_l = 3;
  w.federation.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  w.federation.hyper.epochs = 40;
  w.federation.epochs_per_cluster = 15;
  w.federation.seed = 7;
  w.queries.min_width_frac = 0.15;
  w.queries.max_width_frac = 0.5;
  w.queries.seed = seed;
  return w;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w = PaperShape(seed);
  if (name == "paper_qd") return w;
  if (name == "fleet_scan") {
    w.data.num_stations = 1000;
    w.data.samples_per_station = 200;
    w.data.single_feature = false;
    w.queries.min_width_frac = 0.6;
    w.queries.max_width_frac = 0.95;
    w.deterministic_answers = kMinAnswered;
    return w;
  }
  if (name == "serve_mixed") {
    w.serving = true;
    w.federation.wire.enabled = true;
    w.federation.wire.codec = ml::WireCodecKind::kQuant8;
    // examples/configs/dynamic_fleet.ini's churn, drift and refresh.
    fl::DynamicFleetOptions& dyn = w.federation.dynamic;
    dyn.enabled = true;
    dyn.churn.seed = 4242;
    dyn.churn.churn_rate = 0.3;
    dyn.churn.churn_horizon = 64;
    dyn.churn.min_down_rounds = 1;
    dyn.churn.max_down_rounds = 4;
    dyn.churn.min_up_rounds = 2;
    dyn.churn.max_up_rounds = 8;
    dyn.drift.seed = 31;
    dyn.drift.rate = 0.1;
    dyn.drift.feature_shift = 0.05;
    dyn.refresh = true;
    dyn.refresh_threshold = 0.02;
    return w;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

fl::ServingOptions ServeOptions(size_t workers) {
  fl::ServingOptions options;
  options.num_workers = workers;
  options.admission = true;
  return options;
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "qens_perf: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

/// The workload's query stream. Query i is a box over the data space
/// whose centre is uniform over the space and whose width in each
/// dimension is a uniform fraction in [min_width_frac, max_width_frac] of
/// the space, clipped to it -- the distribution query::WorkloadGenerator
/// draws from. The coordinates come from point i + 1 of a Halton sequence
/// under random digit scrambling (randomised quasi-Monte Carlo): every
/// digit position of every coordinate has its own permutation of the
/// digits, drawn from the seed. Each point is then uniform over the space,
/// and every prefix covers centres and widths evenly, so the mix of cheap
/// and expensive queries varies less between seeds than it does with
/// independent draws. The scrambling also breaks up the lines that plain
/// Halton points in neighbouring large bases (17, 19) lie on over the
/// first few hundred indices, which would tie two dimensions' widths
/// together.
class QueryStream {
 public:
  QueryStream(query::HyperRectangle space,
              const query::WorkloadOptions& options)
      : space_(std::move(space)), options_(options) {
    if (2 * space_.dims() > std::size(kPrimes)) {
      std::fprintf(stderr, "qens_perf: query stream supports at most %zu "
                   "dimensions\n", std::size(kPrimes) / 2);
      std::exit(2);
    }
    Rng rng(options.seed);
    for (size_t k = 0; k < 2 * space_.dims(); ++k) {
      const unsigned base = kPrimes[k];
      // As many digit positions as a double resolves.
      const size_t positions = static_cast<size_t>(
          std::ceil(53.0 * std::log(2.0) / std::log(static_cast<double>(base))));
      std::vector<std::vector<unsigned>> perms(positions);
      for (std::vector<unsigned>& perm : perms) {
        perm.resize(base);
        for (unsigned d = 0; d < base; ++d) perm[d] = d;
        rng.Shuffle(&perm);
      }
      digits_.push_back(std::move(perms));
    }
  }

  const query::RangeQuery& at(size_t i) {
    const size_t d = space_.dims();
    while (queries_.size() <= i) {
      const size_t index = queries_.size() + 1;
      auto coordinate = [&](size_t k) {
        return ScrambledRadicalInverse(index, kPrimes[k], digits_[k]);
      };
      std::vector<query::Interval> intervals(d);
      for (size_t k = 0; k < d; ++k) {
        const query::Interval& dim = space_.dim(k);
        const double center = dim.lo + coordinate(k) * dim.length();
        const double frac =
            options_.min_width_frac +
            coordinate(d + k) *
                (options_.max_width_frac - options_.min_width_frac);
        const double half = 0.5 * frac * dim.length();
        intervals[k] = query::Interval(std::max(dim.lo, center - half),
                                       std::min(dim.hi, center + half));
      }
      query::RangeQuery q;
      q.id = queries_.size();
      q.region = query::HyperRectangle(std::move(intervals));
      queries_.push_back(std::move(q));
    }
    return queries_[i];
  }

 private:
  static constexpr unsigned kPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19};

  /// Radical inverse of `index` in `base`, digit j mapped through
  /// `digits[j]`. Positions beyond the index's own digits scramble its
  /// leading zeros.
  static double ScrambledRadicalInverse(
      size_t index, unsigned base,
      const std::vector<std::vector<unsigned>>& digits) {
    double f = 1.0, r = 0.0;
    for (const std::vector<unsigned>& perm : digits) {
      f /= base;
      r += f * static_cast<double>(perm[index % base]);
      index /= base;
    }
    return r;
  }

  query::HyperRectangle space_;
  query::WorkloadOptions options_;
  /// Per coordinate, per digit position, a permutation of the digits.
  std::vector<std::vector<std::vector<unsigned>>> digits_;
  std::vector<query::RangeQuery> queries_;
};

/// clustering.kmeans_s: the k-means fits Fleet::Create runs (one
/// FitSummaries per node, with the environment's per-node seed), re-run
/// over the built fleet's train shards.
double TimeKMeans(const fl::Fleet& fleet) {
  const sim::EdgeEnvironment& env = fleet.environment;
  const clustering::KMeansOptions& base = fleet.options.environment.kmeans;
  double seconds = 0.0;
  for (size_t i = 0; i < env.num_nodes(); ++i) {
    clustering::KMeansOptions km = base;
    km.seed = base.seed + 0x9e37 * (i + 1);
    const Matrix& x = env.node(i).local_data().features();
    const Clock::time_point start = Clock::now();
    OrDie(clustering::KMeans(km).FitSummaries(x), "KMeans::FitSummaries");
    seconds += SecondsSince(start);
  }
  return seconds;
}

/// setup_s: the wall time of one fleet build (Federation::Create, plus
/// QueryServer::Create when serving) from a copy of the workload's input.
/// Generating and copying the input is outside the timing. The builds are
/// spread over the whole run: the timed loops call Tick() between units of
/// work, which builds (and discards) a fleet once kSetupEvery has passed
/// since the last build and set-up has taken at most a fifth of that time.
/// The setup median then covers the same host phases as the query
/// timings. The traced run follows each build with the k-means re-run, so
/// the two are paired in time.
class SetupSampler {
 public:
  SetupSampler(const Workload& w, const std::vector<data::Dataset>& node_data,
               bool trace, Report* report)
      : w_(w), node_data_(node_data), trace_(trace), report_(report) {}

  /// One timed build.
  fl::Federation Build() {
    std::vector<data::Dataset> copy = node_data_;
    const Clock::time_point start = Clock::now();
    fl::Federation federation =
        OrDie(fl::Federation::Create(std::move(copy), w_.federation),
              "Federation::Create");
    if (w_.serving) {
      OrDie(fl::QueryServer::Create(federation.fleet(),
                                    ServeOptions(kServeWorkers)),
            "QueryServer::Create");
    }
    const double s = SecondsSince(start);
    report_->Samples("setup_s").push_back(s);
    if (trace_) {
      report_->Samples("kmeans_s").push_back(TimeKMeans(*federation.fleet()));
    }
    next_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   std::max(kSetupEvery, 4.0 * s)));
    return federation;
  }

  /// Between units of timed work: a build, when one is due.
  void Tick() {
    if (Clock::now() >= next_) Build();
  }

  /// After the timed work: builds until the run has kMinSetupSamples.
  void Finish() {
    while (report_->Samples("setup_s").size() < kMinSetupSamples) Build();
  }

 private:
  static constexpr double kSetupEvery = 0.5;
  static constexpr size_t kMinSetupSamples = 5;

  const Workload& w_;
  const std::vector<data::Dataset>& node_data_;
  const bool trace_;
  Report* report_;
  Clock::time_point next_;
};

/// codec.encode_us / codec.decode_us: QENW q8 on the workload's model, the
/// absolute (down-link) and delta (up-link) forms alternately.
void TimeCodec(const Workload& w, size_t features, Report* report) {
  Rng rng(w.federation.seed);
  const ml::SequentialModel model =
      OrDie(ml::BuildModel(w.federation.hyper, features, &rng), "BuildModel");
  ml::SequentialModel trained = model.Clone();
  std::vector<double> params = trained.GetParameters();
  for (double& p : params) p += 0.25;
  (void)trained.SetParameters(params);
  const ml::WireCodecKind kind = ml::WireCodecKind::kQuant8;
  double encode_s = 0.0, decode_s = 0.0;
  size_t ops = 0;
  bool round_trip_ok = true;
  while (ops < 20000 || encode_s + decode_s < 0.1) {
    for (int i = 0; i < 1000; ++i) {
      Clock::time_point t = Clock::now();
      const std::string down = OrDie(ml::EncodeModel(model, kind), "encode");
      const std::string up =
          OrDie(ml::EncodeModelDelta(trained, model, kind), "encode delta");
      encode_s += SecondsSince(t);
      t = Clock::now();
      const ml::SequentialModel a = OrDie(ml::DecodeModel(down), "decode");
      const ml::SequentialModel b =
          OrDie(ml::DecodeModelDelta(up, model), "decode delta");
      decode_s += SecondsSince(t);
      if (i == 0) {
        // q8 keeps every parameter within one quantization step.
        const std::vector<double> x = model.GetParameters();
        const std::vector<double> y = trained.GetParameters();
        const std::vector<double> xa = a.GetParameters();
        const std::vector<double> yb = b.GetParameters();
        double amax = 0.0, dmax = 0.0;
        for (size_t k = 0; k < x.size(); ++k) {
          amax = std::max(amax, std::fabs(x[k]));
          dmax = std::max(dmax, std::fabs(y[k] - x[k]));
        }
        for (size_t k = 0; k < x.size(); ++k) {
          round_trip_ok &= std::fabs(xa[k] - x[k]) <= amax / 127.0 + 1e-12;
          round_trip_ok &= std::fabs(yb[k] - y[k]) <= dmax / 127.0 + 1e-12;
        }
      }
    }
    ops += 2000;
  }
  report->Check("codec_q8_round_trip", round_trip_ok);
  report->Set("codec_encode_us", 1e6 * encode_s / static_cast<double>(ops));
  report->Set("codec_decode_us", 1e6 * decode_s / static_cast<double>(ops));
}

/// admission.offer_pop_us: the workload's arrivals (request specs) through
/// a standalone fl::AdmissionQueue, one Offer and one Pop per request.
void TimeAdmission(const std::vector<fl::RequestSessionSpec>& specs,
                   const fl::ServingOptions& options, Report* report) {
  size_t ops = 0;
  double spent = 0.0;
  bool balanced = true;
  while (ops < 100000 || spent < 0.05) {
    for (const fl::RequestSessionSpec& spec : specs) {
      fl::AdmissionQueue queue(options.admission_options);
      const Clock::time_point start = Clock::now();
      size_t popped = 0;
      for (size_t i = 0; i < spec.requests.size(); ++i) {
        queue.Offer(spec.requests[i], i, spec.rounds);
      }
      while (queue.Pop(spec.requests.back().arrival_s, nullptr)) ++popped;
      spent += SecondsSince(start);
      balanced &= popped == spec.requests.size();
      ops += spec.requests.size();
    }
  }
  report->Check("admission_queue_replay", balanced);
  report->Set("admission_offer_pop_us", 1e6 * spent / static_cast<double>(ops));
}

bool Finite(const fl::QueryOutcome& o) {
  return std::isfinite(o.loss_model_avg) && std::isfinite(o.loss_weighted) &&
         std::isfinite(o.loss_fedavg);
}

size_t WireBytes(const fl::QueryOutcome& o, bool down) {
  size_t bytes = 0;
  for (const obs::RoundRecord& r : o.round_records) {
    bytes += down ? r.wire_down_bytes : r.wire_up_bytes;
  }
  return bytes;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// The traced replay, shared by every workload.
// ---------------------------------------------------------------------------

/// Run query `q` untraced through `run_query` (timed whole) and through
/// the traced replay; the replay's answer must equal RunQuery's bit for
/// bit. Samples go under the "replay.*" and "runquery_s" keys.
template <typename RunQuery>
bool ReplayOne(const fl::Fleet& fleet, const fl::Leader& leader,
               uint64_t session_seed, const query::RangeQuery& q,
               RunQuery&& run_query, Report* report) {
  report->Add("attempted", 1);
  const Clock::time_point start = Clock::now();
  const fl::QueryOutcome outcome = OrDie(run_query(q), "RunQuery");
  const double run_s = SecondsSince(start);
  const fl::Leader::RankingTelemetry before = leader.ranking_telemetry();
  const ReplaySample s =
      OrDie(ReplayQuery(fleet, leader, session_seed, q), "replay");
  const fl::Leader::RankingTelemetry after = leader.ranking_telemetry();

  const bool same =
      s.skipped == outcome.skipped &&
      (s.skipped ||
       (s.loss_model_avg == outcome.loss_model_avg &&
        s.loss_weighted == outcome.loss_weighted &&
        s.loss_fedavg == outcome.loss_fedavg &&
        s.selected_nodes == outcome.selected_nodes &&
        s.test_rows == outcome.test_rows));
  if (!report->Check("replay_equals_runquery", same,
                     "query " + std::to_string(q.id))) {
    return false;
  }
  if (s.skipped) {
    report->Add("replay_skipped", 1);
    return true;
  }
  report->Check("replay_loss_finite", Finite(outcome),
                "query " + std::to_string(q.id));
  report->Samples("runquery_s").push_back(run_s);
  report->Samples("replay_total_s").push_back(s.total_s);
  report->Samples("replay_eval_s").push_back(s.eval_s);
  report->Samples("replay_decide_s").push_back(s.decide_s);
  report->Samples("replay_rank_s").push_back(s.rank_s);
  report->Samples("replay_assemble_s").push_back(s.assemble_s);
  report->Samples("replay_train_s").push_back(s.train_s);
  report->Samples("replay_aggregate_s").push_back(s.aggregate_s);
  report->Samples("replay_test_rows").push_back(
      static_cast<double>(s.test_rows));
  report->Samples("replay_samples_seen").push_back(
      static_cast<double>(s.samples_seen));
  report->Samples("replay_supporting_clusters")
      .push_back(static_cast<double>(s.supporting_clusters));
  const double scored =
      static_cast<double>(after.scan_rankings - before.scan_rankings) *
          static_cast<double>(fleet.profiles->size()) +
      static_cast<double>(after.candidate_nodes - before.candidate_nodes);
  report->Samples("replay_nodes_scored").push_back(scored);
  return true;
}

// ---------------------------------------------------------------------------
// Sequential workloads: paper_qd, fleet_scan.
// ---------------------------------------------------------------------------

/// Selection check: Leader::Decide's picks are the top l of an independent
/// selection::RankNodes scan over Fleet::profiles.
void CheckDecide(const fl::Fleet& fleet, QueryStream* stream, Report* report) {
  const fl::Leader leader(fleet.profiles, fleet.options.ranking,
                          fleet.options.query_driven, fleet.ranking_index,
                          fleet.fleet_epoch);
  const size_t l = fleet.options.query_driven.top_l;
  for (size_t i = 0; i < 200; ++i) {
    const query::RangeQuery internal =
        OrDie(fleet.InternalQuery(stream->at(i)), "InternalQuery");
    const fl::SelectionDecision decision =
        OrDie(leader.Decide(internal), "Decide");
    std::vector<selection::NodeRank> scan = OrDie(
        selection::RankNodes(*fleet.profiles, internal, fleet.options.ranking),
        "RankNodes");
    std::vector<std::pair<double, size_t>> usable;
    for (const selection::NodeRank& r : scan) {
      if (r.ranking > 0.0) usable.emplace_back(-r.ranking, r.node_id);
    }
    std::sort(usable.begin(), usable.end());
    std::vector<size_t> expect;
    for (size_t k = 0; k < usable.size() && k < l; ++k) {
      expect.push_back(usable[k].second);
    }
    if (!report->Check("decide_equals_rank_scan",
                       decision.SelectedNodeIds() == expect,
                       "query " + std::to_string(i))) {
      return;
    }
  }
}

void RunSequential(const Workload& w,
                   const std::vector<data::Dataset>& node_data,
                   double seconds, bool trace, Report* report) {
  SetupSampler setup(w, node_data, trace, report);
  fl::Federation federation = setup.Build();
  std::shared_ptr<const fl::Fleet> fleet = federation.fleet();
  QueryStream stream(federation.RawDataSpace(), w.queries);
  auto run_query = [&federation](const query::RangeQuery& q) {
    return federation.RunQuery(q, selection::PolicyKind::kQueryDriven,
                               /*data_selectivity=*/true);
  };

  CheckDecide(*fleet, &stream, report);
  // Warm-up: caches, allocator and lazily built state, untimed.
  for (size_t i = 0; i < 20; ++i) OrDie(run_query(stream.at(i)), "warm-up");

  const sim::Network& net = federation.environment().network();
  if (!trace) {
    size_t offered = 0, answered = 0;
    const size_t bytes0 = net.total_bytes();
    const Clock::time_point start = Clock::now();
    double loop_s = 0.0;
    const size_t prefix = std::max(kMinAnswered, w.deterministic_answers);
    while (loop_s < seconds || answered < prefix) {
      const query::RangeQuery& q = stream.at(offered);
      const Clock::time_point t = Clock::now();
      const fl::QueryOutcome o = OrDie(run_query(q), "RunQuery");
      const double s = SecondsSince(t);
      ++offered;
      if (!o.skipped) {
        ++answered;
        report->Samples("query_s").push_back(s);
        if (!report->Check("loss_finite", Finite(o),
                           "query " + std::to_string(q.id))) {
          break;
        }
        if (answered <= prefix) {
          report->Samples("loss").push_back(o.loss_weighted);
          report->Samples("sim_s").push_back(o.sim_time_parallel +
                                             o.sim_time_comm);
          report->Samples("vt_latency_s").push_back(o.sim_time_parallel);
        }
      }
      if (answered == prefix && !o.skipped) {
        report->Set("det_offered", static_cast<double>(offered));
        report->Set("det_bytes",
                    static_cast<double>(net.total_bytes() - bytes0));
        // The environment network logs every message by default, so the
        // footprint grows with the number of queries run; read it at a
        // fixed point of the stream.
        report->Set("peak_rss_mb", PeakRssMb());
      }
      setup.Tick();
      loop_s = SecondsSince(start);
    }
    report->Set("attempted", static_cast<double>(offered));
    setup.Finish();
    return;
  }

  // Traced replay, paired per query with the untraced RunQuery.
  const fl::Leader leader(fleet->profiles, fleet->options.ranking,
                          fleet->options.query_driven, fleet->ranking_index,
                          fleet->fleet_epoch);
  const size_t messages0 = net.total_messages();
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 0.75 * seconds ||
         report->Samples("runquery_s").size() < kMinAnswered) {
    if (!ReplayOne(*fleet, leader, fleet->options.seed, stream.at(next++),
                   run_query, report)) {
      return;
    }
    setup.Tick();
  }
  setup.Finish();
  // Only RunQuery sends; the replay makes no transfers.
  report->Set("messages_per_query",
              static_cast<double>(net.total_messages() - messages0) /
                  static_cast<double>(report->Samples("runquery_s").size()));

  // obs registry on vs off over the same block of queries, alternating
  // which goes first; one on/off wall-time ratio per pair.
  double block_busy = 0.0, block_wall = 0.0;
  size_t block_start = 0;
  const size_t kBlock = 25;
  const Clock::time_point pair_start = Clock::now();
  for (size_t b = 0; b < 4 || SecondsSince(pair_start) < 0.5 * seconds; ++b) {
    double wall[2] = {0.0, 0.0};  // off, on
    for (int half = 0; half < 2; ++half) {
      const bool on = (b + half) % 2 == 0;
      if (on) obs::MetricsRegistry::Enable();
      const Clock::time_point t = Clock::now();
      double busy = 0.0;
      for (size_t i = block_start; i < block_start + kBlock; ++i) {
        const Clock::time_point tq = Clock::now();
        const fl::QueryOutcome o = OrDie(run_query(stream.at(i)), "RunQuery");
        busy += SecondsSince(tq);
        if (on) {
          report->Add("wire_down_bytes",
                      static_cast<double>(WireBytes(o, true)));
          report->Add("wire_up_bytes",
                      static_cast<double>(WireBytes(o, false)));
          if (!o.skipped) report->Add("registry_answered", 1);
        }
      }
      wall[on] = SecondsSince(t);
      if (on) {
        const obs::MetricsSnapshot snap =
            obs::MetricsRegistry::Get()->Snapshot();
        auto counter = [&snap](const char* name) {
          auto it = snap.counters.find(name);
          return it == snap.counters.end() ? 0.0
                                           : static_cast<double>(it->second);
        };
        report->Add("refreshes", counter("federation.fleet.refreshes"));
        report->Add("profile_copies", counter("leader.profile_copies"));
        obs::MetricsRegistry::Disable();
      } else {
        block_busy += busy;
        block_wall += wall[0];
      }
    }
    report->Samples("registry_ratio").push_back(wall[1] / wall[0]);
    block_start += kBlock;
  }
  report->Set("busy_frac", block_busy / block_wall);
  report->Set("session_imbalance", 1.0);
  // No wire codec and no admission queue run on the sequential path.
  report->Set("codec_encode_us", 0.0);
  report->Set("codec_decode_us", 0.0);
  report->Set("admission_offer_pop_us", 0.0);
}

// ---------------------------------------------------------------------------
// serve_mixed.
// ---------------------------------------------------------------------------

/// Batch `batch` of the request schedule: its sessions draw consecutive
/// queries from the stream, and classes cycle over the whole schedule.
std::vector<fl::RequestSessionSpec> ServeSpecs(QueryStream* stream,
                                               size_t batch) {
  constexpr fl::QueryClass kCycle[] = {fl::QueryClass::kInteractive,
                                       fl::QueryClass::kStandard,
                                       fl::QueryClass::kBatch};
  std::vector<fl::RequestSessionSpec> specs(kServeSessions);
  size_t next = batch * kServeSessions * kServeRequestsPerSession;
  for (fl::RequestSessionSpec& spec : specs) {
    spec.rounds = kServeRounds;
    for (size_t r = 0; r < kServeRequestsPerSession; ++r, ++next) {
      fl::QueryRequest request;
      request.query = stream->at(next);
      request.query_class = kCycle[next % 3];
      request.arrival_s = kServeArrivalSpacing * static_cast<double>(r);
      spec.requests.push_back(std::move(request));
    }
  }
  return specs;
}

/// FNV-1a over every deterministic field of a serve: dispositions, virtual
/// times and losses, bit patterns included.
uint64_t ServeHash(const std::vector<fl::SessionResult>& results) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  for (const fl::SessionResult& s : results) {
    mix(s.session_id);
    mix(s.queries_run);
    mix(s.queries_skipped);
    mix(s.queries_shed);
    mix(s.queries_rejected);
    mix(s.comm_messages);
    mix(s.comm_bytes);
    for (const fl::RequestOutcome& r : s.requests) {
      mix(static_cast<uint64_t>(r.admission));
      mix(r.processed);
      mix(r.outcome_index);
      mix_double(r.vt_start_s);
      mix_double(r.vt_complete_s);
      mix_double(r.vt_queue_s);
      mix_double(r.vt_latency_s);
      mix(r.deadline_missed);
    }
    for (const fl::QueryOutcome& o : s.outcomes) {
      mix(o.skipped);
      mix_double(o.loss_model_avg);
      mix_double(o.loss_weighted);
      mix_double(o.loss_fedavg);
      mix_double(o.sim_time_parallel);
    }
  }
  return h;
}

/// Output checks of one serve: every session OK, the admission accounting
/// closes per class, every answered loss is finite.
void CheckServe(const std::vector<fl::RequestSessionSpec>& specs,
                const std::vector<fl::SessionResult>& results,
                Report* report) {
  report->Check("serve_session_count", results.size() == specs.size());
  for (const fl::SessionResult& s : results) {
    report->Check("serve_session_ok", s.status.ok(), s.status.ToString());
    for (const fl::QueryOutcome& o : s.outcomes) {
      if (!o.skipped) report->Check("loss_finite", Finite(o));
    }
  }
  const fl::ServingTelemetry t = fl::SummarizeServing(results);
  for (size_t c = 0; c < fl::kNumQueryClasses; ++c) {
    const fl::QueryClassStats& k = t.per_class[c];
    report->Check("admission_accounting",
                  k.executed + k.rejected + k.shed == k.requests,
                  fl::QueryClassName(static_cast<fl::QueryClass>(c)));
  }
}

/// Accumulate the deterministic outputs of one reference serve.
void RecordServe(const std::vector<fl::SessionResult>& results,
                 Report* report) {
  size_t offered = 0, answered = 0, bytes = 0, messages = 0;
  size_t down = 0, up = 0, shed = 0, rejected = 0, missed = 0;
  for (const fl::SessionResult& s : results) {
    offered += s.requests.size();
    answered += s.queries_run;
    shed += s.queries_shed;
    rejected += s.queries_rejected;
    bytes += s.comm_bytes;
    messages += s.comm_messages;
    for (const fl::RequestOutcome& r : s.requests) {
      if (!r.executed()) continue;
      missed += r.deadline_missed;
      const fl::QueryOutcome& o = s.outcomes[r.outcome_index];
      if (o.skipped) continue;
      report->Samples("loss").push_back(o.loss_weighted);
      report->Samples("sim_s").push_back(o.sim_time_parallel + o.sim_time_comm);
      report->Samples("vt_latency_s").push_back(r.vt_latency_s);
      report->Samples("vt_queue_s").push_back(r.vt_queue_s);
      down += WireBytes(o, true);
      up += WireBytes(o, false);
    }
  }
  report->Add("det_offered", static_cast<double>(offered));
  report->Add("det_bytes", static_cast<double>(bytes));
  report->Add("det_messages", static_cast<double>(messages));
  report->Add("wire_down_bytes", static_cast<double>(down));
  report->Add("wire_up_bytes", static_cast<double>(up));
  report->Add("registry_answered", static_cast<double>(answered));
  report->Add("shed", static_cast<double>(shed));
  report->Add("rejected", static_cast<double>(rejected));
  report->Add("deadline_missed", static_cast<double>(missed));
}

/// pool.busy_frac and pool.session_imbalance of one pooled serve.
std::pair<double, double> PoolUse(const std::vector<fl::SessionResult>& r,
                                  double wall_s) {
  double sum = 0.0, max = 0.0;
  for (const fl::SessionResult& s : r) {
    sum += s.wall_seconds;
    max = std::max(max, s.wall_seconds);
  }
  return {sum / (static_cast<double>(kServeWorkers) * wall_s),
          max / (sum / static_cast<double>(r.size()))};
}

void RunServe(const Workload& w, const std::vector<data::Dataset>& node_data,
              double seconds, bool trace, Report* report) {
  SetupSampler setup(w, node_data, trace, report);
  fl::Federation federation = setup.Build();
  std::shared_ptr<const fl::Fleet> fleet = federation.fleet();
  QueryStream stream(federation.RawDataSpace(), w.queries);
  std::vector<std::vector<fl::RequestSessionSpec>> batches;
  for (size_t b = 0; b < kServeBatches; ++b) {
    batches.push_back(ServeSpecs(&stream, b));
  }
  fl::QueryServer server = OrDie(
      fl::QueryServer::Create(fleet, ServeOptions(kServeWorkers)), "server");

  // Reference serves (untimed, also the warm-up): the deterministic
  // outputs every timed serve must reproduce.
  obs::MetricsRegistry::Enable();
  std::vector<uint64_t> reference_hash;
  for (const auto& specs : batches) {
    const std::vector<fl::SessionResult> reference =
        OrDie(server.ServeRequests(specs), "ServeRequests");
    CheckServe(specs, reference, report);
    RecordServe(reference, report);
    reference_hash.push_back(ServeHash(reference));
  }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Get()->Snapshot();
  const Report::Scalars& det = report->scalars();
  report->Set("messages_per_query", det.at("det_messages") /
                                        det.at("registry_answered"));
  report->Set("attempted", det.at("det_offered"));
  report->Set("unserved", det.at("shed") + det.at("rejected"));

  if (!trace) {
    size_t offered = 0, unserved = 0;
    double loop_s = 0.0;
    for (size_t call = 0; call < kServeBatches || loop_s < seconds; ++call) {
      const size_t b = call % kServeBatches;
      const Clock::time_point start = Clock::now();
      const std::vector<fl::SessionResult> results =
          OrDie(server.ServeRequests(batches[b]), "ServeRequests");
      loop_s += SecondsSince(start);
      if (!report->Check("serve_repeats_reference",
                         ServeHash(results) == reference_hash[b])) {
        break;
      }
      setup.Tick();
      for (const fl::SessionResult& s : results) {
        offered += s.requests.size();
        unserved += s.queries_shed + s.queries_rejected;
        for (const fl::RequestOutcome& r : s.requests) {
          if (r.executed() && !s.outcomes[r.outcome_index].skipped) {
            report->Samples("query_s").push_back(r.wall_seconds);
          }
        }
      }
    }
    report->Set("attempted", static_cast<double>(offered));
    report->Set("unserved", static_cast<double>(unserved));
    report->Set("peak_rss_mb", PeakRssMb());
    setup.Finish();
    return;
  }

  auto counter = [&snap](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  report->Set("refreshes", counter("federation.fleet.refreshes"));
  report->Set("profile_copies", counter("leader.profile_copies"));
  obs::MetricsRegistry::Disable();

  // A sequential serve of the same specs must hash-equal the pooled one.
  const std::vector<fl::RequestSessionSpec>& specs = batches[0];
  {
    fl::QueryServer sequential = OrDie(
        fl::QueryServer::Create(fleet, ServeOptions(0)), "server");
    report->Check("serve_sequential_equals_pooled",
                  ServeHash(OrDie(sequential.ServeRequests(specs),
                                  "ServeRequests")) == reference_hash[0]);
  }

  TimeCodec(w, node_data[0].NumFeatures(), report);
  TimeAdmission(specs, ServeOptions(kServeWorkers), report);

  // obs registry on vs off: serves of the first kRegistryRequests requests
  // of each session, paired and alternating which goes first, for half
  // the run; one on/off wall-time ratio per pair.
  std::vector<fl::RequestSessionSpec> short_specs = specs;
  for (fl::RequestSessionSpec& spec : short_specs) {
    spec.requests.resize(kRegistryRequests);
  }
  std::optional<uint64_t> short_hash;
  double busy = 0.0, imbalance = 0.0;
  int pooled = 0;
  const Clock::time_point pair_start = Clock::now();
  for (int pair = 0; pair < 4 || SecondsSince(pair_start) < 0.5 * seconds;
       ++pair) {
    double wall[2] = {0.0, 0.0};  // off, on
    for (int half = 0; half < 2; ++half) {
      const bool on = (pair + half) % 2 == 0;
      if (on) obs::MetricsRegistry::Enable();
      const Clock::time_point start = Clock::now();
      const std::vector<fl::SessionResult> results =
          OrDie(server.ServeRequests(short_specs), "ServeRequests");
      wall[on] = SecondsSince(start);
      if (on) obs::MetricsRegistry::Disable();
      const auto [b, i] = PoolUse(results, wall[on]);
      busy += b;
      imbalance += i;
      ++pooled;
      const uint64_t hash = ServeHash(results);
      if (!short_hash) short_hash = hash;
      report->Check("serve_repeats_reference", hash == *short_hash);
    }
    report->Samples("registry_ratio").push_back(wall[1] / wall[0]);
  }
  report->Set("busy_frac", busy / pooled);
  report->Set("session_imbalance", imbalance / pooled);

  // Layer replay over the served queries on the fleet's static base (the
  // dynamic, wire and multi-round layers off), checked against a session
  // of that static fleet.
  auto base = std::make_shared<fl::Fleet>(*fleet);
  base->options.dynamic.enabled = false;
  base->options.wire.enabled = false;
  fl::QuerySession session =
      OrDie(fl::QuerySession::Create(base, fl::QuerySessionOptions{}),
            "QuerySession::Create");
  auto run_query = [&session](const query::RangeQuery& q) {
    return session.RunQuery(q, selection::PolicyKind::kQueryDriven, true);
  };
  const fl::Leader leader(base->profiles, base->options.ranking,
                          base->options.query_driven, base->ranking_index,
                          base->fleet_epoch);
  const Clock::time_point start = Clock::now();
  for (size_t next = 0;
       SecondsSince(start) < 0.5 * seconds ||
       report->Samples("runquery_s").size() < kMinAnswered;
       ++next) {
    if (!ReplayOne(*base, leader, session.seed(), stream.at(next), run_query,
                   report)) {
      return;
    }
    setup.Tick();
  }
  setup.Finish();
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "qens_perf: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload.empty() || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: qens_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const Workload w = OrDie(MakeWorkload(workload, seed), "workload");
  const std::vector<data::Dataset> node_data =
      OrDie(data::AirQualityGenerator(w.data).GenerateAll(), "generate data");
  Report report;
  if (w.serving) {
    RunServe(w, node_data, seconds, trace == 1, &report);
  } else {
    RunSequential(w, node_data, seconds, trace == 1, &report);
  }
  report.Print(stdout);
  return report.all_ok() ? 0 : 3;
}

}  // namespace
}  // namespace qens::perfbench

int main(int argc, char** argv) { return qens::perfbench::Main(argc, argv); }
