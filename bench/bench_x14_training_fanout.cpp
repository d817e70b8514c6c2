// X14: the local-training fan-out against the inline loop.
//
// fl::RoundEngine trains a round's jobs concurrently (the calling thread
// plus up to hardware threads - 1 pool workers, ThreadPool::ParallelUnits)
// whenever two or more jobs train. The caller takes any job no woken
// worker has claimed yet, so a slow wake-up costs little; this bench
// checks that the fan-out is not slower than the inline loop down to the
// smallest rounds.
//
// Sections:
//   equality  — Federation queries at max_parallel_nodes = 1 (always
//               inline) and 0 (the default: fan out) give bit-identical
//               losses and critical paths. Asserted before anything is
//               timed.
//   crossover — one round of J equal jobs (real TrainOnSupportingClusters
//               fits over every cluster of a node) at total work W: the
//               inline loop against a ParallelUnits fan-out, exactly the
//               engine's two dispatch paths. Every shape shares one pool of
//               hardware threads - 1 workers, as a Federation's pool is
//               after its largest round, so the 2- and 3-job rounds run on
//               a pool larger than they use.
//               ratio = inline / fan-out; above 1 the fan-out is faster.
//   product   — whole queries through the Federation facade:
//               max_parallel_nodes = 1 against the default.
//
// Timings are medians over alternating blocks (inline first in even
// blocks, fan-out first in odd ones), so a drift in host speed hits both
// paths alike.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "qens/common/rng.h"
#include "qens/common/stopwatch.h"
#include "qens/common/thread_pool.h"
#include "qens/fl/federation.h"
#include "qens/fl/participant.h"
#include "qens/ml/model_factory.h"
#include "qens/query/workload_generator.h"
#include "qens/sim/cost_model.h"
#include "qens/sim/edge_node.h"

namespace qens::bench {
namespace {

constexpr size_t kEpochsPerCluster = 16;
constexpr size_t kBlocks = 31;
constexpr size_t kCallsPerBlock = 10;
constexpr double kGapSeconds = 100e-6;

/// `n` rows of `d` features in [0, 10) and a noisy linear target.
data::Dataset MakeData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, d), y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t c = 0; c < d; ++c) {
      x(i, c) = rng.Uniform(0, 10);
      acc += x(i, c);
    }
    y(i, 0) = 2.0 * acc / static_cast<double>(d) + rng.Gaussian(0, 0.2);
  }
  return ValueOrDie(data::Dataset::Create(x, y), "dataset");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median per-call seconds of `a` and `b`: kBlocks alternating blocks of
/// kCallsPerBlock calls each, every call timed alone and preceded by
/// kGapSeconds of untimed busy work on the caller. The gap stands for the
/// leader-side work between two rounds of a query stream (selection,
/// aggregation, evaluation), so pool workers have gone back to sleep
/// before every fan-out, as they have in the product.
std::pair<double, double> AlternatingMedians(auto&& a, auto&& b) {
  std::vector<double> ta, tb;
  for (size_t block = 0; block < kBlocks; ++block) {
    for (int half = 0; half < 2; ++half) {
      const bool run_a = (block + half) % 2 == 0;
      for (size_t r = 0; r < kCallsPerBlock; ++r) {
        Stopwatch gap;
        while (gap.ElapsedSeconds() < kGapSeconds) {
        }
        Stopwatch watch;
        run_a ? a() : b();
        (run_a ? ta : tb).push_back(watch.ElapsedSeconds());
      }
    }
  }
  return {Median(ta), Median(tb)};
}

// --- Section: equality -----------------------------------------------------

void CheckEquality(BenchJson* json) {
  fl::ExperimentConfig config =
      PaperConfig(data::Heterogeneity::kHeterogeneous);
  data::AirQualityGenerator generator(config.data);
  const std::vector<data::Dataset> stations =
      ValueOrDie(generator.GenerateAll(), "generate stations");
  fl::FederationOptions inline_options = config.federation;
  inline_options.max_parallel_nodes = 1;
  fl::Federation inline_fed =
      ValueOrDie(fl::Federation::Create(stations, inline_options), "fed");
  fl::Federation fanned =
      ValueOrDie(fl::Federation::Create(stations, config.federation), "fed");
  query::WorkloadGenerator workload(inline_fed.RawDataSpace(),
                                     config.workload);
  size_t compared = 0;
  for (size_t i = 0; i < 60; ++i) {
    const query::RangeQuery q = ValueOrDie(workload.Next(), "query");
    const fl::QueryOutcome a =
        ValueOrDie(inline_fed.RunQueryDriven(q), "inline query");
    const fl::QueryOutcome b =
        ValueOrDie(fanned.RunQueryDriven(q), "fanned query");
    const bool same = a.skipped == b.skipped &&
                      a.selected_nodes == b.selected_nodes &&
                      a.loss_weighted == b.loss_weighted &&
                      a.loss_model_avg == b.loss_model_avg &&
                      a.loss_fedavg == b.loss_fedavg &&
                      a.sim_time_parallel == b.sim_time_parallel &&
                      a.samples_used == b.samples_used;
    if (!same) {
      std::fprintf(stderr, "FATAL: query %zu differs between inline and "
                           "fanned-out training\n", i);
      std::exit(1);
    }
    compared += a.skipped ? 0 : 1;
  }
  std::printf("shape check: fanned-out training bit-identical to inline on "
              "%zu answered paper queries (yes)\n",
              compared);
  BenchRecord record;
  record.name = "equality_paper";
  record.labels["section"] = "equality";
  record.values["queries"] = static_cast<double>(compared);
  record.values["identical"] = 1.0;
  json->Add(std::move(record));
}

// --- Section: crossover ----------------------------------------------------

/// One round of `jobs` equal jobs over `rows`-row nodes of `dims` features:
/// inline vs fan-out per-round wall time. Returns the round's estimated
/// work and inline / fan-out.
std::pair<size_t, double> MeasureRound(common::ThreadPool* pool, size_t jobs,
                                       size_t rows, size_t dims,
                                       BenchJson* json) {
  clustering::KMeansOptions km;
  km.k = 5;
  std::vector<sim::EdgeNode> nodes;
  std::vector<std::vector<size_t>> supporting(jobs);
  size_t work = 0;
  for (size_t j = 0; j < jobs; ++j) {
    nodes.emplace_back(j, "n" + std::to_string(j),
                       MakeData(rows, dims, 11 + j), 1.0);
    CheckOk(nodes[j].Quantize(km), "quantize");
    const selection::NodeProfile* profile =
        ValueOrDie(nodes[j].profile(), "profile");
    for (size_t c = 0; c < profile->clusters.size(); ++c) {
      if (profile->clusters[c].size == 0) continue;
      supporting[j].push_back(c);
      work += profile->clusters[c].size * kEpochsPerCluster;
    }
  }
  fl::LocalTrainOptions options;
  options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
  options.epochs_per_cluster = kEpochsPerCluster;
  Rng init(5);
  const ml::SequentialModel global =
      ValueOrDie(ml::BuildModel(options.hyper, dims, &init), "model");
  const sim::CostModel cost_model;

  // The engine's two dispatch paths over per-job result slots.
  std::vector<std::optional<Result<fl::LocalTrainResult>>> results(jobs);
  auto train = [&](size_t j) {
    results[j] = fl::TrainOnSupportingClusters(nodes[j], global, supporting[j],
                                               options, cost_model);
  };
  auto run_inline = [&] {
    for (size_t j = 0; j < jobs; ++j) train(j);
  };
  auto run_fanout = [&] { pool->ParallelUnits(jobs, train); };

  run_fanout();  // Warm the pool and the allocator.
  const auto [inline_s, fanout_s] = AlternatingMedians(run_inline, run_fanout);
  const double ratio = inline_s / fanout_s;
  std::printf("%6zu %5zu %5zu %10zu %12.1f %12.1f %8.2f\n", jobs, dims, rows,
              work, 1e6 * inline_s, 1e6 * fanout_s, ratio);
  BenchRecord record;
  record.name = "round_j" + std::to_string(jobs) + "_d" +
                std::to_string(dims) + "_w" + std::to_string(work);
  record.labels["section"] = "crossover";
  record.values["jobs"] = static_cast<double>(jobs);
  record.values["dims"] = static_cast<double>(dims);
  record.values["sample_epochs"] = static_cast<double>(work);
  record.values["inline_us"] = 1e6 * inline_s;
  record.values["fanout_us"] = 1e6 * fanout_s;
  record.values["ratio"] = ratio;
  record.values["reps"] = static_cast<double>(kCallsPerBlock * kBlocks);
  json->Add(std::move(record));
  return {work, ratio};
}

void BenchCrossover(BenchJson* json) {
  PrintHeader("X14b. Crossover: inline vs fan-out, one round");
  const size_t hw = common::ThreadPool::DefaultThreadCount();
  std::printf("one pool of %zu workers (hardware threads - 1) for every "
              "shape; the caller plus up to jobs - 1 of them participate; "
              "%zu epochs per cluster\n",
              std::max<size_t>(hw, 2) - 1, kEpochsPerCluster);
  std::printf("%6s %5s %5s %10s %12s %12s %8s\n", "jobs", "dims", "rows",
              "work", "inline_us", "fanout_us", "ratio");
  struct Shape {
    size_t jobs;
    size_t dims;
  };
  common::ThreadPool pool(std::max<size_t>(hw, 2) - 1);
  size_t slower = 0;  // Rounds where the fan-out lost.
  size_t rounds = 0;
  for (const Shape shape : {Shape{2, 1}, Shape{3, 1}, Shape{6, 1},
                            Shape{3, 4}}) {
    for (const size_t rows : {8, 16, 32, 64, 96, 128, 192, 256, 384, 512}) {
      const auto [work, ratio] =
          MeasureRound(&pool, shape.jobs, rows, shape.dims, json);
      ++rounds;
      if (ratio < 1.0) ++slower;
    }
  }
  std::printf("rounds where the fan-out was slower: %zu of %zu\n", slower,
              rounds);
}

// --- Section: product ------------------------------------------------------

void BenchProduct(BenchJson* json) {
  PrintHeader("X14c. Product path: whole queries, inline vs default");
  std::printf("%5s %10s %12s %12s %8s\n", "rows", "work", "inline_us",
              "default_us", "ratio");
  for (const size_t rows : {10, 20, 40, 80, 160, 320, 640}) {
    std::vector<data::Dataset> nodes;
    for (size_t n = 0; n < 10; ++n) nodes.push_back(MakeData(rows, 1, 40 + n));
    fl::FederationOptions options;
    options.environment.kmeans.k = 5;
    options.ranking.epsilon = 0.15;
    options.query_driven.top_l = 3;
    options.hyper = ml::PaperHyperParams(ml::ModelKind::kLinearRegression);
    options.epochs_per_cluster = kEpochsPerCluster;
    fl::FederationOptions inline_options = options;
    inline_options.max_parallel_nodes = 1;
    fl::Federation inline_fed =
        ValueOrDie(fl::Federation::Create(nodes, inline_options), "fed");
    fl::Federation default_fed =
        ValueOrDie(fl::Federation::Create(nodes, options), "fed");
    query::RangeQuery q;
    q.id = 1;
    q.region = ValueOrDie(query::HyperRectangle::FromFlatBounds({0, 10}),
                          "region");
    const fl::QueryOutcome probe =
        ValueOrDie(inline_fed.RunQueryDriven(q), "query");
    const size_t work = probe.samples_used * kEpochsPerCluster;
    auto run_inline = [&] {
      CheckOk(inline_fed.RunQueryDriven(q).status(), "q");
    };
    auto run_default = [&] {
      CheckOk(default_fed.RunQueryDriven(q).status(), "q");
    };
    run_default();
    const auto [inline_s, default_s] =
        AlternatingMedians(run_inline, run_default);
    const double ratio = inline_s / default_s;
    std::printf("%5zu %10zu %12.1f %12.1f %8.2f\n", rows, work,
                1e6 * inline_s, 1e6 * default_s, ratio);
    BenchRecord record;
    record.name = "query_w" + std::to_string(work);
    record.labels["section"] = "product";
    record.values["sample_epochs"] = static_cast<double>(work);
    record.values["inline_us"] = 1e6 * inline_s;
    record.values["default_us"] = 1e6 * default_s;
    record.values["ratio"] = ratio;
    record.values["reps"] = static_cast<double>(kCallsPerBlock * kBlocks);
    json->Add(std::move(record));
  }
}

}  // namespace
}  // namespace qens::bench

int main(int argc, char** argv) {
  using namespace qens::bench;
  BenchJson json("bench_x14_training_fanout", &argc, argv);
  PrintHeader("X14. Local-training fan-out: equality and crossover");
  json.MarkThroughputSensitive();
  std::printf("hardware threads: %zu\n", HardwareThreads());
  CheckEquality(&json);
  BenchCrossover(&json);
  BenchProduct(&json);
  json.WriteOrDie();
  return 0;
}
