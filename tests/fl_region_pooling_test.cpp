// Differential test of ground-truth pooling: PoolRegionRows, and the
// Fleet and DynamicFleet paths built on it, must equal the historical
// SelectRows + Concat chain bit for bit (features, targets, row order and
// column names) over seeded query streams, including empty regions,
// single-row shards, rows on a query's closed bounds, NaN feature rows,
// and drifted nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "qens/common/rng.h"
#include "qens/common/string_util.h"
#include "qens/fl/dynamic_fleet.h"
#include "qens/fl/leader.h"
#include "qens/fl/query_session.h"

namespace qens::fl {
namespace {

constexpr size_t kDims = 2;

/// The historical pooling chain, kept as the oracle: per shard, shift a
/// copy of the features when it has an offset, select the matching rows,
/// and append them to the pool with Concat.
Result<data::Dataset> OraclePool(
    const std::vector<data::Dataset>& shards, const query::RangeQuery& query,
    const std::vector<const std::vector<double>*>& offsets = {}) {
  std::optional<data::Dataset> pooled;
  for (size_t i = 0; i < shards.size(); ++i) {
    const data::Dataset& shard = shards[i];
    std::optional<data::Dataset> shifted;
    if (!offsets.empty() && offsets[i] != nullptr) {
      Matrix features = shard.features();
      for (size_t r = 0; r < shard.NumSamples(); ++r) {
        for (size_t d = 0; d < offsets[i]->size(); ++d) {
          features(r, d) += (*offsets[i])[d];
        }
      }
      QENS_ASSIGN_OR_RETURN(
          shifted, data::Dataset::Create(std::move(features), shard.targets(),
                                         shard.feature_names(),
                                         shard.target_name()));
    }
    const data::Dataset& current = shifted.has_value() ? *shifted : shard;
    QENS_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                          query.MatchingRows(current.features()));
    if (rows.empty()) continue;
    QENS_ASSIGN_OR_RETURN(data::Dataset subset, current.SelectRows(rows));
    if (!pooled.has_value()) {
      pooled = std::move(subset);
    } else {
      QENS_ASSIGN_OR_RETURN(pooled.value(), pooled->Concat(subset));
    }
  }
  if (!pooled.has_value()) {
    return Status::NotFound("no test rows inside the query region");
  }
  return std::move(pooled.value());
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

/// Both results fail with the same code and message, or both hold the
/// same rows bit for bit under the same names.
void ExpectSamePool(const Result<data::Dataset>& got,
                    const Result<data::Dataset>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_TRUE(SameBits(got->features(), want->features()));
  EXPECT_TRUE(SameBits(got->targets(), want->targets()));
  EXPECT_EQ(got->feature_names(), want->feature_names());
  EXPECT_EQ(got->target_name(), want->target_name());
}

/// Values on a 0.5 grid in [0, 20], so query bounds drawn from the same
/// grid land exactly on data values.
double GridValue(Rng* rng) {
  return 0.5 * static_cast<double>(rng->UniformInt(int64_t{0}, int64_t{40}));
}

query::RangeQuery GridQuery(Rng* rng, uint64_t id) {
  std::vector<double> bounds;
  for (size_t d = 0; d < kDims; ++d) {
    const double a = GridValue(rng);
    const double b = GridValue(rng);
    bounds.push_back(std::min(a, b));
    bounds.push_back(std::max(a, b));
  }
  query::RangeQuery q;
  q.id = id;
  q.region = query::HyperRectangle::FromFlatBounds(bounds).value();
  return q;
}

/// 240 shards of 0-6 rows on the grid (every fifth shard a single row),
/// each with its own column names, and one NaN feature row.
std::vector<data::Dataset> SmallShards() {
  Rng rng(2024);
  std::vector<data::Dataset> shards;
  for (size_t i = 0; i < 240; ++i) {
    const size_t n =
        i % 5 == 0 ? 1 : static_cast<size_t>(rng.UniformInt(int64_t{0}, 6));
    Matrix x(n, kDims), y(n, 1);
    for (size_t r = 0; r < n; ++r) {
      for (size_t d = 0; d < kDims; ++d) x(r, d) = GridValue(&rng);
      y(r, 0) = rng.Gaussian(0.0, 1.0);
    }
    if (i == 17 && n > 0) x(0, 1) = std::numeric_limits<double>::quiet_NaN();
    shards.push_back(data::Dataset::Create(
                         std::move(x), std::move(y),
                         {StrFormat("a%zu", i), StrFormat("b%zu", i)},
                         StrFormat("y%zu", i))
                         .value());
  }
  return shards;
}

TEST(RegionPoolingTest, MatchesConcatOracleOnSmallShards) {
  const std::vector<data::Dataset> shards = SmallShards();
  Rng rng(7);
  size_t found = 0;
  for (uint64_t q = 0; q < 300; ++q) {
    const query::RangeQuery query = GridQuery(&rng, q);
    const Result<data::Dataset> want = OraclePool(shards, query);
    ExpectSamePool(PoolRegionRows(shards, query), want);
    if (want.ok()) ++found;
  }
  // The stream must exercise both outcomes.
  EXPECT_GT(found, 100u);
  EXPECT_LT(found, 300u);
}

TEST(RegionPoolingTest, RowsOnClosedBoundsAreIncluded) {
  const std::vector<data::Dataset> shards = SmallShards();
  // A degenerate box at one row's exact coordinates.
  const data::Dataset& shard = shards[5];
  ASSERT_EQ(shard.NumSamples(), 1u);
  query::RangeQuery query;
  query.region = query::HyperRectangle::FromFlatBounds(
                     {shard.features()(0, 0), shard.features()(0, 0),
                      shard.features()(0, 1), shard.features()(0, 1)})
                     .value();
  const Result<data::Dataset> got = PoolRegionRows(shards, query);
  ASSERT_TRUE(got.ok());
  ExpectSamePool(got, OraclePool(shards, query));
  bool has_row = false;
  for (size_t r = 0; r < got->NumSamples(); ++r) {
    has_row |= got->targets()(r, 0) == shard.targets()(0, 0);
  }
  EXPECT_TRUE(has_row);
}

TEST(RegionPoolingTest, NaNRowNeverMatches) {
  const std::vector<data::Dataset> shards = SmallShards();
  ASSERT_TRUE(std::isnan(shards[17].features()(0, 1)));
  query::RangeQuery everything;
  everything.region =
      query::HyperRectangle::FromFlatBounds(
          {-1e300, 1e300, -std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()})
          .value();
  const Result<data::Dataset> got = PoolRegionRows(shards, everything);
  ASSERT_TRUE(got.ok());
  ExpectSamePool(got, OraclePool(shards, everything));
  for (size_t r = 0; r < got->NumSamples(); ++r) {
    EXPECT_FALSE(std::isnan(got->features()(r, 1)));
  }
}

TEST(RegionPoolingTest, EmptyRegionIsNotFound) {
  const std::vector<data::Dataset> shards = SmallShards();
  query::RangeQuery outside;
  outside.region =
      query::HyperRectangle::FromFlatBounds({100, 200, 100, 200}).value();
  const Result<data::Dataset> got = PoolRegionRows(shards, outside);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  ExpectSamePool(got, OraclePool(shards, outside));
  ExpectSamePool(PoolRegionRows({}, outside), OraclePool({}, outside));
}

TEST(RegionPoolingTest, ShiftedShardsMatchShiftedCopies) {
  const std::vector<data::Dataset> shards = SmallShards();
  Rng rng(99);
  std::vector<std::vector<double>> shift(shards.size());
  std::vector<const std::vector<double>*> offsets(shards.size(), nullptr);
  for (size_t i = 0; i < shards.size(); ++i) {
    if (i % 3 != 0) continue;
    // Zero shifts included: a drifted node still reads x + 0.0.
    shift[i] = {i % 9 == 0 ? 0.0 : rng.Uniform(-0.7, 0.7), GridValue(&rng)};
    offsets[i] = &shift[i];
  }
  for (uint64_t q = 0; q < 200; ++q) {
    const query::RangeQuery query = GridQuery(&rng, q);
    ExpectSamePool(PoolRegionRows(shards, query, offsets),
                   OraclePool(shards, query, offsets));
  }
}

TEST(RegionPoolingTest, RejectsMismatchedShapes) {
  const std::vector<data::Dataset> shards = SmallShards();
  query::RangeQuery one_dim;
  one_dim.region = query::HyperRectangle::FromFlatBounds({0, 1}).value();
  ExpectSamePool(PoolRegionRows(shards, one_dim), OraclePool(shards, one_dim));
  query::RangeQuery query;
  query.region = query::HyperRectangle::FromFlatBounds({0, 1, 0, 1}).value();
  EXPECT_FALSE(PoolRegionRows(shards, query, {nullptr}).ok());
  const std::vector<double> short_shift = {1.0};
  std::vector<const std::vector<double>*> offsets(shards.size(), nullptr);
  offsets[3] = &short_shift;
  EXPECT_FALSE(PoolRegionRows(shards, query, offsets).ok());
}

/// 220 nodes of 2-9 grid rows: the 0.2 held-out split leaves most test
/// shards a single row.
std::vector<data::Dataset> FleetNodes() {
  Rng rng(5);
  std::vector<data::Dataset> nodes;
  for (size_t i = 0; i < 220; ++i) {
    const size_t n = static_cast<size_t>(rng.UniformInt(int64_t{2}, 9));
    Matrix x(n, kDims), y(n, 1);
    for (size_t r = 0; r < n; ++r) {
      for (size_t d = 0; d < kDims; ++d) x(r, d) = GridValue(&rng);
      y(r, 0) = x(r, 0) - 0.5 * x(r, 1) + rng.Gaussian(0.0, 0.1);
    }
    nodes.push_back(data::Dataset::Create(std::move(x), std::move(y)).value());
  }
  return nodes;
}

FederationOptions FleetOptions(bool normalize) {
  FederationOptions options;
  options.environment.kmeans.k = 2;
  options.normalize = normalize;
  options.seed = 13;
  return options;
}

TEST(RegionPoolingTest, FleetMatchesOracle) {
  for (bool normalize : {false, true}) {
    SCOPED_TRACE(normalize ? "normalized" : "raw units");
    std::shared_ptr<Fleet> fleet =
        Fleet::Create(FleetNodes(), FleetOptions(normalize)).value();
    size_t single_row = 0;
    for (const auto& shard : fleet->test_shards) {
      if (shard.NumSamples() == 1) ++single_row;
    }
    EXPECT_GT(single_row, 100u);
    Rng rng(31);
    size_t found = 0;
    for (uint64_t q = 0; q < 200; ++q) {
      const query::RangeQuery query = GridQuery(&rng, q);
      const query::RangeQuery internal = fleet->InternalQuery(query).value();
      const Result<data::Dataset> want =
          OraclePool(fleet->test_shards, internal);
      ExpectSamePool(fleet->QueryRegionTestData(query), want);
      if (want.ok()) ++found;
    }
    EXPECT_GT(found, 100u);
  }
}

TEST(RegionPoolingTest, DriftedDynamicFleetMatchesOracle) {
  FederationOptions options = FleetOptions(true);
  options.dynamic.enabled = true;
  options.dynamic.drift.seed = 3;
  options.dynamic.drift.rate = 0.3;
  options.dynamic.drift.feature_shift = 0.05;
  std::shared_ptr<const Fleet> fleet =
      Fleet::Create(FleetNodes(), options).value();
  DynamicFleet dynamic = DynamicFleet::Create(fleet).value();
  Leader leader(fleet->profiles, options.ranking, options.query_driven,
                fleet->ranking_index, fleet->fleet_epoch);

  Rng rng(41);
  auto check_stream = [&](uint64_t first_id) {
    std::vector<const std::vector<double>*> offsets(fleet->test_shards.size(),
                                                    nullptr);
    for (size_t i = 0; i < offsets.size(); ++i) {
      if (dynamic.HasDrifted(i)) offsets[i] = &dynamic.cumulative_offset(i);
    }
    for (uint64_t q = first_id; q < first_id + 50; ++q) {
      const query::RangeQuery query = GridQuery(&rng, q);
      const query::RangeQuery internal = fleet->InternalQuery(query).value();
      ExpectSamePool(dynamic.QueryRegionTestData(query),
                     OraclePool(fleet->test_shards, internal, offsets));
    }
  };

  // Before any drift event the dynamic path is the static one.
  check_stream(0);
  size_t drifted = 0;
  for (uint64_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(dynamic.BeginRound(&leader).ok());
    check_stream(100 * (round + 1));
  }
  for (size_t i = 0; i < fleet->test_shards.size(); ++i) {
    if (dynamic.HasDrifted(i)) ++drifted;
  }
  EXPECT_GT(drifted, 100u);
  EXPECT_LT(drifted, fleet->test_shards.size());

  query::RangeQuery outside;
  outside.region =
      query::HyperRectangle::FromFlatBounds({100, 200, 100, 200}).value();
  const Result<data::Dataset> empty = dynamic.QueryRegionTestData(outside);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(empty.status().message(), "no test rows inside the query region");
}

}  // namespace
}  // namespace qens::fl
