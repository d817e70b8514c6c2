// Tests for the deterministic RNG: reproducibility, distribution sanity,
// sampling helpers.

#include "qens/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

namespace qens {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 8.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 8.25);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.Uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversDomainWithoutBias) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(uint64_t{10})];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

/// The rejection sampler UniformInt replaced: it computed the rejection
/// limit max - max % n before every draw.
uint64_t ReferenceUniformInt(Rng* rng, uint64_t n) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  const uint64_t limit = max - max % n;
  uint64_t x;
  do {
    x = rng->Next();
  } while (x >= limit);
  return x % n;
}

TEST(RngTest, UniformIntDrawsMatchReferenceSampler) {
  // Same values AND the same number of raw draws consumed, checked through
  // the generators' next outputs. Large n is where rejection happens: at
  // n = 2^63 + 1 almost half of all raw draws are rejected.
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  const std::vector<uint64_t> ns = {
      1,           2,           3,           7,
      32,          1000,        (1ull << 32) - 1,
      (1ull << 32), (1ull << 32) + 1, (1ull << 62) + 3,
      1ull << 63,  (1ull << 63) + 1, (1ull << 63) + (1ull << 62),
      max - 1,     max};
  for (uint64_t seed : {1ull, 99ull, 2023ull}) {
    for (uint64_t n : ns) {
      Rng got(seed);
      Rng want(seed);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(got.UniformInt(n), ReferenceUniformInt(&want, n))
            << "n=" << n << " seed=" << seed << " draw " << i;
      }
      EXPECT_EQ(got.Next(), want.Next()) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(RngTest, UniformIntRejectsAboveTheLimit) {
  // At n = 2^63 + 1 the limit is n itself: the sampler must skip raw draws
  // >= n, which the accept-at-once test (x <= max - n) never admits.
  const uint64_t n = (1ull << 63) + 1;
  Rng raw(7);
  Rng rng(7);
  size_t rejected = 0;
  for (int i = 0; i < 200; ++i) {
    uint64_t x = raw.Next();
    while (x >= n) {
      ++rejected;
      x = raw.Next();
    }
    ASSERT_EQ(rng.UniformInt(n), x % n);
  }
  EXPECT_GT(rejected, 50u);
  // Pinned first draws (seed 7), as the reference sampler produced them.
  Rng pinned(7);
  const std::vector<uint64_t> first = {
      309689372594955804ull,  8346079845500723674ull, 4601199455465548305ull,
      8632209307422871798ull, 6051947643683389182ull, 2476628477891077985ull};
  for (uint64_t v : first) EXPECT_EQ(pinned.UniformInt(n), v);
  EXPECT_EQ(pinned.Next(), 7621113624420504425ull);
}

TEST(RngTest, ShuffleOutputIsPinned) {
  // Two shuffles of 0..15 per seed, as the reference sampler produced them;
  // every training order in the library is a Shuffle, so any change here
  // changes trained models.
  struct Golden {
    uint64_t seed;
    std::vector<size_t> order;
    uint64_t next;
  };
  const std::vector<Golden> goldens = {
      {1, {12, 15, 13, 5, 10, 9, 11, 6, 3, 0, 4, 14, 7, 1, 8, 2},
       10820770463232788922ull},
      {42, {13, 14, 11, 10, 12, 1, 8, 2, 0, 3, 15, 9, 7, 6, 5, 4},
       15504792434803289182ull},
      {2023, {15, 13, 0, 10, 12, 4, 9, 5, 3, 1, 14, 8, 6, 7, 11, 2},
       17188602985111479078ull},
  };
  for (const Golden& g : goldens) {
    std::vector<size_t> v(16);
    std::iota(v.begin(), v.end(), size_t{0});
    Rng rng(g.seed);
    rng.Shuffle(&v);
    rng.Shuffle(&v);
    EXPECT_EQ(v, g.order) << "seed " << g.seed;
    EXPECT_EQ(rng.Next(), g.next) << "seed " << g.seed;
  }
  // And against the reference sampler on a training-sized index vector.
  for (uint64_t seed : {3ull, 17ull}) {
    std::vector<size_t> got(1500);
    std::iota(got.begin(), got.end(), size_t{0});
    std::vector<size_t> want = got;
    Rng a(seed);
    Rng b(seed);
    for (int epoch = 0; epoch < 5; ++epoch) {
      a.Shuffle(&got);
      for (size_t i = want.size() - 1; i > 0; --i) {
        std::swap(want[i], want[ReferenceUniformInt(&b, i + 1)]);
      }
      ASSERT_EQ(got, want) << "seed " << seed << " epoch " << epoch;
    }
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(15);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = rng.Exponential(2.0);
    EXPECT_GE(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(25);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(27);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 42);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(20, 8);
    ASSERT_EQ(sample.size(), 8u);
    std::set<size_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), 8u);
    for (size_t s : sample) EXPECT_LT(s, 20u);
  }
}

TEST(RngTest, SampleAllElements) {
  Rng rng(31);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(33);
  const std::vector<double> w{0.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(35);
  const std::vector<double> w{0.0, 0.0, 0.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(w)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(RngTest, WeightedIndexClampsNegativeWeights) {
  // A negative weight must behave exactly like a zero weight: never picked,
  // and not skewing the other entries' probabilities.
  Rng rng(37);
  const std::vector<double> w{-5.0, 1.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexClampsNaNWeights) {
  // NaN must not poison the total (NaN total would make every comparison
  // false and always return the last index).
  Rng rng(39);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> w{nan, 2.0, nan, 2.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedIndex(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.5, 0.01);
}

TEST(RngTest, WeightedIndexAllNegativeOrNaNFallsBackToUniform) {
  Rng rng(41);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> w{-1.0, nan, -0.5, nan};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(w)];
  for (int c : counts) EXPECT_GT(c, 8000);
}

TEST(RngTest, WeightedIndexValidWeightsDrawIdenticalToClampedRun) {
  // Clamping must not change the draw sequence for valid inputs: a stream
  // fed {1, 2} and one fed {1, 2} after clamped calls stay in lockstep
  // because invalid entries consume no RNG state beyond the one draw.
  Rng a(43);
  Rng b(43);
  const std::vector<double> valid{1.0, 2.0, 4.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.WeightedIndex(valid), b.WeightedIndex(valid));
  }
}

TEST(RngTest, ForkIsDeterministicAndDecorrelated) {
  Rng parent(101);
  Rng f1 = parent.Fork(1);
  Rng f1_again = Rng(101).Fork(1);
  EXPECT_EQ(f1.Next(), f1_again.Next());
  Rng f2 = parent.Fork(2);
  int differing = 0;
  Rng g1 = parent.Fork(1);
  for (int i = 0; i < 32; ++i) {
    if (g1.Next() != f2.Next()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng a(55), b(55);
  (void)a.Fork(3);
  EXPECT_EQ(a.Next(), b.Next());
}

}  // namespace
}  // namespace qens
