// Score assembly in integers: ScoreFromSumK's shared-denominator weights
// and the bucketed Avg/Qnt series, each against the per-term Rational
// formula it replaced, kept here as the reference.

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/avg_quantile_dp.h"
#include "shapcq/shapley/score.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/fixed_int.h"

namespace shapcq {
namespace {

Rational R(int64_t n, int64_t d) { return Rational(BigInt(n), BigInt(d)); }

// A random signed integer of up to ~200 bits, 0 a quarter of the time.
BigInt RandomInteger(std::mt19937_64* rng) {
  if ((*rng)() % 4 == 0) return BigInt();
  BigInt value(static_cast<int64_t>((*rng)() % 1000) + 1);
  for (int words = static_cast<int>((*rng)() % 4); words > 0; --words) {
    value = value * BigInt::TwoPow(50) +
            BigInt(static_cast<int64_t>((*rng)() >> 14));
  }
  if ((*rng)() % 2 == 0) value.Negate();
  return value;
}

SumKSeries RandomSeries(std::mt19937_64* rng, size_t length,
                        bool fractional) {
  SumKSeries series(length);
  for (Rational& entry : series) {
    entry = Rational(RandomInteger(rng));
    if (fractional && (*rng)() % 3 != 0) {
      entry /= Rational(static_cast<int64_t>((*rng)() % 40) + 1);
    }
  }
  return series;
}

// Σ_k ShapleyCoefficient(n, k)·(F_k − G_k), or Σ_k (F_k − G_k)/2^(n−1):
// one Rational per term.
Rational ScoreReference(const SumKSeries& f, const SumKSeries& g,
                        ScoreKind kind) {
  const int64_t n = static_cast<int64_t>(f.size());
  Combinatorics comb;
  Rational score;
  for (int64_t k = 0; k < n; ++k) {
    const Rational delta =
        f[static_cast<size_t>(k)] - g[static_cast<size_t>(k)];
    score += kind == ScoreKind::kShapley
                 ? comb.ShapleyCoefficient(n, k) * delta
                 : delta / Rational(BigInt::TwoPow(static_cast<uint64_t>(
                               n - 1)));
  }
  return score;
}

TEST(ScoreAssemblyTest, ScoreFromSumKMatchesPerTermCoefficients) {
  std::mt19937_64 rng(3141);
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    for (bool fractional : {false, true}) {
      for (size_t n = 1; n <= 12; ++n) {
        const ScoreWeights weights(static_cast<int64_t>(n), kind);
        for (int trial = 0; trial < 8; ++trial) {
          const SumKSeries f = RandomSeries(&rng, n, fractional);
          // G equal to F in some entries, so some deltas are exact zeros.
          SumKSeries g = RandomSeries(&rng, n, fractional);
          for (size_t k = 0; k < n; k += 3) g[k] = f[k];
          const Rational expected = ScoreReference(f, g, kind);
          EXPECT_EQ(ScoreFromSumK(f, g, weights), expected)
              << "n=" << n << " fractional=" << fractional;
          EXPECT_EQ(ScoreFromSumK(f, g, kind), expected);
        }
      }
    }
  }
}

TEST(ScoreAssemblyTest, WeightedSumOfCountValuesMatchesRationalTerms) {
  // The batched Sum/Count scorer adds CountValue deltas, escaping past
  // 2^256, next to Rational ones: same value either way.
  std::mt19937_64 rng(2718);
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    for (int64_t n : {1, 5, 12, 60}) {
      const ScoreWeights weights(n, kind);
      Combinatorics comb;
      WeightedSum sum(weights);
      Rational expected;
      for (int64_t k = 0; k < n; ++k) {
        BigInt integral = RandomInteger(&rng);
        if (k % 5 == 0) integral *= BigInt::TwoPow(250);
        const Rational fractional = RandomSeries(&rng, 1, true)[0];
        sum.Add(static_cast<size_t>(k), CountValue(integral));
        sum.Add(static_cast<size_t>(k), fractional);
        const Rational weight =
            kind == ScoreKind::kShapley
                ? comb.ShapleyCoefficient(n, k)
                : Rational(BigInt(1),
                           BigInt::TwoPow(static_cast<uint64_t>(n - 1)));
        expected += weight * (Rational(integral) + fractional);
      }
      EXPECT_EQ(sum.Result(), expected) << "n=" << n;
    }
  }
}

// The per-cell f_q of the Qnt series before integer assembly: thresholds
// in Rationals for every profile.
Rational QuantileContributionReference(const Rational& q, int64_t less,
                                       int64_t equal, int64_t greater) {
  const int64_t total = less + equal + greater;
  if (total == 0 || equal == 0) return Rational(0);
  const Rational qn = q * Rational(total);
  const int64_t i1 = qn.Ceil().ToInt64();
  const int64_t i2 = (qn + Rational(1)).Floor().ToInt64();
  Rational contribution;
  if (less < i1 && less + equal >= i1) contribution += Rational(1);
  if (less < i2 && less + equal >= i2) contribution += Rational(1);
  return contribution / Rational(2);
}

TEST(ScoreAssemblyTest, QuantilePositionsMatchPerCellThresholds) {
  // q = 0 and q = 1 are outside AggregateFunction::Quantile's range but
  // are the edges of the threshold arithmetic.
  for (const Rational& q : {Rational(0), R(1, 3), R(1, 2), Rational(1)}) {
    for (int64_t size = 1; size <= 12; ++size) {
      const QuantilePositions positions(q, size);
      for (int64_t less = 0; less <= size; ++less) {
        for (int64_t equal = 1; less + equal <= size; ++equal) {
          const int64_t greater = size - less - equal;
          EXPECT_EQ(Rational(positions.TwiceContribution(less, equal)) /
                        Rational(2),
                    QuantileContributionReference(q, less, equal, greater))
              << "q=" << q << " profile " << less << "/" << equal << "/"
              << greater;
        }
      }
    }
  }
}

// Series of a keyed profile, one Rational per (anchor, profile) cell.
SumKSeries SeriesReference(const BagProfile<CountValue>& p,
                           const std::vector<Rational>& anchors,
                           const AggregateFunction& alpha) {
  SumKSeries series(static_cast<size_t>(p.num_endogenous) + 1);
  for (size_t i = 0; i < anchors.size(); ++i) {
    for (const auto& [key, count] : p.by_anchor[i]) {
      const int64_t less = key[1], equal = key[2], greater = key[3];
      if (equal == 0) continue;
      const Rational weight =
          alpha.kind() == AggKind::kAvg
              ? Rational(equal) / Rational(less + equal + greater)
              : QuantileContributionReference(alpha.quantile(), less, equal,
                                              greater);
      series[static_cast<size_t>(key[0])] +=
          anchors[i] * weight * Rational(count.ToBigInt());
    }
  }
  return series;
}

TEST(ScoreAssemblyTest, BagProfileSeriesMatchesPerCellWeights) {
  std::mt19937_64 rng(1618);
  const ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  const ValueFunctionPtr tau = MakeTauId(0);
  const std::vector<AggregateFunction> alphas = {
      AggregateFunction::Avg(), AggregateFunction::Quantile(R(1, 3)),
      AggregateFunction::Median(), AggregateFunction::Quantile(R(9, 10))};
  for (int trial = 0; trial < 40; ++trial) {
    // Ascending anchors, negative and fractional ones included.
    std::vector<Rational> anchors;
    Rational anchor = R(-7, 2);
    for (int i = 0; i < 1 + trial % 5; ++i) {
      anchor += R(static_cast<int64_t>(rng() % 9) + 1, 3);
      anchors.push_back(anchor);
    }
    BagProfile<CountValue> p;
    p.keyed = true;
    p.num_endogenous = 2 + static_cast<int>(rng() % 10);
    p.by_anchor.resize(anchors.size());
    for (QuintupleMap<CountValue>& cells : p.by_anchor) {
      for (int cell = 0; cell < 30; ++cell) {
        const std::array<int, 4> key = {
            static_cast<int>(rng() % static_cast<uint64_t>(
                                         p.num_endogenous + 1)),
            static_cast<int>(rng() % 6), static_cast<int>(rng() % 4),
            static_cast<int>(rng() % 6)};
        // Counts past 2^256 in some cells: the escape path sums too.
        BigInt count = RandomInteger(&rng);
        if (count.is_negative()) count.Negate();
        if (cell % 7 == 0) count *= BigInt::TwoPow(240);
        cells[key] = CountValue(count);
      }
    }
    for (const AggregateFunction& alpha : alphas) {
      BagProfileStructure<CountValue> structure({q, tau, alpha}, anchors);
      EXPECT_EQ(structure.Series(p), SeriesReference(p, anchors, alpha))
          << alpha.ToString() << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace shapcq
