// Direct tests for the answer-count distribution substrate (the "non-R
// side" structure of Section 5.1) and the shared DP utilities.

#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/data/database.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/answer_counts.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

// Brute-force answer-count distribution: enumerate subsets, evaluate.
AnswerCountMap BruteForceDistribution(const ConjunctiveQuery& q,
                                      const Database& db) {
  SubsetEvaluator evaluator(q, db);
  AnswerCountMap counts;
  int n = evaluator.num_players();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    int k = __builtin_popcountll(mask);
    int answers = static_cast<int>(evaluator.AnswersFor(mask).size());
    counts[{k, answers}] += BigInt(1);
  }
  return counts;
}

void ExpectSameDistribution(const AnswerCountMap& a, const AnswerCountMap& b) {
  // Compare ignoring zero-valued entries.
  auto normalized = [](const AnswerCountMap& m) {
    AnswerCountMap out;
    for (const auto& [key, count] : m) {
      if (!count.is_zero()) out[key] = count;
    }
    return out;
  };
  AnswerCountMap na = normalized(a);
  AnswerCountMap nb = normalized(b);
  ASSERT_EQ(na.size(), nb.size());
  for (const auto& [key, count] : na) {
    auto it = nb.find(key);
    ASSERT_TRUE(it != nb.end()) << "(" << key.first << "," << key.second << ")";
    EXPECT_EQ(count, it->second)
        << "(" << key.first << "," << key.second << ")";
  }
}

TEST(AnswerCountsTest, MatchesBruteForceOnQHierarchicalQueries) {
  std::vector<const char*> queries = {
      "Q(x) <- R(x)",
      "Q(x, y) <- R(x, y)",
      "Q(x, y) <- R(x, y), S(y)",
      "Q(x) <- R(x), S(x, y)",
      "Q(x, z) <- R(x), T(z)",
      "Q() <- R(x, y), S(y)",
  };
  for (const char* text : queries) {
    ConjunctiveQuery q = MustParseQuery(text);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RandomDatabaseOptions options;
      options.facts_per_relation = 4;
      options.seed = seed;
      Database db = RandomDatabaseForQuery(q, options);
      Combinatorics comb;
      RelevanceSplit split = SplitRelevant(q, AllFacts(db));
      AnswerCountMap dp =
          AnswerCountDistribution(q, split.relevant, &comb);
      dp = PadAnswerCounts(dp, split.irrelevant_endogenous, &comb);
      AnswerCountMap expected = BruteForceDistribution(q, db);
      ExpectSameDistribution(dp, expected);
    }
  }
}

TEST(AnswerCountsTest, RowsSumToBinomials) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 3;
  Database db = RandomDatabaseForQuery(q, options);
  Combinatorics comb;
  RelevanceSplit split = SplitRelevant(q, AllFacts(db));
  AnswerCountMap dp = AnswerCountDistribution(q, split.relevant, &comb);
  dp = PadAnswerCounts(dp, split.irrelevant_endogenous, &comb);
  int n = db.num_endogenous();
  std::map<int, BigInt> per_k;
  for (const auto& [key, count] : dp) per_k[key.first] += count;
  for (int k = 0; k <= n; ++k) {
    EXPECT_EQ(per_k[k], comb.Binomial(n, k)) << "k=" << k;
  }
}

TEST(AnswerCountsTest, PadShiftsOnlyK) {
  Combinatorics comb;
  AnswerCountMap base = {{{0, 0}, BigInt(1)}, {{1, 2}, BigInt(3)}};
  AnswerCountMap padded = PadAnswerCounts(base, 2, &comb);
  EXPECT_EQ(padded[std::make_pair(0, 0)], BigInt(1));
  EXPECT_EQ(padded[std::make_pair(1, 0)], BigInt(2));  // C(2,1)
  EXPECT_EQ(padded[std::make_pair(2, 0)], BigInt(1));
  EXPECT_EQ(padded[std::make_pair(1, 2)], BigInt(3));
  EXPECT_EQ(padded[std::make_pair(2, 2)], BigInt(6));  // 3 * C(2,1)
  EXPECT_EQ(padded[std::make_pair(3, 2)], BigInt(3));
}

// ---------------------------------------------------------------------------
// dp_util
// ---------------------------------------------------------------------------

TEST(DpUtilTest, ConvolveBasics) {
  std::vector<BigInt> a = {BigInt(1), BigInt(2)};
  std::vector<BigInt> b = {BigInt(3), BigInt(4), BigInt(5)};
  std::vector<BigInt> c = Convolve(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0].ToInt64(), 3);
  EXPECT_EQ(c[1].ToInt64(), 10);
  EXPECT_EQ(c[2].ToInt64(), 13);
  EXPECT_EQ(c[3].ToInt64(), 10);
  EXPECT_TRUE(Convolve({}, b).empty());
}

// The schoolbook BigInt double loop Convolve replaced, kept as the
// reference: one temporary product per term.
std::vector<BigInt> ConvolveReference(const std::vector<BigInt>& a,
                                      const std::vector<BigInt>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<BigInt> out(a.size() + b.size() - 1);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  }
  return out;
}

// A random signed entry of up to `words` 64-bit words; about a third are
// zero, and zeros come in runs.
BigInt RandomEntry(std::mt19937_64* rng, int words) {
  if ((*rng)() % 3 == 0) return BigInt();
  BigInt value;
  const int used =
      1 + static_cast<int>((*rng)() % static_cast<uint64_t>(words));
  for (int w = 0; w < used; ++w) {
    const uint64_t word = (*rng)();
    value = value * BigInt::TwoPow(64) +
            BigInt::TwoPow(32) * BigInt(static_cast<int64_t>(word >> 32)) +
            BigInt(static_cast<int64_t>(word & 0xffffffffu));
  }
  if ((*rng)() % 2 == 0) value.Negate();
  return value;
}

std::vector<BigInt> RandomRow(std::mt19937_64* rng, size_t length,
                              int words) {
  std::vector<BigInt> row(length);
  for (size_t i = 0; i < length; ++i) {
    // Zero runs: repeat the previous zero with probability 1/2.
    if (i > 0 && row[i - 1].is_zero() && (*rng)() % 2 == 0) continue;
    row[i] = RandomEntry(rng, words);
  }
  return row;
}

TEST(DpUtilTest, ConvolveMatchesReferenceOnSignedRowsOfEveryShortLength) {
  std::mt19937_64 rng(4242);
  for (size_t la = 1; la <= 40; ++la) {
    for (size_t lb = 1; lb <= 40; ++lb) {
      const std::vector<BigInt> a = RandomRow(&rng, la, 1 + (la + lb) % 3);
      const std::vector<BigInt> b = RandomRow(&rng, lb, 1 + la % 2);
      ASSERT_EQ(Convolve(a, b), ConvolveReference(a, b))
          << "lengths " << la << " x " << lb;
    }
  }
}

TEST(DpUtilTest, ConvolveMatchesReferenceAcrossWidthsAndSigns) {
  std::mt19937_64 rng(977);
  // 1-word x 8-word operands, both orders, every sign mix.
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<BigInt> narrow = RandomRow(&rng, 1 + rng() % 30, 1);
    const std::vector<BigInt> wide = RandomRow(&rng, 1 + rng() % 30, 8);
    ASSERT_EQ(Convolve(narrow, wide), ConvolveReference(narrow, wide));
    ASSERT_EQ(Convolve(wide, narrow), ConvolveReference(wide, narrow));
  }
  // Cancellation to an exact zero, and a negative coefficient whose two's
  // complement spans every word of the accumulator.
  const std::vector<BigInt> a = {BigInt(1), BigInt(-1)};
  const std::vector<BigInt> b = {BigInt::TwoPow(200), BigInt::TwoPow(200)};
  const std::vector<BigInt> c = Convolve(a, b);
  EXPECT_EQ(c, ConvolveReference(a, b));
  EXPECT_TRUE(c[1].is_zero());
  EXPECT_EQ(c[2], -BigInt::TwoPow(200));
  // All-zero and single-entry operands.
  EXPECT_EQ(Convolve({BigInt(), BigInt()}, {BigInt(5)}),
            (std::vector<BigInt>{BigInt(), BigInt()}));
  EXPECT_EQ(Convolve({BigInt(-3)}, {BigInt(-4)}),
            (std::vector<BigInt>{BigInt(12)}));
}

TEST(DpUtilTest, ConvolveIsExactPast256Bits) {
  // Rows of C(450, k) reach ~2^445 (7 words); their product row 900
  // reaches ~2^895, with no width cap in between.
  Combinatorics comb;
  const std::vector<BigInt>& row = comb.BinomialRow(450);
  EXPECT_GT(row[225].BitLength(), 256);
  EXPECT_EQ(Convolve(row, row), ConvolveReference(row, row));
  EXPECT_EQ(Convolve(row, row), comb.BinomialRow(900));
  std::vector<BigInt> signed_row = row;
  for (size_t k = 1; k < signed_row.size(); k += 2) signed_row[k].Negate();
  EXPECT_EQ(Convolve(signed_row, row), ConvolveReference(signed_row, row));
}

TEST(DpUtilTest, ConvolveOfEmptyInputsIsEmpty) {
  const std::vector<BigInt> row = {BigInt(1), BigInt(2)};
  EXPECT_TRUE(Convolve({}, {}).empty());
  EXPECT_TRUE(Convolve(row, {}).empty());
  EXPECT_TRUE(Convolve({}, row).empty());
}

TEST(DpUtilTest, BinomialVectorAndPad) {
  Combinatorics comb;
  std::vector<BigInt> row = BinomialVector(4, &comb);
  ASSERT_EQ(row.size(), 5u);
  EXPECT_EQ(row[2].ToInt64(), 6);
  // Padding [1] by m equals the binomial vector.
  EXPECT_EQ(PadCounts({BigInt(1)}, 4, &comb), row);
  // Padding by 0 is identity.
  EXPECT_EQ(PadCounts(row, 0, &comb), row);
}

TEST(DpUtilTest, VandermondeViaConvolution) {
  // Convolving binomial vectors: C(a+b, k) = Σ C(a,j)C(b,k−j).
  Combinatorics comb;
  EXPECT_EQ(Convolve(BinomialVector(5, &comb), BinomialVector(7, &comb)),
            BinomialVector(12, &comb));
}

TEST(DpUtilTest, SubtractCounts) {
  std::vector<BigInt> a = {BigInt(5), BigInt(3)};
  std::vector<BigInt> b = {BigInt(2), BigInt(3)};
  std::vector<BigInt> c = SubtractCounts(a, b);
  EXPECT_EQ(c[0].ToInt64(), 3);
  EXPECT_TRUE(c[1].is_zero());
}

}  // namespace
}  // namespace shapcq
