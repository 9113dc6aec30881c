// The sum_k framework (Section 3.2 of the paper).
//
// Every exact engine in this library computes, for a database D' and an
// aggregate query A, the series
//
//   sum_k(A, D') = Σ_{E ∈ (D'_n choose k)} A(E ∪ D'_x),   k = 0..|D'_n|.
//
// The Shapley value of a fact f in D follows from the series of two derived
// databases (F: f made exogenous; G: f removed):
//
//   Shapley(f, A) = Σ_k q_k · (sum_k(A, F) − sum_k(A, G)),
//   q_k = k!(n−k−1)!/n!,  n = |D_n|.
//
// The same differences yield the Banzhaf score with uniform weights
// 2^{−(n−1)} — the paper's remark that sum_k-based algorithms extend to all
// Shapley-like scores.

#ifndef SHAPCQ_SHAPLEY_SCORE_H_
#define SHAPCQ_SHAPLEY_SCORE_H_

#include <functional>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/util/fixed_int.h"
#include "shapcq/util/rational.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Declared in solver_options.h (which includes this header); passed through
// SumKEngine so engines see the configured budgets and thread counts.
struct SolverOptions;

enum class ScoreKind { kShapley, kBanzhaf };

// sum_k(A, D) for k = 0..|D_n| (length |D_n| + 1).
using SumKSeries = std::vector<Rational>;

// An exact engine: computes the sum_k series of A over a database, under
// the given solver options (budgets, thread counts). Every built-in engine
// also defaults the options parameter, so direct 2-argument calls work.
using SumKEngine = std::function<StatusOr<SumKSeries>(
    const AggregateQuery&, const Database&, const SolverOptions&)>;

// The weights of a score in integers over one shared denominator, for
// coalition sizes k = 0..n−1: Shapley q_k = k!(n−1−k)!/n!, Banzhaf
// 1/2^(n−1). Built once per n, then shared read-only by every fact.
class ScoreWeights {
 public:
  ScoreWeights(int64_t n, ScoreKind kind);

  int64_t n() const { return n_; }

 private:
  friend class WeightedSum;

  int64_t n_;
  ScoreKind kind_;
  std::vector<CountValue> numerators_;  // Shapley only: k!(n−1−k)!
  BigInt denominator_;                  // n! or 2^(n−1)
};

// Σ_k w_k·x_k for the weights w of a ScoreWeights: integral terms add
// their integer numerators, fractional ones one Rational, and the sum is
// divided by the shared denominator once — one normalisation per score,
// not one per term. Exact, so the result is the canonical Rational.
class WeightedSum {
 public:
  explicit WeightedSum(const ScoreWeights& weights) : w_(weights) {}

  void Add(size_t k, const CountValue& x);
  void Add(size_t k, const Rational& x);
  Rational Result() const;

 private:
  const ScoreWeights& w_;
  CountValue integral_;  // Σ numerator_k·x_k over integral x_k
  Rational fractional_;  // Σ numerator_k·x_k over fractional x_k
};

// Combines the series of F (f exogenous) and G (f removed) into the score of
// f in the original n-player game. Both series must have length n (entries
// k = 0..n−1). The kind form builds the weights per call; batched scorers
// build them once and pass them in.
Rational ScoreFromSumK(const SumKSeries& series_f_exogenous,
                       const SumKSeries& series_f_removed,
                       const ScoreWeights& weights);
Rational ScoreFromSumK(const SumKSeries& series_f_exogenous,
                       const SumKSeries& series_f_removed, ScoreKind kind);

// The series of G (f removed) derived from the full database's series and
// F's via the partition identity — split the k-subsets of D_n by
// membership of f:
//   sum_k(A, D) = sum_k(A, G_f) + sum_{k−1}(A, F_f).
// `full_series` must have length n+1 and `series_f_exogenous` length n;
// exact rational subtraction on canonical forms makes the result value-
// and representation-identical to solving G directly. The batched engine
// scorers use this so no G solve ever runs.
SumKSeries RemovedSeriesFromIdentity(const SumKSeries& full_series,
                                     const SumKSeries& series_f_exogenous);

// Runs `engine` on F and G and combines. `fact` must be endogenous in `db`.
// The ScoreKind form runs the engine under default solver options; the
// SolverOptions overload forwards the full options (score kind included)
// into every engine call.
StatusOr<Rational> ScoreViaSumK(const AggregateQuery& a, const Database& db,
                                FactId fact, const SumKEngine& engine,
                                ScoreKind kind = ScoreKind::kShapley);
StatusOr<Rational> ScoreViaSumK(const AggregateQuery& a, const Database& db,
                                FactId fact, const SumKEngine& engine,
                                const SolverOptions& options);

// General semivalue: Σ_k weights[k] · (sum_k(A,F) − sum_k(A,G)) for a
// caller-supplied coefficient vector over coalition sizes k = 0..n−1
// (the paper's "Shapley-like scores" in full generality). Shapley uses
// weights q_k = 1/(n·C(n−1,k)); Banzhaf uses 2^{−(n−1)} uniformly. The
// weights of a probabilistic semivalue should satisfy
// Σ_k C(n−1,k)·weights[k] = 1, but this is not enforced.
Rational SemivalueFromSumK(const SumKSeries& series_f_exogenous,
                           const SumKSeries& series_f_removed,
                           const std::vector<Rational>& weights);

// Expected query result over the uniform tuple-independent probabilistic
// database in which every endogenous fact is present independently with
// probability p (exogenous facts are certain):
//   E[A] = Σ_k p^k (1−p)^{n−k} · sum_k(A, D).
// This is the bridge to expected Shapley-like scores over probabilistic
// databases discussed in the paper's Section 8.
Rational ExpectedValueFromSumK(const SumKSeries& series, const Rational& p);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SCORE_H_
