// Cooperative games (Section 2 of the paper) as a standalone abstraction.
//
// A cooperative game is (P, ν) with ν(∅) = 0. The database setting
// instantiates P with the endogenous facts and ν(C) = A(C ∪ D_x) − A(D_x);
// the hardness proofs instantiate it with e.g. the Set-Cover game. This
// module provides exact Shapley/Banzhaf values for arbitrary small games by
// enumeration — the reference semantics every reduction is checked against —
// plus the axioms as predicates for property tests.

#ifndef SHAPCQ_TESTS_SUPPORT_GAME_H_
#define SHAPCQ_TESTS_SUPPORT_GAME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "shapcq/shapley/score.h"
#include "shapcq/util/rational.h"
#include "shapcq/util/status.h"

namespace shapcq {

// A cooperative game over players 0..num_players−1 with a set-function
// utility given on bitmasks. The implementation enforces ν(∅) = 0 by
// shifting: effective ν(C) = utility(C) − utility(∅).
class CooperativeGame {
 public:
  // `utility` is called with a bitmask over players; must be deterministic.
  CooperativeGame(int num_players, std::function<Rational(uint64_t)> utility);

  int num_players() const { return num_players_; }
  // Effective utility (shifted so that ν(∅) = 0).
  Rational Utility(uint64_t coalition) const;

  // Exact score by enumeration over the 2^(n−1) coalitions avoiding the
  // player. Requires num_players <= 26.
  StatusOr<Rational> Score(int player,
                           ScoreKind kind = ScoreKind::kShapley) const;
  StatusOr<std::vector<Rational>> AllScores(
      ScoreKind kind = ScoreKind::kShapley) const;

  // Axiom predicates (enumeration-based; same size limits).
  // Σ_p Shapley(p) == ν(P).
  StatusOr<bool> SatisfiesEfficiency() const;
  // ν(C ∪ {p}) == ν(C) for all C implies Shapley(p) == 0.
  StatusOr<bool> IsNullPlayer(int player) const;
  // Players p, q interchangeable w.r.t. ν.
  StatusOr<bool> AreSymmetric(int p, int q) const;

 private:
  int num_players_;
  std::function<Rational(uint64_t)> utility_;
  Rational empty_value_;
};

// The Set-Cover game of Lemma D.5: players are sets, ν(C) = 1 iff the
// chosen sets cover {1..universe_size}.
CooperativeGame SetCoverGame(int universe_size,
                             const std::vector<std::vector<int>>& sets);

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_SUPPORT_GAME_H_
