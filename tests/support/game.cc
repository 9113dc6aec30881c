#include "tests/support/game.h"

#include <set>

#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

CooperativeGame::CooperativeGame(int num_players,
                                 std::function<Rational(uint64_t)> utility)
    : num_players_(num_players), utility_(std::move(utility)) {
  SHAPCQ_CHECK(num_players >= 0);
  empty_value_ = utility_(0);
}

Rational CooperativeGame::Utility(uint64_t coalition) const {
  return utility_(coalition) - empty_value_;
}

StatusOr<Rational> CooperativeGame::Score(int player, ScoreKind kind) const {
  if (num_players_ > 26) {
    return UnsupportedError("game enumeration limited to 26 players");
  }
  SHAPCQ_CHECK(player >= 0 && player < num_players_);
  Combinatorics comb;
  uint64_t player_bit = uint64_t{1} << player;
  Rational score;
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_players_); ++mask) {
    if (mask & player_bit) continue;
    Rational delta = Utility(mask | player_bit) - Utility(mask);
    if (delta.is_zero()) continue;
    switch (kind) {
      case ScoreKind::kShapley:
        score += comb.ShapleyCoefficient(num_players_,
                                         __builtin_popcountll(mask)) *
                 delta;
        break;
      case ScoreKind::kBanzhaf:
        score += delta;
        break;
    }
  }
  if (kind == ScoreKind::kBanzhaf && num_players_ > 1) {
    score /= Rational(BigInt::TwoPow(static_cast<uint64_t>(num_players_ - 1)));
  }
  return score;
}

StatusOr<std::vector<Rational>> CooperativeGame::AllScores(
    ScoreKind kind) const {
  std::vector<Rational> scores;
  scores.reserve(static_cast<size_t>(num_players_));
  for (int p = 0; p < num_players_; ++p) {
    StatusOr<Rational> score = Score(p, kind);
    if (!score.ok()) return score.status();
    scores.push_back(std::move(score).value());
  }
  return scores;
}

StatusOr<bool> CooperativeGame::SatisfiesEfficiency() const {
  StatusOr<std::vector<Rational>> scores = AllScores();
  if (!scores.ok()) return scores.status();
  Rational total;
  for (const Rational& score : *scores) total += score;
  uint64_t grand = num_players_ == 0
                       ? 0
                       : (uint64_t{1} << num_players_) - 1;
  return total == Utility(grand);
}

StatusOr<bool> CooperativeGame::IsNullPlayer(int player) const {
  if (num_players_ > 26) {
    return UnsupportedError("game enumeration limited to 26 players");
  }
  uint64_t player_bit = uint64_t{1} << player;
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_players_); ++mask) {
    if (mask & player_bit) continue;
    if (Utility(mask | player_bit) != Utility(mask)) return false;
  }
  return true;
}

StatusOr<bool> CooperativeGame::AreSymmetric(int p, int q) const {
  if (num_players_ > 26) {
    return UnsupportedError("game enumeration limited to 26 players");
  }
  SHAPCQ_CHECK(p != q);
  uint64_t p_bit = uint64_t{1} << p;
  uint64_t q_bit = uint64_t{1} << q;
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_players_); ++mask) {
    if ((mask & p_bit) || (mask & q_bit)) continue;
    if (Utility(mask | p_bit) != Utility(mask | q_bit)) return false;
  }
  return true;
}

CooperativeGame SetCoverGame(int universe_size,
                             const std::vector<std::vector<int>>& sets) {
  SHAPCQ_CHECK(universe_size >= 1);
  std::vector<std::vector<int>> sets_copy = sets;
  int n = static_cast<int>(sets.size());
  return CooperativeGame(
      n, [universe_size, sets_copy](uint64_t coalition) {
        std::set<int> covered;
        for (size_t s = 0; s < sets_copy.size(); ++s) {
          if (coalition & (uint64_t{1} << s)) {
            covered.insert(sets_copy[s].begin(), sets_copy[s].end());
          }
        }
        return static_cast<int>(covered.size()) == universe_size
                   ? Rational(1)
                   : Rational(0);
      });
}

}  // namespace shapcq
