// Exact rational arithmetic on top of BigInt.
//
// Shapley values of aggregate queries are rationals whose denominators grow
// like n! (the permutation coefficients), so all exact algorithms in this
// library compute with Rational end to end. Values are kept normalized:
// gcd(num, den) == 1, den > 0, and 0 is represented as 0/1.

#ifndef SHAPCQ_UTIL_RATIONAL_H_
#define SHAPCQ_UTIL_RATIONAL_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "shapcq/util/bigint.h"
#include "shapcq/util/status.h"

namespace shapcq {

class Rational {
 public:
  // Constructs zero.
  Rational() : numerator_(0), denominator_(1) {}
  // Intentionally implicit: integers coerce to rationals.
  Rational(int64_t value) : numerator_(value), denominator_(1) {}  // NOLINT
  Rational(int value) : Rational(static_cast<int64_t>(value)) {}   // NOLINT
  Rational(BigInt value)                                           // NOLINT
      : numerator_(std::move(value)), denominator_(1) {}
  // Constructs numerator/denominator (normalized); aborts on zero denominator.
  Rational(BigInt numerator, BigInt denominator);

  // Parses "a", "-a/b", "a/b" decimal forms.
  static StatusOr<Rational> FromString(std::string_view text);
  // Exact conversion from a finite double (every finite double is rational).
  static Rational FromDouble(double value);

  const BigInt& numerator() const { return numerator_; }
  const BigInt& denominator() const { return denominator_; }

  bool is_zero() const { return numerator_.is_zero(); }
  bool is_negative() const { return numerator_.is_negative(); }
  bool is_integer() const { return denominator_.is_one(); }
  int sign() const { return numerator_.sign(); }

  double ToDouble() const;
  // "a" when integral, otherwise "a/b".
  std::string ToString() const;

  Rational operator-() const;

  Rational& operator+=(const Rational& other);
  Rational& operator-=(const Rational& other);
  Rational& operator*=(const Rational& other);
  // Aborts on division by zero.
  Rational& operator/=(const Rational& other);

  friend Rational operator+(Rational lhs, const Rational& rhs) {
    return lhs += rhs;
  }
  friend Rational operator-(Rational lhs, const Rational& rhs) {
    return lhs -= rhs;
  }
  friend Rational operator*(Rational lhs, const Rational& rhs) {
    return lhs *= rhs;
  }
  friend Rational operator/(Rational lhs, const Rational& rhs) {
    return lhs /= rhs;
  }

  // Three-way comparison: negative/zero/positive as lhs <=> rhs.
  static int Compare(const Rational& lhs, const Rational& rhs);

  // Absolute value.
  static Rational Abs(const Rational& value);

  // Floor/ceiling as BigInt (toward -inf / +inf respectively).
  BigInt Floor() const;
  BigInt Ceil() const;

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.numerator_ == b.numerator_ && a.denominator_ == b.denominator_;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return !(a == b);
  }
  friend bool operator<(const Rational& a, const Rational& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const Rational& a, const Rational& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const Rational& a, const Rational& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return Compare(a, b) >= 0;
  }

  friend std::ostream& operator<<(std::ostream& os, const Rational& value);

 private:
  void Normalize();

  BigInt numerator_;
  BigInt denominator_;  // always positive
};

}  // namespace shapcq

#endif  // SHAPCQ_UTIL_RATIONAL_H_
