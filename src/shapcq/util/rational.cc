#include "shapcq/util/rational.h"

#include <cmath>
#include <ostream>
#include <utility>

#include "shapcq/util/check.h"

namespace shapcq {

Rational::Rational(BigInt numerator, BigInt denominator)
    : numerator_(std::move(numerator)), denominator_(std::move(denominator)) {
  SHAPCQ_CHECK(!denominator_.is_zero());
  Normalize();
}

StatusOr<Rational> Rational::FromString(std::string_view text) {
  size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    StatusOr<BigInt> value = BigInt::FromString(text);
    if (!value.ok()) return value.status();
    return Rational(std::move(value).value());
  }
  StatusOr<BigInt> numerator = BigInt::FromString(text.substr(0, slash));
  if (!numerator.ok()) return numerator.status();
  StatusOr<BigInt> denominator = BigInt::FromString(text.substr(slash + 1));
  if (!denominator.ok()) return denominator.status();
  if (denominator->is_zero()) {
    return InvalidArgumentError("rational literal with zero denominator");
  }
  return Rational(std::move(numerator).value(),
                  std::move(denominator).value());
}

Rational Rational::FromDouble(double value) {
  SHAPCQ_CHECK(std::isfinite(value));
  if (value == 0.0) return Rational();
  int exponent = 0;
  // mantissa in [0.5, 1); value = mantissa * 2^exponent.
  double mantissa = std::frexp(value, &exponent);
  // 53 doublings make the mantissa integral for IEEE-754 binary64.
  int64_t scaled = static_cast<int64_t>(std::ldexp(mantissa, 53));
  exponent -= 53;
  BigInt numerator(scaled);
  if (exponent >= 0) {
    return Rational(numerator * BigInt::TwoPow(static_cast<uint64_t>(exponent)));
  }
  return Rational(std::move(numerator),
                  BigInt::TwoPow(static_cast<uint64_t>(-exponent)));
}

double Rational::ToDouble() const {
  // Good enough for reporting; exact computations never round-trip through
  // double.
  return numerator_.ToDouble() / denominator_.ToDouble();
}

std::string Rational::ToString() const {
  if (is_integer()) return numerator_.ToString();
  return numerator_.ToString() + "/" + denominator_.ToString();
}

Rational Rational::operator-() const {
  Rational result = *this;
  result.numerator_.Negate();
  return result;
}

// When one side is an integer no gcd is needed: with gcd(a, b) == 1,
// a/b ± c = (a ± c·b)/b and gcd(a ± c·b, b) == gcd(a, b) == 1, so the
// result is already canonical (0 comes out as 0/1 because b is then 1).
Rational& Rational::operator+=(const Rational& other) {
  if (other.is_integer()) {
    if (is_integer()) {
      numerator_ += other.numerator_;
    } else {
      numerator_ += other.numerator_ * denominator_;
    }
    return *this;
  }
  if (is_integer()) {
    numerator_ *= other.denominator_;
    numerator_ += other.numerator_;
    denominator_ = other.denominator_;
    return *this;
  }
  numerator_ = numerator_ * other.denominator_ +
               other.numerator_ * denominator_;
  denominator_ *= other.denominator_;
  Normalize();
  return *this;
}

Rational& Rational::operator-=(const Rational& other) {
  if (other.is_integer()) {
    if (is_integer()) {
      numerator_ -= other.numerator_;
    } else {
      numerator_ -= other.numerator_ * denominator_;
    }
    return *this;
  }
  if (is_integer()) {
    numerator_ *= other.denominator_;
    numerator_ -= other.numerator_;
    denominator_ = other.denominator_;
    return *this;
  }
  numerator_ = numerator_ * other.denominator_ -
               other.numerator_ * denominator_;
  denominator_ *= other.denominator_;
  Normalize();
  return *this;
}

Rational& Rational::operator*=(const Rational& other) {
  numerator_ *= other.numerator_;
  if (is_integer() && other.is_integer()) {
    return *this;  // 0 stays 0/1
  }
  denominator_ *= other.denominator_;
  Normalize();
  return *this;
}

Rational& Rational::operator/=(const Rational& other) {
  SHAPCQ_CHECK(!other.is_zero());
  // Copy first: `other` may alias `*this`.
  BigInt other_num = other.numerator_;
  BigInt other_den = other.denominator_;
  numerator_ *= other_den;
  denominator_ *= other_num;
  Normalize();
  return *this;
}

int Rational::Compare(const Rational& lhs, const Rational& rhs) {
  if (lhs.is_integer() && rhs.is_integer()) {
    return BigInt::Compare(lhs.numerator_, rhs.numerator_);
  }
  // Denominators are positive, so cross-multiplication preserves order.
  return BigInt::Compare(lhs.numerator_ * rhs.denominator_,
                         rhs.numerator_ * lhs.denominator_);
}

Rational Rational::Abs(const Rational& value) {
  return value.is_negative() ? -value : value;
}

BigInt Rational::Floor() const {
  BigInt quotient, remainder;
  BigInt::DivMod(numerator_, denominator_, &quotient, &remainder);
  if (remainder.is_negative()) quotient -= BigInt(1);
  return quotient;
}

BigInt Rational::Ceil() const {
  BigInt quotient, remainder;
  BigInt::DivMod(numerator_, denominator_, &quotient, &remainder);
  if (remainder.sign() > 0) quotient += BigInt(1);
  return quotient;
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.ToString();
}

void Rational::Normalize() {
  if (denominator_.is_negative()) {
    numerator_.Negate();
    denominator_.Negate();
  }
  if (numerator_.is_zero()) {
    if (!denominator_.is_one()) denominator_ = BigInt(1);
    return;
  }
  if (denominator_.is_one()) return;
  BigInt gcd = BigInt::Gcd(numerator_, denominator_);
  if (!gcd.is_one()) {
    numerator_ /= gcd;
    denominator_ /= gcd;
  }
}

}  // namespace shapcq
