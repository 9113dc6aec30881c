// Arbitrary-precision signed integer.
//
// The Shapley dynamic programs count subsets of databases, so intermediate
// values routinely exceed 2^64 (e.g., the number of k-subsets of a few
// hundred facts). BigInt is a from-scratch sign-magnitude implementation
// with base-2^32 limbs: exact at any size, but every result owns a heap
// vector, so a temporary costs an allocation. Arithmetic on these counts is
// the hot spot of the exact dynamic programs, which therefore keep their
// inner loops off BigInt: the coefficient convolution (shapley/dp_util.h)
// works on raw 64-bit words, and the counting loops on FixedInt/CountValue
// (util/fixed_int.h). BigInt holds the values between those kernels.

#ifndef SHAPCQ_UTIL_BIGINT_H_
#define SHAPCQ_UTIL_BIGINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "shapcq/util/status.h"

namespace shapcq {

class BigInt {
 public:
  // Constructs zero.
  BigInt() = default;
  // Intentionally implicit: integer literals should work wherever BigInt is
  // expected (counts, coefficients).
  BigInt(int64_t value);  // NOLINT
  BigInt(int value) : BigInt(static_cast<int64_t>(value)) {}  // NOLINT

  BigInt(const BigInt&) = default;
  BigInt(BigInt&&) = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt& operator=(BigInt&&) = default;

  // Parses a decimal integer with optional leading '-' or '+'.
  static StatusOr<BigInt> FromString(std::string_view text);

  // Returns -1, 0, or +1 for negative, zero, or positive values.
  int sign() const { return sign_; }
  bool is_zero() const { return sign_ == 0; }
  bool is_negative() const { return sign_ < 0; }
  // True iff the value is 1; allocates nothing (unlike `== BigInt(1)`).
  bool is_one() const {
    return sign_ > 0 && limbs_.size() == 1 && limbs_[0] == 1;
  }

  // Returns true if the value fits in int64_t.
  bool FitsInInt64() const;
  // Returns the value as int64_t; requires FitsInInt64().
  int64_t ToInt64() const;
  // Returns the closest double (may lose precision or overflow to +-inf).
  double ToDouble() const;
  // Decimal rendering, e.g. "-1234567890123456789012".
  std::string ToString() const;

  // Number of bits in the magnitude (0 for zero).
  int BitLength() const;

  BigInt operator-() const;
  BigInt& Negate();

  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);
  // Truncated division (quotient rounds toward zero, like C++ int division);
  // aborts on division by zero.
  BigInt& operator/=(const BigInt& other);
  BigInt& operator%=(const BigInt& other);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }

  // Computes quotient and remainder in one pass (truncated division; the
  // remainder has the sign of the dividend). Aborts if `divisor` is zero.
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

  // Greatest common divisor of the magnitudes; Gcd(0, 0) == 0.
  static BigInt Gcd(BigInt a, BigInt b);

  // Returns base^exponent; requires exponent >= 0. Pow(0, 0) == 1.
  static BigInt Pow(const BigInt& base, uint64_t exponent);
  // Returns 2^exponent.
  static BigInt TwoPow(uint64_t exponent);

  // Three-way comparison: negative/zero/positive as lhs <=> rhs.
  static int Compare(const BigInt& lhs, const BigInt& rhs);

  // Low-level magnitude access for the fixed-width fast path
  // (util/fixed_int.h): little-endian base-2^32 limbs of |*this|.
  int num_limbs32() const { return static_cast<int>(limbs_.size()); }
  uint32_t limb32(int i) const { return limbs_[static_cast<size_t>(i)]; }
  // Builds sign · magnitude from little-endian 64-bit words (the sign is
  // coerced to 0 when the magnitude is zero).
  static BigInt FromMagnitude64(const uint64_t* words, int count, int sign);

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const BigInt& a, const BigInt& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const BigInt& a, const BigInt& b) {
    return Compare(a, b) > 0;
  }
  friend bool operator>=(const BigInt& a, const BigInt& b) {
    return Compare(a, b) >= 0;
  }

  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

 private:
  // Magnitude comparison helpers (ignore sign).
  static int CompareMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);
  static void AddMagnitude(std::vector<uint32_t>* a,
                           const std::vector<uint32_t>& b);
  // Requires |a| >= |b|.
  static void SubMagnitude(std::vector<uint32_t>* a,
                           const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  // Long division of magnitudes; returns quotient, stores remainder.
  static std::vector<uint32_t> DivModMagnitude(
      const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
      std::vector<uint32_t>* remainder);

  void TrimAndFixSign();
  // Multiplies the magnitude by a small value and adds a small value
  // (used by the decimal parser).
  void MulAddSmall(uint32_t multiplier, uint32_t addend);
  // Divides the magnitude by a small value, returns the remainder
  // (used by the decimal printer).
  uint32_t DivSmall(uint32_t divisor);

  // Little-endian base-2^32 limbs; empty iff the value is zero.
  std::vector<uint32_t> limbs_;
  int sign_ = 0;  // -1, 0, or +1; zero iff limbs_ is empty.
};

}  // namespace shapcq

#endif  // SHAPCQ_UTIL_BIGINT_H_
