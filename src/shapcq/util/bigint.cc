#include "shapcq/util/bigint.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "shapcq/util/check.h"

namespace shapcq {

namespace {

constexpr uint64_t kBase = uint64_t{1} << 32;

}  // namespace

BigInt::BigInt(int64_t value) {
  if (value == 0) return;
  sign_ = value > 0 ? 1 : -1;
  // Careful with INT64_MIN: negate in unsigned space.
  uint64_t magnitude =
      value > 0 ? static_cast<uint64_t>(value)
                : ~static_cast<uint64_t>(value) + 1;
  limbs_.push_back(static_cast<uint32_t>(magnitude & 0xffffffffu));
  if (magnitude >> 32) limbs_.push_back(static_cast<uint32_t>(magnitude >> 32));
}

StatusOr<BigInt> BigInt::FromString(std::string_view text) {
  if (text.empty()) return InvalidArgumentError("empty integer literal");
  size_t pos = 0;
  int sign = 1;
  if (text[0] == '-' || text[0] == '+') {
    sign = text[0] == '-' ? -1 : 1;
    pos = 1;
  }
  if (pos == text.size()) {
    return InvalidArgumentError("integer literal has no digits");
  }
  BigInt result;
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (c < '0' || c > '9') {
      return InvalidArgumentError("invalid digit in integer literal: " +
                                  std::string(text));
    }
    result.MulAddSmall(10, static_cast<uint32_t>(c - '0'));
  }
  if (!result.limbs_.empty()) result.sign_ = sign;
  return result;
}

bool BigInt::FitsInInt64() const {
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  uint64_t magnitude =
      (static_cast<uint64_t>(limbs_[1]) << 32) | limbs_[0];
  if (sign_ > 0) return magnitude <= static_cast<uint64_t>(INT64_MAX);
  return magnitude <= static_cast<uint64_t>(INT64_MAX) + 1;
}

int64_t BigInt::ToInt64() const {
  SHAPCQ_CHECK(FitsInInt64());
  uint64_t magnitude = 0;
  if (!limbs_.empty()) magnitude = limbs_[0];
  if (limbs_.size() == 2) magnitude |= static_cast<uint64_t>(limbs_[1]) << 32;
  if (sign_ >= 0) return static_cast<int64_t>(magnitude);
  return -static_cast<int64_t>(magnitude - 1) - 1;
}

double BigInt::ToDouble() const {
  double result = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    result = result * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return sign_ < 0 ? -result : result;
}

std::string BigInt::ToString() const {
  if (is_zero()) return "0";
  BigInt copy = *this;
  std::string digits;  // least-significant digit first
  while (!copy.limbs_.empty()) {
    uint32_t rem = copy.DivSmall(1000000000u);
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  // Strip the number's leading zeros (at the back of `digits`).
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (sign_ < 0) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  int bits = 0;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits + 32 * static_cast<int>(limbs_.size() - 1);
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  result.Negate();
  return result;
}

BigInt& BigInt::Negate() {
  sign_ = -sign_;
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& other) {
  if (other.is_zero()) return *this;
  if (is_zero()) {
    *this = other;
    return *this;
  }
  if (sign_ == other.sign_) {
    AddMagnitude(&limbs_, other.limbs_);
    return *this;
  }
  int cmp = CompareMagnitude(limbs_, other.limbs_);
  if (cmp == 0) {
    limbs_.clear();
    sign_ = 0;
  } else if (cmp > 0) {
    SubMagnitude(&limbs_, other.limbs_);
  } else {
    std::vector<uint32_t> result = other.limbs_;
    SubMagnitude(&result, limbs_);
    limbs_ = std::move(result);
    sign_ = other.sign_;
  }
  TrimAndFixSign();
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  if (this == &other) {
    limbs_.clear();
    sign_ = 0;
    return *this;
  }
  BigInt negated = other;
  negated.Negate();
  return *this += negated;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  if (is_zero() || other.is_zero()) {
    limbs_.clear();
    sign_ = 0;
    return *this;
  }
  limbs_ = MulMagnitude(limbs_, other.limbs_);
  sign_ *= other.sign_;
  TrimAndFixSign();
  return *this;
}

BigInt& BigInt::operator/=(const BigInt& other) {
  BigInt quotient, remainder;
  DivMod(*this, other, &quotient, &remainder);
  *this = std::move(quotient);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& other) {
  BigInt quotient, remainder;
  DivMod(*this, other, &quotient, &remainder);
  *this = std::move(remainder);
  return *this;
}

void BigInt::DivMod(const BigInt& dividend, const BigInt& divisor,
                    BigInt* quotient, BigInt* remainder) {
  SHAPCQ_CHECK(!divisor.is_zero());
  if (dividend.is_zero()) {
    *quotient = BigInt();
    *remainder = BigInt();
    return;
  }
  std::vector<uint32_t> rem_limbs;
  std::vector<uint32_t> quo_limbs =
      DivModMagnitude(dividend.limbs_, divisor.limbs_, &rem_limbs);
  BigInt quo, rem;
  quo.limbs_ = std::move(quo_limbs);
  quo.sign_ = dividend.sign_ * divisor.sign_;
  quo.TrimAndFixSign();
  rem.limbs_ = std::move(rem_limbs);
  rem.sign_ = dividend.sign_;
  rem.TrimAndFixSign();
  *quotient = std::move(quo);
  *remainder = std::move(rem);
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.sign_ = a.limbs_.empty() ? 0 : 1;
  b.sign_ = b.limbs_.empty() ? 0 : 1;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::Pow(const BigInt& base, uint64_t exponent) {
  BigInt result(1);
  BigInt acc = base;
  while (exponent != 0) {
    if (exponent & 1) result *= acc;
    exponent >>= 1;
    if (exponent != 0) acc *= acc;
  }
  return result;
}

BigInt BigInt::TwoPow(uint64_t exponent) {
  BigInt result;
  result.sign_ = 1;
  result.limbs_.assign(exponent / 32 + 1, 0);
  result.limbs_.back() = uint32_t{1} << (exponent % 32);
  return result;
}

BigInt BigInt::FromMagnitude64(const uint64_t* words, int count, int sign) {
  while (count > 0 && words[count - 1] == 0) --count;
  BigInt result;
  if (count == 0) return result;
  // Sized exactly: the top word's high half may be empty.
  const size_t limbs = static_cast<size_t>(count) * 2 -
                       ((words[count - 1] >> 32) == 0 ? 1 : 0);
  result.limbs_.resize(limbs);
  for (size_t i = 0; i < limbs; ++i) {
    result.limbs_[i] = static_cast<uint32_t>(words[i / 2] >> (32 * (i % 2)));
  }
  result.sign_ = sign < 0 ? -1 : 1;
  return result;
}

int BigInt::Compare(const BigInt& lhs, const BigInt& rhs) {
  if (lhs.sign_ != rhs.sign_) return lhs.sign_ < rhs.sign_ ? -1 : 1;
  int magnitude_cmp = CompareMagnitude(lhs.limbs_, rhs.limbs_);
  return lhs.sign_ >= 0 ? magnitude_cmp : -magnitude_cmp;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.ToString();
}

int BigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::AddMagnitude(std::vector<uint32_t>* a,
                          const std::vector<uint32_t>& b) {
  if (a->size() < b.size()) a->resize(b.size(), 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    uint64_t sum = carry + (*a)[i] + (i < b.size() ? b[i] : 0u);
    (*a)[i] = static_cast<uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry != 0) a->push_back(static_cast<uint32_t>(carry));
}

void BigInt::SubMagnitude(std::vector<uint32_t>* a,
                          const std::vector<uint32_t>& b) {
  int64_t borrow = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    int64_t diff = static_cast<int64_t>((*a)[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<uint32_t>(diff);
  }
  SHAPCQ_CHECK(borrow == 0);  // caller guarantees |a| >= |b|
  while (!a->empty() && a->back() == 0) a->pop_back();
}

std::vector<uint32_t> BigInt::MulMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> result(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    uint64_t carry = 0;
    uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = result[i + j] + ai * b[j] + carry;
      result[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      uint64_t cur = result[k] + carry;
      result[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!result.empty() && result.back() == 0) result.pop_back();
  return result;
}

std::vector<uint32_t> BigInt::DivModMagnitude(
    const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
    std::vector<uint32_t>* remainder) {
  SHAPCQ_CHECK(!b.empty());
  remainder->clear();
  if (CompareMagnitude(a, b) < 0) {
    *remainder = a;
    return {};
  }
  if (b.size() == 1) {
    // Fast path: single-limb divisor.
    uint64_t divisor = b[0];
    std::vector<uint32_t> quotient(a.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a[i];
      quotient[i] = static_cast<uint32_t>(cur / divisor);
      rem = cur % divisor;
    }
    while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
    if (rem != 0) remainder->push_back(static_cast<uint32_t>(rem));
    return quotient;
  }
  // Knuth algorithm D with normalization so the top divisor limb has its
  // high bit set.
  int shift = 0;
  uint32_t top = b.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  auto shift_left = [shift](const std::vector<uint32_t>& v) {
    if (shift == 0) return v;
    std::vector<uint32_t> out(v.size() + 1, 0);
    for (size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << shift;
      out[i + 1] |= static_cast<uint32_t>(
          static_cast<uint64_t>(v[i]) >> (32 - shift));
    }
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  std::vector<uint32_t> u = shift_left(a);
  std::vector<uint32_t> v = shift_left(b);
  size_t n = v.size();
  size_t m = u.size() - n;
  u.push_back(0);  // extra limb for the top of the running remainder
  std::vector<uint32_t> quotient(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    // Estimate the quotient limb from the top two limbs of u against the
    // top limb of v, then correct (at most twice, per Knuth).
    uint64_t numerator =
        (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numerator / v[n - 1];
    uint64_t rhat = numerator % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-and-subtract u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(product & 0xffffffffu) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t top_diff = static_cast<int64_t>(u[j + n]) -
                       static_cast<int64_t>(carry) - borrow;
    if (top_diff < 0) {
      // qhat was one too large: add v back.
      top_diff += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<uint32_t>(sum & 0xffffffffu);
        add_carry = sum >> 32;
      }
      top_diff += static_cast<int64_t>(add_carry);
      top_diff &= static_cast<int64_t>(kBase) - 1;
    }
    u[j + n] = static_cast<uint32_t>(top_diff);
    quotient[j] = static_cast<uint32_t>(qhat);
  }
  // Denormalize the remainder.
  u.resize(n);
  if (shift != 0) {
    for (size_t i = 0; i + 1 < u.size(); ++i) {
      u[i] = (u[i] >> shift) |
             static_cast<uint32_t>(static_cast<uint64_t>(u[i + 1])
                                   << (32 - shift));
    }
    u.back() >>= shift;
  }
  while (!u.empty() && u.back() == 0) u.pop_back();
  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
  *remainder = std::move(u);
  return quotient;
}

void BigInt::TrimAndFixSign() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) sign_ = 0;
}

void BigInt::MulAddSmall(uint32_t multiplier, uint32_t addend) {
  uint64_t carry = addend;
  for (uint32_t& limb : limbs_) {
    uint64_t cur = static_cast<uint64_t>(limb) * multiplier + carry;
    limb = static_cast<uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
  }
  while (carry != 0) {
    limbs_.push_back(static_cast<uint32_t>(carry & 0xffffffffu));
    carry >>= 32;
  }
  if (!limbs_.empty() && sign_ == 0) sign_ = 1;
  TrimAndFixSign();
}

uint32_t BigInt::DivSmall(uint32_t divisor) {
  SHAPCQ_CHECK(divisor != 0);
  uint64_t rem = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    uint64_t cur = (rem << 32) | limbs_[i];
    limbs_[i] = static_cast<uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  TrimAndFixSign();
  return static_cast<uint32_t>(rem);
}

}  // namespace shapcq
