#include "shapcq/util/rational.h"

#include <random>

#include <gtest/gtest.h>

namespace shapcq {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(zero.is_integer());
  EXPECT_EQ(zero.ToString(), "0");
}

TEST(RationalTest, NormalizationReducesAndFixesSign) {
  Rational r(BigInt(4), BigInt(8));
  EXPECT_EQ(r.ToString(), "1/2");
  Rational negative_den(BigInt(3), BigInt(-6));
  EXPECT_EQ(negative_den.ToString(), "-1/2");
  Rational both_negative(BigInt(-3), BigInt(-6));
  EXPECT_EQ(both_negative.ToString(), "1/2");
  Rational zero(BigInt(0), BigInt(-17));
  EXPECT_EQ(zero.ToString(), "0");
  EXPECT_EQ(zero.denominator().ToInt64(), 1);
}

TEST(RationalTest, ArithmeticBasics) {
  Rational half(BigInt(1), BigInt(2));
  Rational third(BigInt(1), BigInt(3));
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_EQ((-half).ToString(), "-1/2");
}

TEST(RationalTest, MixedIntegerArithmetic) {
  Rational x = Rational(3) + Rational(BigInt(1), BigInt(2));
  EXPECT_EQ(x.ToString(), "7/2");
  EXPECT_EQ((x * Rational(2)).ToString(), "7");
  EXPECT_TRUE((x - x).is_zero());
}

TEST(RationalTest, DivisionBySelfAliasing) {
  Rational x(BigInt(7), BigInt(3));
  x /= x;
  EXPECT_EQ(x.ToString(), "1");
}

TEST(RationalTest, Comparisons) {
  Rational half(BigInt(1), BigInt(2));
  Rational third(BigInt(1), BigInt(3));
  EXPECT_LT(third, half);
  EXPECT_GT(half, third);
  EXPECT_LE(half, half);
  EXPECT_LT(Rational(-1), third);
  EXPECT_LT(Rational(BigInt(-1), BigInt(2)), Rational(BigInt(-1), BigInt(3)));
}

TEST(RationalTest, FromStringForms) {
  auto a = Rational::FromString("5");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->ToString(), "5");
  auto b = Rational::FromString("-3/9");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->ToString(), "-1/3");
  EXPECT_FALSE(Rational::FromString("1/0").ok());
  EXPECT_FALSE(Rational::FromString("abc").ok());
  EXPECT_FALSE(Rational::FromString("1/").ok());
}

TEST(RationalTest, FromDoubleIsExact) {
  EXPECT_EQ(Rational::FromDouble(0.5).ToString(), "1/2");
  EXPECT_EQ(Rational::FromDouble(-0.25).ToString(), "-1/4");
  EXPECT_EQ(Rational::FromDouble(3.0).ToString(), "3");
  EXPECT_EQ(Rational::FromDouble(0.0).ToString(), "0");
  // 0.1 is not exactly 1/10 in binary; conversion must reflect the double.
  Rational tenth = Rational::FromDouble(0.1);
  EXPECT_NE(tenth, Rational(BigInt(1), BigInt(10)));
  EXPECT_DOUBLE_EQ(tenth.ToDouble(), 0.1);
}

TEST(RationalTest, FloorAndCeil) {
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).Floor().ToInt64(), 3);
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).Ceil().ToInt64(), 4);
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).Floor().ToInt64(), -4);
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).Ceil().ToInt64(), -3);
  EXPECT_EQ(Rational(6).Floor().ToInt64(), 6);
  EXPECT_EQ(Rational(6).Ceil().ToInt64(), 6);
  EXPECT_EQ(Rational(-6).Floor().ToInt64(), -6);
  EXPECT_EQ(Rational(-6).Ceil().ToInt64(), -6);
}

TEST(RationalTest, AbsoluteValue) {
  EXPECT_EQ(Rational::Abs(Rational(BigInt(-2), BigInt(3))).ToString(), "2/3");
  EXPECT_EQ(Rational::Abs(Rational(BigInt(2), BigInt(3))).ToString(), "2/3");
  EXPECT_TRUE(Rational::Abs(Rational()).is_zero());
}

TEST(RationalTest, HarmonicLikeAccumulationStaysNormalized) {
  // Sum of 1/k for k=1..20 — denominators must stay reduced.
  Rational sum;
  for (int k = 1; k <= 20; ++k) sum += Rational(BigInt(1), BigInt(k));
  EXPECT_EQ(sum.ToString(), "55835135/15519504");
}

TEST(RationalTest, RandomizedFieldAxioms) {
  std::mt19937_64 rng(11);
  auto random_rational = [&rng]() {
    int64_t num = static_cast<int64_t>(rng() % 2001) - 1000;
    int64_t den = static_cast<int64_t>(rng() % 1000) + 1;
    return Rational(BigInt(num), BigInt(den));
  };
  for (int trial = 0; trial < 300; ++trial) {
    Rational a = random_rational();
    Rational b = random_rational();
    Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_TRUE((a - a).is_zero());
    if (!b.is_zero()) {
      EXPECT_EQ(a / b * b, a);
    }
  }
}


// The integer fast paths of +=, -=, *= and Compare, and the mixed
// integer/fraction shortcuts, must give exactly the canonical form the
// general path (cross-multiplication, then gcd in the constructor) gives.
TEST(RationalTest, IntegerFastPathsAndMixedOperandsStayCanonical) {
  std::mt19937_64 rng(29);
  auto random_big = [&rng]() {
    // Up to ~160 bits, so magnitudes pass 2^64 and 2^128 too.
    BigInt value(static_cast<int64_t>(rng() % 2001) - 1000);
    for (int words = static_cast<int>(rng() % 3); words > 0; --words) {
      value = value * BigInt::TwoPow(64) +
              BigInt(static_cast<int64_t>(rng() >> 1));
    }
    return value;
  };
  auto random_operand = [&]() {
    // Half integers (denominator 1), half fractions that may reduce.
    if (rng() % 2 == 0) return Rational(random_big());
    BigInt den(static_cast<int64_t>(rng() % 30) + 2);
    return Rational(random_big() * BigInt(static_cast<int64_t>(rng() % 3) + 1),
                    den);
  };
  auto expect_canonical = [](const Rational& r) {
    EXPECT_GT(r.denominator().sign(), 0);
    EXPECT_TRUE(BigInt::Gcd(r.numerator(), r.denominator()).is_one() ||
                r.is_zero());
    if (r.is_zero()) EXPECT_TRUE(r.denominator().is_one());
    EXPECT_EQ(r.is_integer(), r.denominator() == BigInt(1));
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const Rational a = random_operand();
    const Rational b = random_operand();
    const BigInt& an = a.numerator();
    const BigInt& ad = a.denominator();
    const BigInt& bn = b.numerator();
    const BigInt& bd = b.denominator();
    Rational sum = a;
    sum += b;
    Rational difference = a;
    difference -= b;
    Rational product = a;
    product *= b;
    EXPECT_EQ(sum, Rational(an * bd + bn * ad, ad * bd));
    EXPECT_EQ(difference, Rational(an * bd - bn * ad, ad * bd));
    EXPECT_EQ(product, Rational(an * bn, ad * bd));
    expect_canonical(sum);
    expect_canonical(difference);
    expect_canonical(product);
    EXPECT_EQ(Rational::Compare(a, b) < 0, an * bd < bn * ad);
    EXPECT_EQ(Rational::Compare(a, b) == 0, a == b);
  }
  // Results that cancel to 0 come out as 0/1, and aliased operands work.
  Rational x(BigInt(5), BigInt(3));
  x -= Rational(BigInt(5), BigInt(3));
  EXPECT_TRUE(x.is_zero());
  expect_canonical(x);
  Rational y(BigInt::TwoPow(100));
  y -= y;
  EXPECT_TRUE(y.is_zero());
  expect_canonical(y);
  Rational z(7);
  z += z;
  z *= z;
  EXPECT_EQ(z, Rational(196));
  Rational w = Rational(2) - Rational(BigInt(1), BigInt(2));
  EXPECT_EQ(w.ToString(), "3/2");
  w += Rational(BigInt(1), BigInt(2));
  EXPECT_EQ(w.ToString(), "2");
  EXPECT_TRUE(w.is_integer());
}

TEST(RationalTest, BigIntIsOneMatchesEquality) {
  for (int64_t v : {int64_t{-2}, int64_t{-1}, int64_t{0}, int64_t{1},
                    int64_t{2}, int64_t{4294967297}}) {
    EXPECT_EQ(BigInt(v).is_one(), BigInt(v) == BigInt(1)) << v;
  }
  EXPECT_FALSE((BigInt::TwoPow(64) + BigInt(1)).is_one());
  EXPECT_TRUE((BigInt::TwoPow(64) - BigInt::TwoPow(64) + BigInt(1)).is_one());
}

}  // namespace
}  // namespace shapcq
