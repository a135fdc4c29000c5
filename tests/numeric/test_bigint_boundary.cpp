// Differential test of BigInt's division and gcd paths at limb boundaries.
//
// BigInt divides natively when both operands fit in 64 bits, by one
// short-division pass when the divisor is one limb, and bit-serially
// otherwise; gcd runs natively on words and as an in-place binary gcd on
// wider operands. Each path is checked against a reference that does the
// arithmetic one bit at a time through the public API — the bit-serial long
// division and binary gcd BigInt used before it had word paths — on operands
// at every boundary those paths switch on: 32 and 64 bits, LLONG_MIN, the
// four inline limbs, and random 1-, 2-, 3- and 5-limb values, in all four
// sign pairs.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <ostream>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "numeric/bigint.h"
#include "numeric/rational.h"

namespace pfact::numeric {

// gtest prints failing operands in decimal instead of as raw bytes.
void PrintTo(const BigInt& v, std::ostream* os) { *os << v.to_string(); }

namespace {

// Reference truncated division: one shift, compare and subtract per
// dividend bit. The remainder takes the dividend's sign.
void oracle_divmod(const BigInt& a, const BigInt& b, BigInt& quot,
                   BigInt& rem) {
  if (b.is_zero()) throw std::domain_error("oracle: division by zero");
  const BigInt mb = b.abs();
  BigInt q;
  BigInt r;
  for (std::size_t i = a.bit_length(); i-- > 0;) {
    r = r << 1;
    if (a.bit(i)) r = r + BigInt(1);
    q = q << 1;
    if (r >= mb) {
      r = r - mb;
      q = q + BigInt(1);
    }
  }
  quot = a.is_negative() != b.is_negative() ? -q : q;
  rem = a.is_negative() ? -r : r;
}

// Reference binary gcd: one shift per bit.
BigInt oracle_gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  std::size_t shift = 0;
  while (!a.is_odd() && !b.is_odd()) {
    a = a >> 1;
    b = b >> 1;
    ++shift;
  }
  while (!a.is_odd()) a = a >> 1;
  while (!b.is_zero()) {
    while (!b.is_odd()) b = b >> 1;
    if (a > b) std::swap(a, b);
    b = b - a;
  }
  return a << shift;
}

BigInt pow2(std::size_t k) { return BigInt(1) << k; }

// A random magnitude of exactly `limbs` 32-bit limbs.
BigInt random_limbs(std::mt19937_64& rng, int limbs) {
  BigInt out;
  for (int i = 0; i < limbs; ++i) {
    std::uint32_t limb = static_cast<std::uint32_t>(rng());
    if (i == limbs - 1 && limb == 0) limb = 1;
    out = out + (BigInt(static_cast<long long>(limb)) << (32 * i));
  }
  return out;
}

// Nonnegative operands; the tests apply the four sign pairs themselves.
std::vector<BigInt> boundary_magnitudes() {
  std::vector<BigInt> v = {
      BigInt(0),
      BigInt(1),
      pow2(32) - BigInt(1),
      pow2(32),
      BigInt(LLONG_MAX),  // 2^63 - 1
      pow2(63),
      pow2(64) - BigInt(1),
      pow2(64),
      -BigInt(LLONG_MIN),  // 2^63 built through the LLONG_MIN constructor
      pow2(128) - BigInt(1),  // the widest inline magnitude
      pow2(128),              // the narrowest heap magnitude
  };
  std::mt19937_64 rng(20261020);
  for (int limbs : {1, 2, 3, 5}) {
    for (int i = 0; i < 5; ++i) v.push_back(random_limbs(rng, limbs));
  }
  return v;
}

std::vector<BigInt> signed_operands() {
  std::vector<BigInt> out;
  for (const BigInt& m : boundary_magnitudes()) {
    out.push_back(m);
    if (!m.is_zero()) out.push_back(-m);
  }
  out.push_back(BigInt(LLONG_MIN));
  return out;
}

TEST(BigIntBoundary, DivModMatchesBitSerialOracle) {
  const std::vector<BigInt> ops = signed_operands();
  for (const BigInt& a : ops) {
    for (const BigInt& b : ops) {
      if (b.is_zero()) continue;
      SCOPED_TRACE(a.to_string() + " / " + b.to_string());
      BigInt q, r, oq, orem;
      BigInt::divmod(a, b, q, r);
      oracle_divmod(a, b, oq, orem);
      EXPECT_EQ(q, oq);
      EXPECT_EQ(r, orem);
      EXPECT_EQ(q * b + r, a);
      EXPECT_LT(r.abs(), b.abs());
      EXPECT_TRUE(r.is_zero() || r.signum() == a.signum());
      EXPECT_EQ(a / b, q);
      EXPECT_EQ(a % b, r);
    }
  }
}

TEST(BigIntBoundary, DivModResultsMayAliasOperands) {
  const std::vector<BigInt> ops = signed_operands();
  for (const BigInt& a : ops) {
    for (const BigInt& b : ops) {
      if (b.is_zero()) continue;
      BigInt oq, orem;
      oracle_divmod(a, b, oq, orem);
      BigInt x = a, y = b;
      BigInt::divmod(x, y, x, y);  // quotient over a, remainder over b
      EXPECT_EQ(x, oq);
      EXPECT_EQ(y, orem);
    }
  }
}

TEST(BigIntBoundary, GcdMatchesBinaryOracleAndDividesBoth) {
  const std::vector<BigInt> ops = signed_operands();
  for (const BigInt& a : ops) {
    for (const BigInt& b : ops) {
      SCOPED_TRACE("gcd(" + a.to_string() + ", " + b.to_string() + ")");
      const BigInt g = BigInt::gcd(a, b);
      EXPECT_EQ(g, oracle_gcd(a, b));
      EXPECT_GE(g.signum(), 0);
      if (g.is_zero()) {
        EXPECT_TRUE(a.is_zero() && b.is_zero());
        continue;
      }
      EXPECT_TRUE((a % g).is_zero());
      EXPECT_TRUE((b % g).is_zero());
    }
  }
}

TEST(BigIntBoundary, GcdWithSharedWideFactor) {
  // A shared multi-limb factor makes the gcd itself wide, so the in-place
  // binary gcd runs to the end instead of falling into the word path.
  std::mt19937_64 rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    const BigInt c = random_limbs(rng, 1 + trial % 5) << (trial % 7);
    const BigInt a = random_limbs(rng, 1 + (trial / 5) % 5) * c;
    const BigInt b = random_limbs(rng, 1 + (trial / 3) % 5) * c;
    for (const auto& [x, y] : {std::pair{a, b}, std::pair{-a, b},
                               std::pair{a, -b}, std::pair{-a, -b}}) {
      const BigInt g = BigInt::gcd(x, y);
      EXPECT_EQ(g, oracle_gcd(x, y));
      EXPECT_TRUE((g % c).is_zero());
      EXPECT_TRUE((x % g).is_zero());
      EXPECT_TRUE((y % g).is_zero());
    }
  }
}

TEST(BigIntBoundary, RationalStaysCanonical) {
  const std::vector<BigInt> ops = signed_operands();
  for (const BigInt& a : ops) {
    for (const BigInt& b : ops) {
      if (b.is_zero()) continue;
      SCOPED_TRACE(a.to_string() + " / " + b.to_string());
      const Rational q(a, b);
      EXPECT_GT(q.den().signum(), 0);
      EXPECT_EQ(oracle_gcd(q.num(), q.den()), BigInt(1));
      EXPECT_EQ(q.num() * b, a * q.den());  // same value
      if (a.is_zero()) {
        EXPECT_EQ(q.den(), BigInt(1));
      }
      // Equality compares fields, so equal values must be identical.
      EXPECT_EQ(Rational(a * BigInt(6), b * BigInt(6)), q);
      EXPECT_EQ(Rational(-a, -b), q);
    }
  }
}

}  // namespace
}  // namespace pfact::numeric
