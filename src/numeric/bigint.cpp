#include "numeric/bigint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/counters.h"

namespace pfact::numeric {

namespace {
constexpr std::uint64_t kBase = 1ull << 32;

// Stein's binary gcd on machine words, a whole run of zero bits per shift.
std::uint64_t gcd_word(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = std::countr_zero(a | b);
  a >>= std::countr_zero(a);
  do {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

// The limb kernels below work in place on raw little-endian limb spans.

// Number of trailing zero bits of a nonzero magnitude.
std::size_t count_trailing_zeros(const std::uint32_t* m) {
  std::size_t i = 0;
  while (m[i] == 0) ++i;
  return i * 32 + static_cast<std::size_t>(std::countr_zero(m[i]));
}

// m[0..n) >>= bits, with bits < 32 * n; the top limbs it empties become 0.
void shift_right(std::uint32_t* m, std::size_t n, std::size_t bits) {
  const std::size_t limbs = bits / 32;
  const unsigned rem = bits % 32;
  for (std::size_t i = 0; i + limbs < n; ++i) {
    std::uint64_t v = m[i + limbs] >> rem;
    if (rem != 0 && i + limbs + 1 < n) {
      v |= static_cast<std::uint64_t>(m[i + limbs + 1]) << (32 - rem);
    }
    m[i] = static_cast<std::uint32_t>(v);
  }
  std::fill(m + (n - limbs), m + n, 0u);
}

// r[0..n] (n + 1 limbs) >= b[0..n)?
bool at_least(const std::uint32_t* r, const std::uint32_t* b, std::size_t n) {
  if (r[n] != 0) return true;
  for (std::size_t i = n; i-- > 0;) {
    if (r[i] != b[i]) return r[i] > b[i];
  }
  return true;
}

// a[0..n) -= b[0..bn), bn <= n, requires a >= b.
void subtract(std::uint32_t* a, std::size_t n, const std::uint32_t* b,
              std::size_t bn) {
  std::uint32_t borrow = 0;
  for (std::size_t i = 0; i < n && (i < bn || borrow != 0); ++i) {
    const std::uint64_t d = static_cast<std::uint64_t>(a[i]) -
                            (i < bn ? b[i] : 0) - borrow;
    a[i] = static_cast<std::uint32_t>(d);
    borrow = static_cast<std::uint32_t>(d >> 63);
  }
}
}  // namespace

void BigInt::Limbs::reserve(std::size_t n) {
  if (n <= cap_) return;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("BigInt: magnitude too long");
  }
  const std::size_t cap =
      std::min<std::size_t>(std::max<std::size_t>(n, 2 * std::size_t{cap_}),
                            std::numeric_limits<std::uint32_t>::max());
  auto* heap = new std::uint32_t[cap];
  std::copy_n(data(), size_, heap);
  if (on_heap()) delete[] u_.heap;
  u_.heap = heap;
  cap_ = static_cast<std::uint32_t>(cap);
}

BigInt::BigInt(long long v) {
  if (v == 0) return;
  sign_ = v > 0 ? 1 : -1;
  // Avoid UB on LLONG_MIN by working in unsigned space.
  mag_.set_word(v > 0 ? static_cast<std::uint64_t>(v)
                      : ~static_cast<std::uint64_t>(v) + 1);
}

namespace {
thread_local std::size_t g_bit_limit = 0;  // 0 = unlimited
}  // namespace

std::size_t BigInt::bit_limit() { return g_bit_limit; }
void BigInt::set_bit_limit(std::size_t bits) { g_bit_limit = bits; }

void BigInt::trim() {
  mag_.trim_zeros();
  if (mag_.empty()) sign_ = 0;
  // trim() normalizes every result magnitude an operation produces, so it
  // is the one place that sees each of them exactly once.
  if (!mag_.empty()) {
    PFACT_COUNT(kBigIntAllocs);
    PFACT_COUNT_N(kBigIntLimbsAllocated, mag_.size());
    PFACT_HISTO(kBigIntLimbs, mag_.size());
  }
  if (g_bit_limit != 0 && !mag_.empty()) {
    // Cheap upper bound first (limb count), exact bit length only near the
    // boundary — trim() runs after every arithmetic operation.
    if (mag_.size() * 32 > g_bit_limit && bit_length() > g_bit_limit) {
      throw std::overflow_error("BigInt: magnitude exceeds the installed " +
                                std::to_string(g_bit_limit) + "-bit limit");
    }
  }
}

int BigInt::compare_mag(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

BigInt::Limbs BigInt::add_mag(const Limbs& a, const Limbs& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  Limbs out;
  out.assign_zero(big.size() + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    std::uint64_t s = carry + big[i] + (i < small.size() ? small[i] : 0);
    out[i] = static_cast<std::uint32_t>(s & 0xffffffffu);
    carry = s >> 32;
  }
  out[big.size()] = static_cast<std::uint32_t>(carry);
  out.trim_zeros();
  return out;
}

BigInt::Limbs BigInt::sub_mag(const Limbs& a, const Limbs& b) {
  Limbs out;
  out.assign_zero(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a[i]) - borrow -
                     (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (d < 0) {
      d += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<std::uint32_t>(d);
  }
  out.trim_zeros();
  return out;
}

BigInt::Limbs BigInt::mul_mag(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out;
  out.assign_zero(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = out[i + j] +
                          static_cast<std::uint64_t>(a[i]) * b[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim_zeros();
  return out;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  if (a.sign_ == 0) return b;
  if (b.sign_ == 0) return a;
  BigInt out;
  if (a.sign_ == b.sign_) {
    out.sign_ = a.sign_;
    out.mag_ = BigInt::add_mag(a.mag_, b.mag_);
  } else {
    int c = BigInt::compare_mag(a.mag_, b.mag_);
    if (c == 0) return BigInt{};
    const BigInt& big = c > 0 ? a : b;
    const BigInt& small = c > 0 ? b : a;
    out.sign_ = big.sign_;
    out.mag_ = BigInt::sub_mag(big.mag_, small.mag_);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  out.sign_ = -out.sign_;
  return out;
}

BigInt BigInt::abs() const {
  BigInt out = *this;
  if (out.sign_ < 0) out.sign_ = 1;
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt operator*(const BigInt& a, const BigInt& b) {
  PFACT_COUNT(kBigIntMuls);
  BigInt out;
  out.sign_ = a.sign_ * b.sign_;
  if (out.sign_ != 0) out.mag_ = BigInt::mul_mag(a.mag_, b.mag_);
  out.trim();
  return out;
}

std::size_t BigInt::bit_length() const {
  if (mag_.empty()) return 0;
  std::uint32_t top = mag_.back();
  std::size_t bits = (mag_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 32;
  if (limb >= mag_.size()) return false;
  return (mag_[limb] >> (i % 32)) & 1u;
}

bool BigInt::is_odd() const { return !mag_.empty() && (mag_[0] & 1u); }

BigInt BigInt::operator<<(std::size_t bits) const {
  if (sign_ == 0 || bits == 0) return *this;
  std::size_t limbs = bits / 32;
  std::size_t rem = bits % 32;
  BigInt out;
  out.sign_ = sign_;
  out.mag_.assign_zero(mag_.size() + limbs + 1);
  for (std::size_t i = 0; i < mag_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(mag_[i]) << rem;
    out.mag_[i + limbs] |= static_cast<std::uint32_t>(v & 0xffffffffu);
    out.mag_[i + limbs + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  if (sign_ == 0 || bits == 0) return *this;
  std::size_t limbs = bits / 32;
  std::size_t rem = bits % 32;
  if (limbs >= mag_.size()) return BigInt{};
  BigInt out;
  out.sign_ = sign_;
  out.mag_.assign_zero(mag_.size() - limbs);
  for (std::size_t i = 0; i < out.mag_.size(); ++i) {
    std::uint64_t v = mag_[i + limbs] >> rem;
    if (rem != 0 && i + limbs + 1 < mag_.size()) {
      v |= static_cast<std::uint64_t>(mag_[i + limbs + 1]) << (32 - rem);
    }
    out.mag_[i] = static_cast<std::uint32_t>(v & 0xffffffffu);
  }
  out.trim();
  return out;
}

bool operator==(const BigInt& a, const BigInt& b) {
  return a.sign_ == b.sign_ && a.mag_ == b.mag_;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.sign_ != b.sign_)
    return a.sign_ < b.sign_ ? std::strong_ordering::less
                             : std::strong_ordering::greater;
  int c = BigInt::compare_mag(a.mag_, b.mag_) * (a.sign_ == 0 ? 0 : a.sign_);
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& quot,
                    BigInt& rem) {
  if (b.sign_ == 0) throw std::domain_error("BigInt: division by zero");
  PFACT_COUNT(kBigIntDivs);
  if (compare_mag(a.mag_, b.mag_) < 0) {
    rem = a;  // before quot: quot may alias a
    quot = BigInt{};
    return;
  }
  // Build both results in locals: quot or rem may alias a or b.
  BigInt q;
  BigInt r;
  const Limbs& am = a.mag_;
  const Limbs& bm = b.mag_;
  if (am.size() <= 2) {
    // |b| <= |a| < 2^64: native division.
    const std::uint64_t x = am.word();
    const std::uint64_t y = bm.word();
    q.mag_.set_word(x / y);
    r.mag_.set_word(x % y);
  } else if (bm.size() == 1) {
    // One-limb divisor: one short-division pass, top limb down.
    const std::uint64_t d = bm[0];
    std::uint64_t carry = 0;
    q.mag_.assign_zero(am.size());
    for (std::size_t i = am.size(); i-- > 0;) {
      const std::uint64_t cur = (carry << 32) | am[i];
      q.mag_[i] = static_cast<std::uint32_t>(cur / d);
      carry = cur % d;
    }
    r.mag_.set_word(carry);
  } else {
    // Multi-limb divisor: binary long division, one quotient bit per
    // dividend bit, in place. The running remainder stays below 2|b|, so
    // n + 1 limbs hold it.
    const std::size_t n = bm.size();
    q.mag_.assign_zero(am.size());
    r.mag_.assign_zero(n + 1);
    std::uint32_t* rm = r.mag_.data();
    for (std::size_t i = a.bit_length(); i-- > 0;) {
      std::uint32_t carry = (am[i / 32] >> (i % 32)) & 1u;
      for (std::size_t j = 0; j <= n; ++j) {
        const std::uint32_t next = rm[j] >> 31;
        rm[j] = (rm[j] << 1) | carry;
        carry = next;
      }
      if (at_least(rm, bm.data(), n)) {
        subtract(rm, n + 1, bm.data(), n);
        q.mag_[i / 32] |= 1u << (i % 32);
      }
    }
  }
  // Truncated division: the remainder takes the dividend's sign.
  q.sign_ = a.sign_ * b.sign_;
  r.sign_ = a.sign_;
  q.trim();
  r.trim();
  quot = std::move(q);
  rem = std::move(r);
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  return r;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.sign_ = a.mag_.empty() ? 0 : 1;
  b.sign_ = b.mag_.empty() ? 0 : 1;
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  // One Euclid step brings a word-sized operand's partner down to a word.
  if (a.mag_.size() > 2 && b.mag_.size() <= 2) std::swap(a, b);
  if (a.mag_.size() <= 2 && b.mag_.size() > 2) {
    b = b % a;
    if (b.is_zero()) return a;
  }
  BigInt out;
  out.sign_ = 1;
  if (a.mag_.size() <= 2) {  // and so is b
    out.mag_.set_word(gcd_word(a.mag_.word(), b.mag_.word()));
    out.trim();
    return out;
  }
  Limbs& x = a.mag_;
  Limbs& y = b.mag_;
  // Both wider than a word: binary gcd in place. Strip each run of zero
  // bits with one shift, subtract, repeat until both fit in a word.
  const std::size_t zx = count_trailing_zeros(x.data());
  const std::size_t zy = count_trailing_zeros(y.data());
  const std::size_t shift = std::min(zx, zy);
  shift_right(x.data(), x.size(), zx);
  shift_right(y.data(), y.size(), zy);
  x.trim_zeros();
  y.trim_zeros();
  while (x.size() > 2 || y.size() > 2) {
    // Both odd here.
    const int c = compare_mag(x, y);
    if (c == 0) break;
    if (c > 0) std::swap(x, y);
    subtract(y.data(), y.size(), x.data(), x.size());
    y.trim_zeros();
    shift_right(y.data(), y.size(), count_trailing_zeros(y.data()));
    y.trim_zeros();
  }
  if (x.size() <= 2 && y.size() <= 2) x.set_word(gcd_word(x.word(), y.word()));
  out.mag_ = std::move(x);
  if (shift == 0) {
    out.trim();
    return out;
  }
  return out << shift;
}

BigInt BigInt::pow(const BigInt& base, unsigned exp) {
  BigInt result = 1;
  BigInt acc = base;
  while (exp != 0) {
    if (exp & 1u) result = result * acc;
    acc = acc * acc;
    exp >>= 1;
  }
  return result;
}

BigInt BigInt::from_string(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("BigInt: empty string");
  int sign = 1;
  std::size_t i = 0;
  if (s[0] == '+' || s[0] == '-') {
    sign = s[0] == '-' ? -1 : 1;
    i = 1;
  }
  if (i == s.size()) throw std::invalid_argument("BigInt: no digits");
  BigInt out;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9')
      throw std::invalid_argument("BigInt: bad digit");
    out = out * BigInt(10) + BigInt(s[i] - '0');
  }
  if (sign < 0) out = -out;
  return out;
}

std::string BigInt::to_string() const {
  if (sign_ == 0) return "0";
  Limbs m = mag_;
  std::string digits;
  while (!m.empty()) {
    // Divide the magnitude by 10^9, collecting the remainder.
    std::uint64_t rem = 0;
    for (std::size_t i = m.size(); i-- > 0;) {
      std::uint64_t cur = (rem << 32) | m[i];
      m[i] = static_cast<std::uint32_t>(cur / 1000000000ull);
      rem = cur % 1000000000ull;
    }
    m.trim_zeros();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (sign_ < 0) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::to_double() const {
  if (sign_ == 0) return 0.0;
  std::size_t n = bit_length();
  if (n <= 63) {
    std::uint64_t v = 0;
    for (std::size_t i = mag_.size(); i-- > 0;) v = (v << 32) | mag_[i];
    return sign_ * static_cast<double>(v);
  }
  // Take the top 64 bits and scale.
  BigInt top = *this >> (n - 64);
  std::uint64_t v = 0;
  for (std::size_t i = top.mag_.size(); i-- > 0;) v = (v << 32) | top.mag_[i];
  double d = std::ldexp(static_cast<double>(v),
                        static_cast<int>(n) - 64);
  return sign_ * d;
}

bool BigInt::fits_int64() const {
  if (bit_length() <= 63) return true;
  // A 64-bit magnitude fits only as -2^63.
  return sign_ < 0 && mag_.size() == 2 && mag_[0] == 0 &&
         mag_[1] == 0x80000000u;
}

std::int64_t BigInt::to_int64() const {
  if (sign_ == 0) return 0;
  if (!fits_int64()) throw std::overflow_error("BigInt: too large");
  if (bit_length() == 64) return std::numeric_limits<std::int64_t>::min();
  std::uint64_t v = 0;
  for (std::size_t i = mag_.size(); i-- > 0;) v = (v << 32) | mag_[i];
  return sign_ * static_cast<std::int64_t>(v);
}

}  // namespace pfact::numeric
