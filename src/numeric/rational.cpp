#include "numeric/rational.h"

#include <cmath>
#include <stdexcept>

namespace pfact::numeric {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  if (den_.is_zero()) throw std::domain_error("Rational: zero denominator");
  normalize();
}

void Rational::normalize() {
  if (den_.is_negative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.is_zero()) {
    den_ = 1;
    return;
  }
  BigInt g = BigInt::gcd(num_.abs(), den_);
  if (g > BigInt(1)) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

Rational Rational::from_double(double d) {
  if (!std::isfinite(d)) throw std::domain_error("Rational: non-finite");
  if (d == 0.0) return Rational();
  int exp = 0;
  double m = std::frexp(d, &exp);  // d = m * 2^exp, |m| in [0.5, 1)
  // Scale the mantissa to an exact 53-bit integer.
  auto mant = static_cast<long long>(std::ldexp(m, 53));
  exp -= 53;
  BigInt num(mant);
  BigInt den(1);
  if (exp >= 0) {
    num = num << static_cast<std::size_t>(exp);
  } else {
    den = den << static_cast<std::size_t>(-exp);
  }
  return Rational(std::move(num), std::move(den));
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::reciprocal() const {
  if (is_zero()) throw std::domain_error("Rational: reciprocal of zero");
  return Rational(den_, num_);
}

Rational Rational::abs() const {
  Rational out = *this;
  out.num_ = out.num_.abs();
  return out;
}

Rational operator+(const Rational& a, const Rational& b) {
  return Rational(a.num_ * b.den_ + b.num_ * a.den_, a.den_ * b.den_);
}

Rational operator-(const Rational& a, const Rational& b) {
  return Rational(a.num_ * b.den_ - b.num_ * a.den_, a.den_ * b.den_);
}

Rational operator*(const Rational& a, const Rational& b) {
  return Rational(a.num_ * b.num_, a.den_ * b.den_);
}

Rational operator/(const Rational& a, const Rational& b) {
  if (b.is_zero()) throw std::domain_error("Rational: division by zero");
  return Rational(a.num_ * b.den_, a.den_ * b.num_);
}

bool operator==(const Rational& a, const Rational& b) {
  return a.num_ == b.num_ && a.den_ == b.den_;
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
  return (a.num_ * b.den_) <=> (b.num_ * a.den_);
}

double Rational::to_double() const {
  if (num_.is_zero()) return 0.0;
  // Scale so the quotient of doubles stays in range.
  auto nb = static_cast<long>(num_.bit_length());
  auto db = static_cast<long>(den_.bit_length());
  // Bring both operands near 2^60 before converting.
  BigInt n = num_;
  BigInt d = den_;
  if (nb > 512) n = n >> static_cast<std::size_t>(nb - 512);
  if (db > 512) d = d >> static_cast<std::size_t>(db - 512);
  double q = n.to_double() / d.to_double();
  long applied = (nb > 512 ? nb - 512 : 0) - (db > 512 ? db - 512 : 0);
  return std::ldexp(q, static_cast<int>(applied));
}

std::string Rational::to_string() const {
  if (is_integer()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

}  // namespace pfact::numeric
