#pragma once
// Arbitrary-precision signed integer.
//
// This is the exact-arithmetic substrate used to verify the paper's gadget
// identities (Theorems 3.1-3.4 are statements about exact elimination), for
// fraction-free Bareiss elimination, and as the numerator/denominator type of
// pfact::numeric::Rational.
//
// Representation: sign-magnitude with little-endian base-2^32 limbs.
// The magnitude never has trailing zero limbs; zero has sign 0 and no limbs.
// Up to four limbs live inline in the object (see Limbs below), so the
// word-sized values exact elimination mostly produces never touch the heap.

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pfact::numeric {

class BigInt {
 public:
  // --- growth guard ---------------------------------------------------------
  // Exact-arithmetic eliminations (Bareiss, Csanky-over-rationals, gadget
  // verification) have bounded coefficient growth on well-formed inputs;
  // corrupted inputs can blow entries up exponentially and turn a run into a
  // memory bomb long before any wall-clock deadline fires. When a nonzero
  // thread-local bit limit is installed, any arithmetic result whose
  // magnitude exceeds the limit throws std::overflow_error at normalization
  // time — the robustness layer classifies this as kNumericOverflow.
  static std::size_t bit_limit();               // 0 = unlimited (default)
  static void set_bit_limit(std::size_t bits);  // thread-local

  // RAII scope for a temporary bit limit (exception-safe restore).
  class BitLimitScope {
   public:
    explicit BitLimitScope(std::size_t bits) : prev_(bit_limit()) {
      set_bit_limit(bits);
    }
    ~BitLimitScope() { set_bit_limit(prev_); }
    BitLimitScope(const BitLimitScope&) = delete;
    BitLimitScope& operator=(const BitLimitScope&) = delete;

   private:
    std::size_t prev_;
  };

 public:
  BigInt() = default;
  BigInt(long long v);  // NOLINT(google-explicit-constructor): int literals
                        // must convert implicitly for Matrix<BigInt> init.

  // Parses an optionally signed decimal string. Throws std::invalid_argument
  // on malformed input.
  static BigInt from_string(std::string_view s);

  std::string to_string() const;

  bool is_zero() const { return sign_ == 0; }
  bool is_negative() const { return sign_ < 0; }
  int signum() const { return sign_; }

  // Number of bits in the magnitude (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;
  bool is_odd() const;

  BigInt operator-() const;
  BigInt abs() const;

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  // Truncated division (C++ semantics: quotient rounds toward zero).
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  friend BigInt operator%(const BigInt& a, const BigInt& b);

  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }
  BigInt& operator/=(const BigInt& b) { return *this = *this / b; }
  BigInt& operator%=(const BigInt& b) { return *this = *this % b; }

  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  friend bool operator==(const BigInt& a, const BigInt& b);
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  // Quotient and remainder in one pass; rem has the sign of the dividend.
  // Throws std::domain_error on division by zero.
  static void divmod(const BigInt& a, const BigInt& b, BigInt& quot,
                     BigInt& rem);

  static BigInt gcd(BigInt a, BigInt b);
  static BigInt pow(const BigInt& base, unsigned exp);

  // Nearest double; loses precision beyond 53 bits, saturates to +/-inf.
  double to_double() const;

  // True iff the value fits in a signed 64-bit integer.
  bool fits_int64() const;
  std::int64_t to_int64() const;  // Throws std::overflow_error if too large.

 private:
  // Small-buffer limb array: up to kInline limbs inline, heap beyond. A new
  // copy of a short magnitude lands inline even when its source was on the
  // heap.
  class Limbs {
   public:
    static constexpr std::size_t kInline = 4;

    Limbs() = default;
    Limbs(const Limbs& o) { copy_from(o); }
    Limbs(Limbs&& o) noexcept { steal(o); }
    Limbs& operator=(const Limbs& o) {
      if (this != &o) copy_from(o);
      return *this;
    }
    Limbs& operator=(Limbs&& o) noexcept {
      if (this != &o) {
        release();
        steal(o);
      }
      return *this;
    }
    ~Limbs() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::uint32_t* data() { return on_heap() ? u_.heap : u_.inl; }
    const std::uint32_t* data() const { return on_heap() ? u_.heap : u_.inl; }
    std::uint32_t& operator[](std::size_t i) { return data()[i]; }
    std::uint32_t operator[](std::size_t i) const { return data()[i]; }
    std::uint32_t back() const { return data()[size_ - 1]; }
    // Resizes to n limbs, all zero.
    void assign_zero(std::size_t n) {
      reserve(n);
      std::fill_n(data(), n, 0u);
      size_ = static_cast<std::uint32_t>(n);
    }
    void trim_zeros() {
      while (size_ != 0 && data()[size_ - 1] == 0) --size_;
    }

    // The magnitude as one machine word; requires size() <= 2.
    std::uint64_t word() const {
      const std::uint32_t* d = data();
      return size_ == 0   ? 0
             : size_ == 1 ? d[0]
                          : (static_cast<std::uint64_t>(d[1]) << 32) | d[0];
    }
    void set_word(std::uint64_t v) {
      std::uint32_t* d = data();  // capacity is always >= 2
      size_ = 0;
      if (v != 0) d[size_++] = static_cast<std::uint32_t>(v);
      if ((v >> 32) != 0) d[size_++] = static_cast<std::uint32_t>(v >> 32);
    }

    friend bool operator==(const Limbs& a, const Limbs& b) {
      return a.size_ == b.size_ &&
             std::equal(a.data(), a.data() + a.size_, b.data());
    }

   private:
    bool on_heap() const { return cap_ > kInline; }
    void reserve(std::size_t n);  // keeps the current limbs
    void release() {
      if (on_heap()) delete[] u_.heap;
      cap_ = kInline;
      size_ = 0;
    }
    void copy_from(const Limbs& o) {
      size_ = 0;
      reserve(o.size_);
      std::copy_n(o.data(), o.size_, data());
      size_ = o.size_;
    }
    void steal(Limbs& o) noexcept {
      size_ = o.size_;
      cap_ = o.cap_;
      u_ = o.u_;
      o.size_ = 0;
      o.cap_ = kInline;
    }

    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInline;
    union {
      std::uint32_t inl[kInline];
      std::uint32_t* heap;
    } u_{};
  };

  static int compare_mag(const Limbs& a, const Limbs& b);
  static Limbs add_mag(const Limbs& a, const Limbs& b);
  // Requires |a| >= |b|.
  static Limbs sub_mag(const Limbs& a, const Limbs& b);
  static Limbs mul_mag(const Limbs& a, const Limbs& b);
  void trim();

  int sign_ = 0;
  Limbs mag_;
};

// The inline limbs share the footprint of a heap pointer, size and capacity,
// so Matrix<BigInt> and Matrix<Rational> entries stay at 32 and 64 bytes.
static_assert(sizeof(BigInt) <= 32);

inline BigInt abs(const BigInt& a) { return a.abs(); }
inline BigInt gcd(const BigInt& a, const BigInt& b) {
  return BigInt::gcd(a, b);
}

}  // namespace pfact::numeric
