#include "robustness/checkpoint.h"

#include <array>
#include <fstream>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pfact::robustness {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Everything crc32() needs, built once: the slicing-by-8 tables and the
// CPU's answer to "is the carry-less-multiply kernel usable here?".
struct Crc32Impl {
  // table[0] is the classic byte-at-a-time table; table[t][b] advances a
  // byte that is t positions deeper in the 8-byte window.
  CrcTables table{};
  bool folded = false;
};

Crc32Impl make_crc32_impl() {
  Crc32Impl impl;
  CrcTables& t = impl.table;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = t[0][t[s - 1][i] & 0xFFu] ^ (t[s - 1][i] >> 8);
    }
  }
#if defined(__x86_64__)
  __builtin_cpu_init();  // this may run from another object's static init
  impl.folded = __builtin_cpu_supports("pclmul") != 0 &&
                __builtin_cpu_supports("sse4.1") != 0;
#endif
  return impl;
}

const Crc32Impl& crc32_impl() {
  static const Crc32Impl impl = make_crc32_impl();
  return impl;
}

// Advances the (pre-inverted) CRC register `c` over `len` bytes, eight at
// a time through the slicing tables, then byte by byte.
std::uint32_t crc32_tables(const CrcTables& t, std::uint32_t c,
                           const unsigned char* p, std::size_t len) {
  while (len >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    if constexpr (std::endian::native == std::endian::big)
      chunk = __builtin_bswap64(chunk);
    const std::uint32_t lo = c ^ static_cast<std::uint32_t>(chunk);
    const auto hi = static_cast<std::uint32_t>(chunk >> 32);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (std::size_t i = 0; i < len; ++i) {
    c = t[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)
#define PFACT_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

PFACT_CLMUL_TARGET __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// x carried forward by the distance that constant pair k encodes (each
// 64-bit half times its constant), xored into the block it lands on.
PFACT_CLMUL_TARGET __m128i fold128(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with the
// bit-reflected constants for 0xEDB88320 that zlib and Chromium use:
// k1/k2 fold 512 bits, k3/k4 fold 128 bits, k5 folds 64 to 32 bits, and
// P(x)' / mu drive the final Barrett reduction. Advances the register `c`
// over `len` bytes; requires len >= 64 and len % 16 == 0.
PFACT_CLMUL_TARGET std::uint32_t crc32_fold(std::uint32_t c,
                                            const unsigned char* p,
                                            std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four 128-bit lanes, each folded 512 bits forward per 64-byte block.
  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold128(x1, k1k2, load128(p));
    x2 = fold128(x2, k1k2, load128(p + 16));
    x3 = fold128(x3, k1k2, load128(p + 32));
    x4 = fold128(x4, k1k2, load128(p + 48));
  }

  // The lanes into one, then any remaining 16-byte blocks into it.
  x1 = fold128(x1, k3k4, x2);
  x1 = fold128(x1, k3k4, x3);
  x1 = fold128(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold128(x1, k3k4, load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef PFACT_CLMUL_TARGET
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  const Crc32Impl& impl = crc32_impl();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
#if defined(__x86_64__)
  // The kernel takes whole 16-byte blocks; the tables finish the tail.
  if (impl.folded && len >= 64) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = crc32_fold(c, p, bulk);
    p += bulk;
    len -= bulk;
  }
#endif
  return crc32_tables(impl.table, c, p, len) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t crc32_portable(const void* data, std::size_t len) {
  return crc32_tables(crc32_impl().table, 0xFFFFFFFFu,
                      static_cast<const unsigned char*>(data), len) ^
         0xFFFFFFFFu;
}

const char* crc32_kernel() {
  return crc32_impl().folded ? "pclmul-fold" : "slicing-by-8";
}

}  // namespace detail

CheckpointStatus validate_checkpoint_envelope(std::string_view blob) {
  if (blob.size() < kCheckpointHeaderBytes) return CheckpointStatus::kTruncated;
  detail::ByteReader header(blob.substr(0, kCheckpointHeaderBytes));
  const std::uint32_t magic = header.get_u32();
  const std::uint32_t version = header.get_u32();
  const std::uint64_t length = header.get_u64();
  const std::uint32_t crc = header.get_u32();
  if (magic != kCheckpointMagic) return CheckpointStatus::kBadMagic;
  if (version != kCheckpointVersion) return CheckpointStatus::kBadVersion;
  if (blob.size() < kCheckpointHeaderBytes + length)
    return CheckpointStatus::kTruncated;
  const std::string_view body = blob.substr(kCheckpointHeaderBytes, length);
  if (crc32(body.data(), body.size()) != crc)
    return CheckpointStatus::kCrcMismatch;
  if (blob.size() != kCheckpointHeaderBytes + length)
    return CheckpointStatus::kMalformed;  // trailing garbage after the payload
  return CheckpointStatus::kOk;
}

bool write_checkpoint_file(const std::string& path, std::string_view blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  return static_cast<bool>(out);
}

bool read_checkpoint_file(const std::string& path, std::string& blob) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  blob.assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

}  // namespace pfact::robustness
