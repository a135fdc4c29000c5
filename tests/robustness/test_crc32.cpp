// CRC-32 kernel tests (ctest label `resilience`): crc32() must be
// bit-identical to the portable slicing-by-8 loop on every length and
// alignment that reaches the folding kernel's block, lane and tail paths,
// the kernel must actually be selected where the CPU supports it, and
// checkpoints written by earlier builds (portable CRC) must still carry
// the same header CRC and still validate.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "factor/pivot_trace.h"
#include "matrix/matrix.h"
#include "matrix/sparse.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "robustness/checkpoint.h"

namespace pfact::robustness {
namespace {

using numeric::Float53;
using numeric::Rational;

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32Kernel, MatchesPortableAtEveryLengthAndOffset) {
  const std::vector<unsigned char> buf = random_bytes(1100 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len), detail::crc32_portable(p, len))
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(Crc32Kernel, MatchesPortableOnSeededLongBuffers) {
  std::mt19937_64 rng(2);
  const std::vector<unsigned char> buf = random_bytes(256 * 1024 + 16, 3);
  for (int i = 0; i < 64; ++i) {
    const std::size_t len = rng() % (256 * 1024 + 1);
    const unsigned char* p = buf.data() + rng() % 16;
    ASSERT_EQ(crc32(p, len), detail::crc32_portable(p, len)) << "len " << len;
  }
}

TEST(Crc32Kernel, MatchesPortableOnConstantBuffers) {
  // Whole-buffer values are CRC-32/ISO-HDLC of 4109 0x00 / 0xFF bytes, as
  // any other implementation (zlib's crc32(), say) computes them.
  const std::pair<unsigned char, std::uint32_t> cases[] = {
      {0x00, 0x586A7A09u}, {0xFF, 0xA3AA5961u}};
  for (const auto& [fill, whole] : cases) {
    const std::vector<unsigned char> buf(4109, fill);
    for (const std::size_t len : {std::size_t{64}, std::size_t{80},
                                  std::size_t{1000}, buf.size()}) {
      EXPECT_EQ(crc32(buf.data(), len),
                detail::crc32_portable(buf.data(), len))
          << "fill " << int{fill} << " len " << len;
    }
    EXPECT_EQ(crc32(buf.data(), buf.size()), whole);
  }
}

TEST(Crc32Kernel, PortableMatchesTheIeeeReferenceVector) {
  EXPECT_EQ(detail::crc32_portable("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_portable("", 0), 0x00000000u);
}

TEST(Crc32Kernel, FoldedKernelIsSelectedWhereTheCpuHasIt) {
  const std::string_view kernel = detail::crc32_kernel();
#if defined(__x86_64__)
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    EXPECT_EQ(kernel, "pclmul-fold");
    return;
  }
#endif
  EXPECT_EQ(kernel, "slicing-by-8");
}

// Fixed inputs whose encodings are pinned below. Payloads are well over
// 64 bytes and not a multiple of 16, so the bulk kernel and the table
// tail both contribute to the CRC.
FactorCheckpoint<Rational> fixed_dense_checkpoint() {
  FactorCheckpoint<Rational> c;
  c.algorithm = "GEM";
  c.strategy = 1;
  c.next_step = 3;
  c.matrix = Matrix<Rational>(9, 11);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 11; ++j) {
      c.matrix(i, j) = Rational(numeric::BigInt(static_cast<long long>(i * 7) -
                                                static_cast<long long>(j * 3)),
                                numeric::BigInt(static_cast<long long>(j + 1)));
    }
  }
  c.has_perm = true;
  c.perm = Permutation(9);
  c.perm.swap(0, 4);
  c.perm.swap(2, 7);
  factor::PivotEvent e;
  e.column = 0;
  e.pivot_pos = 4;
  e.pivot_row = 4;
  e.action = factor::PivotAction::kSwap;
  c.trace.record(e);
  return c;
}

StorageCheckpoint<sparse::SparseMatrix<Float53>> fixed_sparse_checkpoint() {
  StorageCheckpoint<sparse::SparseMatrix<Float53>> c;
  c.algorithm = "GEM";
  c.strategy = 2;
  c.next_step = 5;
  Matrix<Float53> m(24, 24);
  for (std::size_t i = 0; i < 24; ++i) {
    m(i, i) = Float53(1.0 + static_cast<double>(i) / 8.0);
    m(i, (i * 5 + 3) % 24) = Float53(-0.5 * static_cast<double>(i + 1));
  }
  c.matrix = sparse::SparseMatrix<Float53>::from_dense(m);
  factor::PivotEvent e;
  e.column = 1;
  e.pivot_pos = 1;
  e.pivot_row = 1;
  e.action = factor::PivotAction::kSkip;
  c.trace.record(e);
  return c;
}

std::uint32_t header_crc(std::string_view blob) {
  detail::ByteReader r(blob.substr(16, 4));
  return r.get_u32();
}

// The encodings of two fixed checkpoints, as written by the build before
// the folding kernel existed: same bytes, same header CRC. A change here
// means blobs already on disk or in flight would stop validating.
TEST(Crc32Kernel, EarlierBlobsKeepTheirHeaderCrc) {
  const std::string dense = encode_checkpoint(fixed_dense_checkpoint());
  EXPECT_EQ(dense.size(), 2072u);
  EXPECT_EQ(header_crc(dense), 0xB5C9DC26u);
  EXPECT_EQ(validate_checkpoint_envelope(dense), CheckpointStatus::kOk);

  const std::string sparse = encode_checkpoint(fixed_sparse_checkpoint());
  EXPECT_EQ(sparse.size(), 1098u);
  EXPECT_EQ(header_crc(sparse), 0xB059D2F5u);
  EXPECT_EQ(validate_checkpoint_envelope(sparse), CheckpointStatus::kOk);
}

}  // namespace
}  // namespace pfact::robustness
