// The parallel executions must be BIT-IDENTICAL to their sequential
// counterparts: parallelism reorders independent work only.
#include "factor/parallel_factor.h"

#include <gtest/gtest.h>

#include "matrix/generators.h"
#include "numeric/rational.h"

namespace pfact::factor {

// Prints the strategy by name. Without it gtest prints the enum's raw bytes
// into the test names that gtest_discover_tests registers with ctest.
void PrintTo(PivotStrategy s, std::ostream* os) {
  *os << pivot_strategy_name(s);
}

namespace {

using numeric::Rational;

TEST(ParallelSamehKuck, BitIdenticalToSequential) {
  par::ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto a = gen::random_general(20, seed);
    auto seq = givens_qr_sameh_kuck(a, false);
    auto par_res = givens_qr_sameh_kuck_parallel(a, &pool);
    EXPECT_EQ(max_abs_diff(seq.r, par_res.r), 0.0) << seed;
    EXPECT_EQ(seq.rotations, par_res.rotations);
    EXPECT_EQ(seq.stages, par_res.stages);
  }
}

TEST(ParallelSamehKuck, StageCountIsLinear) {
  par::ThreadPool pool(4);
  auto a = gen::random_general(24, 3);
  auto r = givens_qr_sameh_kuck_parallel(a, &pool);
  EXPECT_EQ(r.stages, 2 * 24 - 3);
  EXPECT_TRUE(r.r.is_upper_triangular());
}

class ParallelGeTest : public ::testing::TestWithParam<PivotStrategy> {};

TEST_P(ParallelGeTest, BitIdenticalToSequentialDouble) {
  par::ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    auto a = gen::random_nonsingular(16, seed);
    auto seq = ge_factor(a, GetParam());
    auto par_res = ge_factor_parallel_rows(a, GetParam(), &pool);
    ASSERT_EQ(seq.ok, par_res.ok);
    EXPECT_EQ(max_abs_diff(seq.l, par_res.l), 0.0) << seed;
    EXPECT_EQ(max_abs_diff(seq.u, par_res.u), 0.0) << seed;
    EXPECT_EQ(seq.row_perm, par_res.row_perm);
  }
}

TEST_P(ParallelGeTest, ExactRationalIdentical) {
  par::ThreadPool pool(2);
  auto a = gen::random_nonsingular_exact(7, 3, 5);
  auto seq = ge_factor(a, GetParam());
  auto par_res = ge_factor_parallel_rows(a, GetParam(), &pool);
  EXPECT_EQ(seq.l, par_res.l);
  EXPECT_EQ(seq.u, par_res.u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ParallelGeTest,
    ::testing::Values(PivotStrategy::kPartial, PivotStrategy::kMinimalSwap,
                      PivotStrategy::kMinimalShift),
    [](const auto& info) { return pivot_strategy_name(info.param); });

TEST(ParallelGe, GemReductionStillSimulatesThroughParallelEngine) {
  // The P-completeness content is about the pivot CHAIN, not the row
  // updates: the parallel-row engine runs the GEM reduction identically.
  par::ThreadPool pool(3);
  Matrix<double> tri{{0, 1, 0}, {0, 0, 1}, {7, 0, 0}};
  auto seq = ge_factor(tri, PivotStrategy::kMinimalShift);
  auto par_res =
      ge_factor_parallel_rows(tri, PivotStrategy::kMinimalShift, &pool);
  EXPECT_EQ(seq.row_perm, par_res.row_perm);
}

TEST(ParallelGe, PlainGeFailureDetectedIdentically) {
  par::ThreadPool pool(2);
  Matrix<double> a{{0, 1}, {1, 0}};
  auto r = ge_factor_parallel_rows(a, PivotStrategy::kNone, &pool);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace pfact::factor
