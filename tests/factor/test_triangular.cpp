#include "factor/triangular.h"

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

double residual_inf(const Matrix<double>& a, const std::vector<double>& x,
                    const std::vector<double>& b) {
  auto ax = matvec(a, x);
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r = std::max(r, std::abs(ax[i] - b[i]));
  return r;
}

TEST(Triangular, ForwardSolveKnown) {
  Matrix<double> l{{1, 0}, {2, 1}};
  auto y = forward_solve(l, {3.0, 8.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(Triangular, BackSolveKnown) {
  Matrix<double> u{{2, 1}, {0, 4}};
  auto x = back_solve(u, {4.0, 8.0});
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
}

TEST(Triangular, SingularDiagonalThrows) {
  Matrix<double> u{{0, 1}, {0, 1}};
  EXPECT_THROW(back_solve(u, {1.0, 1.0}), std::domain_error);
  EXPECT_THROW(forward_solve(u, {1.0, 1.0}), std::domain_error);
}

TEST(Triangular, SizeMismatchThrows) {
  Matrix<double> u{{1, 0}, {0, 1}};
  EXPECT_THROW(back_solve(u, {1.0}), std::invalid_argument);
}

class SolveTest : public ::testing::TestWithParam<PivotStrategy> {};

TEST_P(SolveTest, PluSolveResidualSmall) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    auto a = gen::random_nonsingular(10, seed);
    std::vector<double> b(10);
    for (std::size_t i = 0; i < 10; ++i) b[i] = static_cast<double>(i) - 4.5;
    auto x = solve_plu(a, b, GetParam());
    EXPECT_LE(residual_inf(a, x, b), 1e-8) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SolveTest,
    ::testing::Values(PivotStrategy::kPartial, PivotStrategy::kMinimalSwap,
                      PivotStrategy::kMinimalShift),
    [](const auto& info) { return pivot_strategy_name(info.param); });

TEST(Solve, QrSolveBothOrderings) {
  auto a = gen::random_nonsingular(9, 2);
  std::vector<double> b(9, 1.0);
  for (bool sk : {false, true}) {
    auto x = solve_qr(a, b, sk);
    EXPECT_LE(residual_inf(a, x, b), 1e-9) << "sameh_kuck=" << sk;
  }
}

TEST(Solve, ExactRationalSolveIsExact) {
  auto a = gen::random_nonsingular_exact(6, 4, 3);
  std::vector<Rational> b(6);
  for (int i = 0; i < 6; ++i) b[i] = Rational(i - 3, 2);
  auto x = solve_plu(a, b, PivotStrategy::kMinimalShift);
  auto ax = matvec(a, x);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(ax[i], b[i]);
}

TEST(Solve, GepOnWilkinsonGrowthStillSolves) {
  auto a = gen::wilkinson_growth(20);
  std::vector<double> b(20, 1.0);
  auto x = solve_plu(a, b, PivotStrategy::kPartial);
  EXPECT_LE(residual_inf(a, x, b), 1e-6);  // growth 2^19 but residual ok
}

}  // namespace
}  // namespace pfact::factor

namespace pfact::factor {
namespace {

TEST(Refinement, RestoresAccuracyForMinimalPivoting) {
  // GEM on the Wilkinson growth matrix has ~2^(n-1) element growth; two
  // refinement sweeps recover a backward-stable solution.
  auto a = gen::wilkinson_growth(28);
  std::vector<double> b(28);
  for (int i = 0; i < 28; ++i) b[i] = std::sin(i + 1.0);
  auto plain = solve_plu(a, b, PivotStrategy::kMinimalSwap);
  auto refined = solve_plu_refined(a, b, PivotStrategy::kMinimalSwap, 2);
  double r_plain = residual_inf(a, plain, b);
  double r_refined = residual_inf(a, refined, b);
  EXPECT_LT(r_refined, 1e-12);
  EXPECT_LE(r_refined, r_plain);
}

TEST(Refinement, NoopOnAlreadyStableSolve) {
  auto a = gen::random_diagonally_dominant(10, 3);
  std::vector<double> b(10, 1.0);
  auto x = solve_plu_refined(a, b, PivotStrategy::kPartial, 1);
  EXPECT_LE(residual_inf(a, x, b), 1e-12);
}

TEST(SolveFactored, ReusesFactorization) {
  auto a = gen::random_nonsingular(8, 5);
  auto f = gep(a);
  for (double scale : {1.0, 2.0, -3.0}) {
    std::vector<double> b(8, scale);
    auto x = solve_factored(f, b);
    EXPECT_LE(residual_inf(a, x, b), 1e-9);
  }
}

}  // namespace
}  // namespace pfact::factor
