// Metrics-vs-theory tests: the observability layer measures what Table 1
// predicts. Three claims are checked against live counter/span data:
//
//  1. GEM on the A_C family has a pivot-decision chain that grows LINEARLY
//     with the matrix order (the incompressible chain of Theorem 3.1), while
//     the GEMS-NC^2 route's structural depth model is polylog — the measured
//     per-order depth ratio collapses as n grows.
//  2. The NC route's parallel work is real: prefix_row_ranks issues exactly
//     n independent rank queries and, given >= 2 workers, their spans
//     overlap instead of forming a chain.
//  3. GQR on the NAND/PASS gadget chain performs exactly the rotation count
//     the gadget algebra predicts: kGqrNandRotations + depth *
//     kGqrPassRotations, for every input pair and chain depth.
//
// Counter-value assertions are gated on PFACT_OBS_ENABLED so the suite
// still passes (structural-model parts only) under -DPFACT_OBS=OFF.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "analysis/depth_model.h"
#include "circuit/builders.h"
#include "core/assembler.h"
#include "core/bordering.h"
#include "core/gqr_gadgets.h"
#include "core/simulator.h"
#include "factor/givens.h"
#include "matrix/generators.h"
#include "matrix/matrix.h"
#include "nc/bareiss.h"
#include "nc/lfmis.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace pfact {
namespace {

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;

circuit::CvpInstance chain_instance(std::size_t depth) {
  circuit::Circuit c = circuit::deep_chain_circuit(depth);
  return {c, std::vector<bool>(c.num_inputs(), true)};
}

// Claim 1a, measured half: GEM's pivot chain is exactly the matrix order.
TEST(MetricsTheory, GemPivotChainGrowsLinearlyWithTheOrder) {
  if (!kObsOn) GTEST_SKIP() << "observability compiled out";
  std::vector<std::size_t> orders;
  std::vector<std::uint64_t> depths;
  for (std::size_t d = 1; d <= 4; ++d) {
    obs::ScopedCounters sc;
    core::SimulationResult r = core::simulate_gem<double>(
        chain_instance(d), factor::PivotStrategy::kMinimalSwap);
    ASSERT_TRUE(r.ok);
    obs::CounterDelta delta = sc.delta();
    // Every column of A_C is one dependent elimination step: the measured
    // decision chain IS the order, with no parallel slack.
    EXPECT_EQ(delta[obs::Counter::kElimSteps], r.order);
    analysis::WorkDepth measured = analysis::elimination_from_counters(delta);
    EXPECT_EQ(measured.depth, r.order);
    EXPECT_GE(measured.work, r.order);  // rank-1 updates did real work
    orders.push_back(r.order);
    depths.push_back(delta[obs::Counter::kElimSteps]);
  }
  // Linear growth: depth deltas track order deltas exactly.
  for (std::size_t i = 1; i < orders.size(); ++i) {
    EXPECT_EQ(depths[i] - depths[i - 1], orders[i] - orders[i - 1]);
  }
}

// Claim 1b, structural half: on the same orders the GEM runs produced, the
// NC^2 model's depth is polylog — the depth/order ratio strictly collapses
// while GEM's stays pinned at 1.
TEST(MetricsTheory, GemsNcModelDepthCollapsesWhereGemStaysLinear) {
  std::vector<std::size_t> orders;
  for (std::size_t d = 1; d <= 4; ++d) {
    core::GemReduction red = core::build_gem_reduction(chain_instance(d));
    orders.push_back(red.matrix.rows());
  }
  double prev_ratio = 2.0;
  for (std::size_t n : orders) {
    analysis::WorkDepth gem = analysis::ge_sequential(n);
    analysis::WorkDepth nc = analysis::gems_nc(n);
    EXPECT_EQ(gem.depth, n - 1);  // linear, always
    const double ratio = static_cast<double>(nc.depth) / static_cast<double>(n);
    EXPECT_LT(ratio, prev_ratio) << "order " << n;
    prev_ratio = ratio;
  }
  // By the largest family member the NC depth is strictly below the chain.
  EXPECT_LT(analysis::gems_nc(orders.back()).depth, orders.back() - 1);
}

// Claim 2: the permutation phase of the NC route really is parallel work.
TEST(MetricsTheory, PrefixRankQueriesAreIndependentAndOverlap) {
  if (!kObsOn) GTEST_SKIP() << "observability compiled out";
  core::GemReduction red = core::build_gem_reduction(chain_instance(1));
  Matrix<numeric::Rational> a =
      to_rational(core::border_nonsingular(red.matrix));
  obs::ScopedCounters sc;
  obs::ScopedTracing tracing;
  std::vector<std::size_t> ranks = nc::prefix_row_ranks(a);
  ASSERT_EQ(ranks.size(), a.rows());
  EXPECT_EQ(ranks.back(), a.rows());  // bordered matrix is nonsingular
  // One rank query per prefix, issued all at once.
  EXPECT_EQ(sc.delta()[obs::Counter::kRankQueries], a.rows());
  std::vector<obs::SpanEvent> rank_spans;
  for (const obs::SpanEvent& s : obs::dump_spans()) {
    if (std::string(s.name) == "lfmis.rank") rank_spans.push_back(s);
  }
  ASSERT_EQ(rank_spans.size(), a.rows());
  if (par::ThreadPool::global().size() >= 2) {
    // The queries coexist in time: measured critical path < query count.
    // The first and last query rendezvous, each waiting for the other, so
    // two are provably in flight at once — which only independent queries
    // allow, and which holds on a time-sliced core as well as on many. The
    // wait is bounded: queries that cannot overlap fail, never hang.
    obs::clear_spans();
    std::atomic<int> arrived{0};
    const std::size_t last = a.rows() - 1;
    const std::vector<std::size_t> latched = nc::prefix_row_ranks(
        a, [&](std::size_t i, const Matrix<numeric::Rational>& prefix) {
          if (i == 0 || i == last) {
            arrived.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (arrived.load() < 2 &&
                   std::chrono::steady_clock::now() < deadline)
              std::this_thread::yield();
          }
          return nc::rank_exact(prefix);
        });
    EXPECT_EQ(latched, ranks);
    rank_spans.clear();
    for (const obs::SpanEvent& s : obs::dump_spans()) {
      if (std::string(s.name) == "lfmis.rank") rank_spans.push_back(s);
    }
    ASSERT_EQ(rank_spans.size(), a.rows());
    EXPECT_LT(obs::critical_path_depth(rank_spans), rank_spans.size());
  }
}

// Claim 3: GQR rotation counts match the gadget algebra exactly. A NAND
// block retires kGqrNandRotations rotations and each PASS block
// kGqrPassRotations more, independent of the boolean values flowing through.
TEST(MetricsTheory, GqrRotationCountMatchesTheGadgetPrediction) {
  if (!kObsOn) GTEST_SKIP() << "observability compiled out";
  for (std::size_t depth = 0; depth <= 6; ++depth) {
    for (int a : {-1, 1}) {
      for (int b : {-1, 1}) {
        core::GqrChain chain = core::build_gqr_nand_chain(a, b, depth);
        Matrix<long double> m = chain.matrix;
        obs::ScopedCounters sc;
        factor::givens_steps(m, m.rows() * m.rows());
        EXPECT_EQ(sc.delta()[obs::Counter::kGivensRotations],
                  core::kGqrNandRotations + depth * core::kGqrPassRotations)
            << "a=" << a << " b=" << b << " depth=" << depth;
      }
    }
  }
}

// Bonus cross-check: the staged (Sameh-Kuck) runner reports its stage count
// through the counters, and the counter-derived depth model sees the stage
// compression relative to the rotation count.
TEST(MetricsTheory, SamehKuckStagesCompressTheRotationChain) {
  if (!kObsOn) GTEST_SKIP() << "observability compiled out";
  Matrix<double> a = gen::random_general(16, 20260807);
  obs::ScopedCounters sc;
  factor::QrResult<double> res = factor::givens_qr_sameh_kuck(a);
  obs::CounterDelta d = sc.delta();
  EXPECT_EQ(d[obs::Counter::kGivensRotations], res.rotations);
  EXPECT_EQ(d[obs::Counter::kGivensStages], res.stages);
  analysis::WorkDepth measured = analysis::givens_from_counters(d);
  EXPECT_EQ(measured.depth, res.stages);
  EXPECT_LT(measured.depth, res.rotations);  // 2n-3 stages vs n(n-1)/2
  // And the structural model agrees on the stage count's order: the staged
  // depth is within the 2n-3 bound.
  EXPECT_LE(res.stages, analysis::givens_sameh_kuck(16).depth);
}

}  // namespace
}  // namespace pfact
