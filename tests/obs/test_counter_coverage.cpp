// Liveness coverage for the in-process counter taxonomy: every registered
// Counter/Histogram that a library operation can bump without forking
// workers is exercised here and asserted through ScopedCounters deltas.
// This is the observed leg of the PL017 counter-dead lint rule — a counter
// no test asserts can silently rot when the instrumentation it summarizes
// breaks. The serve-layer counters (fork/socket paths) get the same
// treatment in tests/serve/test_serve_counters.cpp.
//
// Value assertions are gated on PFACT_OBS_ENABLED like the rest of the obs
// suite: in a -DPFACT_OBS=OFF build the operations must still run and the
// deltas must read all-zero.

#include <gtest/gtest.h>

#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "factor/gaussian.h"
#include "factor/householder.h"
#include "factor/triangular.h"
#include "matrix/matrix.h"
#include "matrix/sparse.h"
#include "numeric/bigint.h"
#include "numeric/softfloat.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robustness/guarded_run.h"
#include "robustness/resilient_run.h"

namespace pfact::obs {
namespace {

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;

TEST(CounterCoverage, GaussianPivotingCountsScansKeepsSkipsAndRowElems) {
  ScopedCounters sc;
  // Column 0: keep + a real row update; column 2 is structurally zero
  // below the diagonal, so partial pivoting must record a skip there.
  Matrix<double> a{{2.0, 1.0, 1.0, 1.0},
                   {1.0, 1.0, 0.0, 0.0},
                   {0.0, 0.0, 0.0, 1.0},
                   {0.0, 0.0, 0.0, 2.0}};
  const factor::LuResult<double> f =
      factor::ge_factor(a, factor::PivotStrategy::kPartial);
  EXPECT_TRUE(f.ok);
  const CounterDelta d = sc.delta();
  if (!kObsOn) {
    EXPECT_EQ(d[Counter::kPivotScanRows], 0u);
    return;
  }
  EXPECT_GT(d[Counter::kPivotScanRows], 0u);
  EXPECT_GE(d[Counter::kPivotKeeps], 2u);   // columns 0 and 1
  EXPECT_GE(d[Counter::kPivotSkips], 1u);   // the dead column 2
  EXPECT_GE(d[Counter::kRowUpdateElems], 3u);  // row 1's axpy under col 0
}

TEST(CounterCoverage, TriangularSolvesAndReflectionsAreCounted) {
  ScopedCounters sc;
  const Matrix<double> a{{4.0, 1.0}, {2.0, 3.0}};
  const std::vector<double> x =
      factor::solve_plu(a, {5.0, 5.0}, factor::PivotStrategy::kPartial);
  ASSERT_EQ(x.size(), 2u);
  const factor::HouseholderResult<double> qr = factor::householder_qr(a);
  EXPECT_GT(qr.reflections, 0u);
  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kTriangularSolves], 2u);  // forward + back
  EXPECT_GE(d[Counter::kHouseholderReflections], qr.reflections);
}

TEST(CounterCoverage, SoftFloatOpsAndEveryRoundingModeAreCounted) {
  using numeric::Float53;
  using numeric::ScopedSoftFloatRounding;
  using numeric::SoftFloatRounding;
  ScopedCounters sc;
  // 1/3 has a full 53-bit significand, so the product needs rounding —
  // which is what routes through the per-mode rounding counters.
  const Float53 third = Float53(1.0) / Float53(3.0);
  volatile double sink = 0;
  {
    ScopedSoftFloatRounding mode(SoftFloatRounding::kNearestEven);
    sink = (third * third + third).to_double();
  }
  {
    ScopedSoftFloatRounding mode(SoftFloatRounding::kTowardZero);
    sink = (third * third).to_double();
  }
  {
    ScopedSoftFloatRounding mode(SoftFloatRounding::kAwayFromZero);
    sink = (third * third).to_double();
  }
  sink = sqrt(Float53(2.0)).to_double();
  (void)sink;
  const CounterDelta d = sc.delta();
  if (!kObsOn) {
    EXPECT_EQ(d[Counter::kSoftFloatAdds], 0u);
    return;
  }
  EXPECT_GE(d[Counter::kSoftFloatAdds], 1u);
  EXPECT_GE(d[Counter::kSoftFloatMuls], 3u);
  EXPECT_GE(d[Counter::kSoftFloatDivs], 1u);
  EXPECT_GE(d[Counter::kSoftFloatSqrts], 1u);
  EXPECT_GE(d[Counter::kSoftFloatRoundNearestEven], 1u);
  EXPECT_GE(d[Counter::kSoftFloatRoundTowardZero], 1u);
  EXPECT_GE(d[Counter::kSoftFloatRoundAwayFromZero], 1u);
}

TEST(CounterCoverage, BigIntAllocsMulsDivsAndLimbHistogramAreCounted) {
  using numeric::BigInt;
  ScopedCounters sc;
  // ~40 decimal digits: multi-limb magnitudes, so the allocation counters
  // and the limb-size histogram all see real traffic.
  const BigInt a = BigInt::from_string("123456789012345678901234567890123456789");
  const BigInt b = a * a;
  const BigInt q = b / a;
  EXPECT_EQ(q.to_string(), a.to_string());
  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kBigIntAllocs], 2u);
  EXPECT_GE(d[Counter::kBigIntLimbsAllocated], 4u);
  EXPECT_GE(d[Counter::kBigIntMuls], 1u);
  EXPECT_GE(d[Counter::kBigIntDivs], 1u);
  EXPECT_GT(d.histogram_total(Histogram::kBigIntLimbs), 0u);
}

TEST(CounterCoverage, PoolSubmitsAndSpanDurationsAreRecorded) {
  ScopedCounters sc;
  {
    par::ThreadPool pool(2);
    pool.submit([] {}).get();
  }
  {
    ScopedTracing tracing;
    { ScopedSpan span("test.counter-coverage"); }
    // An empty trace is the obs-off contract.
    EXPECT_EQ(dump_spans().size(), kObsOn ? 1u : 0u);
  }
  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kPoolTasksSubmitted], 1u);
  EXPECT_GT(d.histogram_total(Histogram::kSpanDurationUs), 0u);
}

TEST(CounterCoverage, SparseBuildCoalesceDropFillAndRowNnzAreCounted) {
  ScopedCounters sc;
  sparse::TripletBuilder<double> tb(3, 3);
  tb.add(0, 0, 1.0);
  tb.add(0, 0, 1.0);   // coalesces with the previous triplet
  tb.add(1, 1, 2.0);
  tb.add(1, 1, -2.0);  // coalesces to an exact zero: dropped, not stored
  tb.add(0, 2, 5.0);
  tb.add(2, 2, 1.0);
  const sparse::CsrMatrix<double> csr = tb.build();
  EXPECT_EQ(csr.nnz(), 3u);

  // row_axpy(1, 0, f): row 0 holds a column-2 entry row 1 lacks — fill-in.
  sparse::SparseMatrix<double> s(csr);
  s.row_axpy(1, 0, 3.0);
  EXPECT_FALSE(is_zero(s.get(1, 2)));

  const CounterDelta d = sc.delta();
  if (!kObsOn) {
    EXPECT_EQ(d[Counter::kSparseBuilds], 0u);
    return;
  }
  EXPECT_GE(d[Counter::kSparseBuilds], 1u);
  EXPECT_GE(d[Counter::kSparseTripletsCoalesced], 2u);
  EXPECT_GE(d[Counter::kSparseZeroDrops], 1u);
  EXPECT_GE(d[Counter::kSparseFillIns], 1u);
  EXPECT_GT(d.histogram_total(Histogram::kSparseRowNnz), 0u);
}

TEST(CounterCoverage, EscalationsAreCounted) {
  using namespace pfact::robustness;
  ReductionTask task;
  task.algorithm = Algorithm::kGep;
  task.u = 2;
  task.w = 2;
  task.depth = 1;
  ResilientOptions opt;
  opt.ladder = {Substrate::kSoftFloat53, Substrate::kRational};
  opt.retry.max_attempts = 2;
  FaultPlan flip;
  flip.fault = FaultClass::kRoundingFlip;
  opt.fault_for_attempt = [flip](std::size_t) { return flip; };

  ScopedCounters sc;
  const ResilientReport rep = resilient_run(task, opt);
  ASSERT_TRUE(rep.certified) << rep.to_string();
  EXPECT_EQ(rep.escalations, 1u);
  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kEscalations], 1u);
}

TEST(CounterCoverage, CheckpointRejectsAreCounted) {
  using namespace pfact::robustness;
  ReductionTask task;
  task.algorithm = Algorithm::kGem;
  task.instance = circuit::CvpInstance{circuit::xor_circuit(), {true, true}};

  CheckpointStore pristine;
  CheckpointConfig save;
  save.every = 2;
  save.store = &pristine;
  run_on_substrate(task, Substrate::kDouble, {}, {}, save);
  ASSERT_FALSE(pristine.empty());
  std::string blob = *pristine.latest();
  blob[blob.size() / 2] ^= 0x10;  // CRC-breaking body flip

  CheckpointStore store;
  store.put(pristine.latest_step(), blob);
  CheckpointConfig resume;
  resume.every = 2;
  resume.store = &store;
  resume.resume = true;
  ScopedCounters sc;
  const RunReport rep = run_on_substrate(task, Substrate::kDouble, {}, {},
                                         resume);
  EXPECT_EQ(rep.diagnostic, Diagnostic::kCheckpointCorrupt);
  const CounterDelta d = sc.delta();
  if (!kObsOn) return;
  EXPECT_GE(d[Counter::kCheckpointRejects], 1u);
}

}  // namespace
}  // namespace pfact::obs
