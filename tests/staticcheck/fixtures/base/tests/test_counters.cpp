// staticcheck fixture: the observed leg PL017 demands — every registered
// enumerator is asserted by at least one test source. Not compiled — the
// linter reads tests/ as raw text.
#include "obs/counters.h"

namespace pfact::obs {

void covers_the_taxonomy() {
  ScopedCounters sc;
  const CounterDelta d = sc.delta();
  EXPECT_GT(d[Counter::kElimSteps], 0u);
  EXPECT_GT(d[Counter::kRowUpdates], 0u);
  EXPECT_GT(d[Counter::kFrontendAccepted], 0u);
  EXPECT_GT(d.histogram_total(Histogram::kPivotMoveDistance), 0u);
}

}  // namespace pfact::obs
