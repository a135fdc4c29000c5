#pragma once
// Seeded violation for PL017: Counter::kOrphanEvents has a row (so it is
// registered and named) but nothing in src/ or bench/ ever bumps it and no
// test or bench source observes it.

namespace pfact::obs {

#define PFACT_COUNTER_ROWS(X)                                                  \
  X(kElimSteps, "elim-steps")                                                  \
  X(kRowUpdates, "row-updates")                                                \
  X(kFrontendAccepted, "frontend-accepted")                                    \
  X(kOrphanEvents, "orphan-events")

enum class Counter : std::size_t { PFACT_COUNTER_ROWS(PFACT_ROW0_ID) };

#define PFACT_HISTOGRAM_ROWS(X) X(kPivotMoveDistance, "pivot-move-distance")

enum class Histogram : std::size_t { PFACT_HISTOGRAM_ROWS(PFACT_ROW0_ID) };

}  // namespace pfact::obs
