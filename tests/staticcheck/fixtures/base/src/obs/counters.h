#pragma once
// staticcheck fixture: minimal Counter/Histogram row lists in the shape
// PL017 reads. Not compiled — parsed only.

namespace pfact::obs {

#define PFACT_COUNTER_ROWS(X)                                                  \
  X(kElimSteps, "elim-steps") /* bumped in factor/gaussian.cpp */              \
  X(kRowUpdates, "row-updates")                                                \
  /* bumped through the counter leg of a FrontendStatus row */                 \
  X(kFrontendAccepted, "frontend-accepted")

enum class Counter : std::size_t { PFACT_COUNTER_ROWS(PFACT_ROW0_ID) };

#define PFACT_HISTOGRAM_ROWS(X) X(kPivotMoveDistance, "pivot-move-distance")

enum class Histogram : std::size_t { PFACT_HISTOGRAM_ROWS(PFACT_ROW0_ID) };

}  // namespace pfact::obs
