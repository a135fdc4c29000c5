// Seeded defect for PL003 histogram-unnamed: a Histogram row without its
// kebab name — a preprocessor error, like an unnamed counter.
#include <array>

#include "obs/taxonomy.h"

#define SEEDED_HISTOGRAM_ROWS(X)                 \
  X(kPivotMoveDistance, "pivot-move-distance")  \
  X(kQueueDepth)

inline constexpr std::array kSeededHistogramNames{
    SEEDED_HISTOGRAM_ROWS(PFACT_ROW0_NAME)};
