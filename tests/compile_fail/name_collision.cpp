// Seeded defect for PL002 obs-name-collision: a histogram row reusing the
// name of a real counter. Counters and histograms share one JSON key space,
// so the distinctness check runs over both lists at once.
#include <array>

#include "obs/counters.h"

#define SEEDED_HISTOGRAM_ROWS(X) X(kElimStepDistance, "elim-steps")

PFACT_TAXONOMY_CHECK_NAMES((std::array{PFACT_COUNTER_ROWS(PFACT_ROW0_NAME)
                                           SEEDED_HISTOGRAM_ROWS(
                                               PFACT_ROW0_NAME)}));
