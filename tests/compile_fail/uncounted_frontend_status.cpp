// Seeded defect for PL012 frontend-status-unmapped: a FrontendStatus row
// with a Diagnostic leg but no obs counter. A conversation ending nobody
// counts would be invisible to monitoring; the four-column extractor
// rejects the row.
#include "obs/counters.h"
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_FRONTEND_STATUS_ROWS(X)                    \
  X(kAccepted, "accepted", kOk, kFrontendAccepted)        \
  X(kDraining, "draining", kCancelled)

enum class SeededFrontendStatus {
  SEEDED_FRONTEND_STATUS_ROWS(PFACT_ROW2_ID)
};

}  // namespace pfact::serve
