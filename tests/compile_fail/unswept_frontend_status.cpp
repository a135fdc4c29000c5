// Seeded defect for PL012 frontend-status-unmapped: a FrontendStatus left
// out of all_frontend_statuses(). The enum and the sweep are both expanded
// from the identifier column, so the only way to name, diagnose and count a
// status the sweep misses is a row without its identifier, which the
// extractor rejects.
#include "obs/counters.h"
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_FRONTEND_STATUS_ROWS(X)                    \
  X(kAccepted, "accepted", kOk, kFrontendAccepted)        \
  X("conn-reset", kConnReset, kFrontendConnResets)

enum class SeededFrontendStatus {
  SEEDED_FRONTEND_STATUS_ROWS(PFACT_ROW2_ID)
};

}  // namespace pfact::serve
