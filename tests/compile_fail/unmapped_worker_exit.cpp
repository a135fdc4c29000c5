// Seeded defect for PL009 worker-exit-unmapped: a WorkerExit row with no
// Diagnostic leg. A worker dying this way can no longer fall through to the
// kInternalError backstop: the row does not expand.
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_WORKER_EXIT_ROWS(X)                  \
  X(kCompleted, "completed", kOk)                   \
  X(kNonzeroExit, "nonzero-exit", kWorkerFailure)   \
  X(kMystery, "mystery")

enum class SeededWorkerExit { SEEDED_WORKER_EXIT_ROWS(PFACT_ROW1_ID) };

}  // namespace pfact::serve
