// Seeded defect for PL009 worker-exit-unmapped: a WorkerExit left out of
// all_worker_exits(). The enum and the sweep are both expanded from the
// identifier column, so the only way to name and diagnose a death class the
// sweep misses is a row without its identifier, which the extractor
// rejects.
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_WORKER_EXIT_ROWS(X)                  \
  X(kCompleted, "completed", kOk)                   \
  X(kNonzeroExit, "nonzero-exit", kWorkerFailure)   \
  X("mystery", kWorkerFailure)

enum class SeededWorkerExit { SEEDED_WORKER_EXIT_ROWS(PFACT_ROW1_ID) };

}  // namespace pfact::serve
