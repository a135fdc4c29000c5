// Seeded defect for PL019 shard-status-unmapped: a ShardStatus left out of
// all_shard_statuses(). The enum and the sweep are both expanded from the
// identifier column, so the only way to name, diagnose and count a status
// the sweep misses is a row without its identifier, which the extractor
// rejects.
#include "obs/counters.h"
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_SHARD_STATUS_ROWS(X)                              \
  X(kServing, "serving", kOk, kShardServing)                     \
  X("unresponsive", kDeadlineExceeded, kShardUnresponsive)

enum class SeededShardStatus { SEEDED_SHARD_STATUS_ROWS(PFACT_ROW2_ID) };

}  // namespace pfact::serve
