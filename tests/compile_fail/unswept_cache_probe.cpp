// Seeded defect for PL010 serve-rejection-unmapped: a CacheProbe left out of
// all_cache_probes(). The enum and the sweep are both expanded from the
// identifier column, so the only way to name and diagnose a probe outcome
// the sweep misses is a row without its identifier, which the extractor
// rejects.
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_CACHE_PROBE_ROWS(X)                        \
  X(kHit, "hit", kOk)                                     \
  X(kMiss, "miss", kOk)                                   \
  X("envelope-rejected", kCheckpointCorrupt)

enum class SeededCacheProbe { SEEDED_CACHE_PROBE_ROWS(PFACT_ROW1_ID) };

}  // namespace pfact::serve
