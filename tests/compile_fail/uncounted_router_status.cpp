// Seeded defect for PL019 shard-status-unmapped: a RouterStatus row with a
// Diagnostic leg but no obs counter. An ending nobody counts would be
// invisible to monitoring; the four-column extractor rejects the row.
#include "obs/counters.h"
#include "robustness/diagnostics.h"

namespace pfact::serve {

#define SEEDED_ROUTER_STATUS_ROWS(X)                  \
  X(kRouted, "routed", kOk, kRouterRoutes)            \
  X(kBrownoutShed, "brownout-shed", kOverloaded)

enum class SeededRouterStatus { SEEDED_ROUTER_STATUS_ROWS(PFACT_ROW2_ID) };

}  // namespace pfact::serve
