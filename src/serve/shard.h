#pragma once
// Shard process: one self-contained reduction service behind its own Unix
// socket — the unit the shard router (router.h) forks, probes, kills, and
// respawns.
//
// A shard child owns a private ReductionService (its own WarmPool, admission
// queue, and ResultCache) fronted by the existing poll()-driven Frontend, so
// every byte it speaks is the PFRM framing and every refusal is a classified
// FrontendStatus — sharding adds a routing layer, not a second protocol. The
// parent keeps only a ShardSpec (how to respawn it) and a pid; everything
// else about a shard is observable strictly through its socket, which is
// what makes the bulkhead honest: a wedged shard cannot corrupt router state
// it never shares.
//
// ShardStatus is the router's view of one shard's lifecycle, and it is a
// closed taxonomy in the FrontendStatus mold — each state's row names it,
// diagnoses it and counts it, and the sweep is generated from the rows. A
// status the router could observe but not classify would be exactly the
// silent fallthrough this repo's taxonomies exist to prevent.

#include <array>
#include <chrono>
#include <string>
#include <sys/types.h>
#include <vector>

#include "obs/counters.h"
#include "obs/taxonomy.h"
#include "robustness/diagnostics.h"
#include "serve/queue.h"

namespace pfact::serve {

// The router's view of one shard's lifecycle, one row per state (see
// obs/taxonomy.h). Total: at any instant a shard is in exactly one state.
// The Diagnostic leg is what a request that needs this shard should think
// happened. Every non-serving state is a transient property of the moment —
// a booting, wedged, dead, or backing-off shard recovers (or its traffic
// fails over) — so each maps to a retryable diagnostic, never a fatal one.
// The counter leg is bumped on every transition into the state, so a
// restart storm or a flapping shard is visible in the counter snapshot, not
// just in the router's logs.
#define PFACT_SHARD_STATUS_ROWS(X)                                             \
  /* forked; socket not yet probed healthy */                                  \
  X(kStarting, "starting", kConnReset, kShardStarting)                         \
  /* last heartbeat probe acked within its deadline */                         \
  X(kServing, "serving", kOk, kShardServing)                                   \
  /* probe deadline expired: evicted with SIGKILL (bulkhead) */                \
  X(kUnresponsive, "unresponsive", kDeadlineExceeded, kShardUnresponsive)      \
  /* reaped by waitpid; death classified via WorkerExit */                     \
  X(kDead, "dead", kWorkerFailure, kShardDead)                                 \
  /* waiting out the seeded restart backoff before respawn */                  \
  X(kRestarting, "restarting", kConnReset, kShardRestarting)

enum class ShardStatus { PFACT_SHARD_STATUS_ROWS(PFACT_ROW2_ID) };

inline constexpr std::array kShardStatusNames{
    PFACT_SHARD_STATUS_ROWS(PFACT_ROW2_NAME)};
PFACT_TAXONOMY_CHECK_NAMES(kShardStatusNames);
inline constexpr std::size_t kNumShardStatuses = kShardStatusNames.size();
inline constexpr std::array kShardStatusDiagnoses = PFACT_TAXONOMY_LEGS(
    robustness::Diagnostic, PFACT_SHARD_STATUS_ROWS, PFACT_ROW2_DIAGNOSTIC);
inline constexpr std::array kShardStatusCounters = PFACT_TAXONOMY_LEGS(
    obs::Counter, PFACT_SHARD_STATUS_ROWS, PFACT_ROW2_COUNTER);

inline const char* shard_status_name(ShardStatus s) {
  return obs::row_or(kShardStatusNames, s, "?");
}

// The sweepable taxonomy, for the --shard soak's full-coverage contract:
// every state a shard can be in must actually be produced and survived by a
// real campaign (kills, wedges, restart storms).
inline const std::vector<ShardStatus>& all_shard_statuses() {
  return obs::sweep<ShardStatus, kNumShardStatuses>();
}

inline robustness::Diagnostic diagnose_shard_status(ShardStatus s) {
  return obs::row_or(kShardStatusDiagnoses, s,
                     robustness::Diagnostic::kInternalError);
}

inline obs::Counter shard_status_counter(ShardStatus s) {
  return obs::row_or(kShardStatusCounters, s, obs::Counter::kShardDead);
}

// Everything needed to fork (and re-fork, bit-identically) one shard.
struct ShardSpec {
  std::size_t index = 0;    // stable identity: ring position + log label
  std::string unix_path;    // the shard's own listener socket
  ServiceOptions service;   // private pool/queue/cache configuration
};

// Forks a shard child. The child builds a ReductionService + Frontend on
// spec.unix_path and serves until SIGTERM (graceful drain) or a harder
// death; it never returns. The parent gets the pid, or -1 if fork failed.
pid_t spawn_shard(const ShardSpec& spec);

// One blocking heartbeat: connect to `unix_path`, send an empty kProbe
// frame, and wait for the echo within `deadline`. True only on a verified
// echo — a shard whose event loop cannot answer this is wedged or dead,
// whatever its pid says.
bool probe_shard(const std::string& unix_path,
                 std::chrono::milliseconds deadline);

}  // namespace pfact::serve
