#pragma once
// Operation counters — the quantitative backbone of the observability layer.
//
// The paper's claims are claims about *operation sequences*: GEM/GEP/GQR on a
// reduction matrix A_C must execute a pivot/rotation chain whose length and
// order encode the circuit evaluation, while the NC algorithms trade a much
// larger operation *count* for a short critical path. These counters make
// those quantities measurable on every run: elimination steps, pivot moves by
// kind, Givens rotations, SoftFloat operations by rounding mode, BigInt limb
// allocations, thread-pool chunks, detected fault injections, and so on.
//
// Design constraints (see DESIGN.md section 8):
//   * Near-zero cost when compiled out: every call site goes through the
//     PFACT_COUNT / PFACT_COUNT_N / PFACT_HISTO macros, which expand to
//     ((void)0) when PFACT_OBS_ENABLED is 0 (-DPFACT_OBS=OFF in CMake).
//   * Low overhead when compiled in: one thread-local block of relaxed
//     atomics per thread; an increment is a TLS load plus a relaxed
//     fetch_add. No locks on the hot path.
//   * TSan-clean aggregation: snapshots read every thread's block with
//     relaxed atomic loads; blocks live in a global registry that never
//     frees them, so a snapshot can never race with a dying thread's block.
//
// Counters are cumulative per process. Deltas over a region are taken with
// ScopedCounters (RAII) or by subtracting two CounterSnapshots.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/taxonomy.h"

// Compile-time master switch. CMake defines PFACT_OBS_ENABLED=0 when
// configured with -DPFACT_OBS=OFF; default is on.
#if !defined(PFACT_OBS_ENABLED)
#define PFACT_OBS_ENABLED 1
#endif

namespace pfact::obs {

// The fixed counter taxonomy, one row per counter (see obs/taxonomy.h).
// Stable kebab-case names (counter_name) are the JSON keys of every emitted
// snapshot — append new counters at the end of their group and never reuse
// a name with a different meaning.
#define PFACT_COUNTER_ROWS(X)                                                  \
  /* --- factor/: elimination engines --- */                                   \
  /* elimination steps entered (pivot decisions) */                            \
  X(kElimSteps, "elim-steps")                                                  \
  /* rows examined while selecting pivots */                                   \
  X(kPivotScanRows, "pivot-scan-rows")                                         \
  X(kPivotKeeps, "pivot-keeps") /* pivot already in place */                   \
  X(kPivotSwaps, "pivot-swaps") /* row exchanges (GEP / GEM) */                \
  X(kPivotShifts, "pivot-shifts") /* circular shifts (GEMS) */                 \
  X(kPivotSkips, "pivot-skips") /* columns with no usable pivot */             \
  X(kRowUpdates, "row-updates") /* rank-1 row updates applied */               \
  /* scalar multiply-subtract element operations */                            \
  X(kRowUpdateElems, "row-update-elems")                                       \
  /* --- factor/: orthogonal engines --- */                                    \
  X(kGivensRotations, "givens-rotations") /* rotations actually applied */     \
  /* parallel stages containing >= 1 rotation */                               \
  X(kGivensStages, "givens-stages")                                            \
  X(kHouseholderReflections, "householder-reflections")                        \
  /* forward/back substitutions run */                                         \
  X(kTriangularSolves, "triangular-solves")                                    \
  /* --- factor/: guards --- */                                                \
  X(kGuardTicks, "guard-ticks") /* StepGuard budget checks */                  \
  /* --- numeric/: SoftFloat ops by kind --- */                                \
  X(kSoftFloatAdds, "softfloat-adds") /* additions/subtractions */             \
  X(kSoftFloatMuls, "softfloat-muls")                                          \
  X(kSoftFloatDivs, "softfloat-divs")                                          \
  X(kSoftFloatSqrts, "softfloat-sqrts")                                        \
  /* --- numeric/: SoftFloat rounded normalizations by mode --- */             \
  X(kSoftFloatRoundNearestEven, "softfloat-round-nearest-even")                \
  X(kSoftFloatRoundTowardZero, "softfloat-round-toward-zero")                  \
  X(kSoftFloatRoundAwayFromZero, "softfloat-round-away-from-zero")             \
  /* --- numeric/: BigInt --- */                                               \
  /* nonzero magnitudes produced (counted at trim()) */                        \
  X(kBigIntAllocs, "bigint-allocs")                                            \
  /* total 32-bit limbs in those magnitudes */                                 \
  X(kBigIntLimbsAllocated, "bigint-limbs-allocated")                           \
  X(kBigIntMuls, "bigint-muls")                                                \
  X(kBigIntDivs, "bigint-divs")                                                \
  /* --- parallel/ --- */                                                      \
  X(kPoolTasksSubmitted, "pool-tasks-submitted")                               \
  X(kPoolChunksRun, "pool-chunks-run") /* parallel_for chunks executed */      \
  X(kParallelForCalls, "parallel-for-calls")                                   \
  /* --- nc/ --- */                                                            \
  /* independent prefix-rank computations issued */                            \
  X(kRankQueries, "rank-queries")                                              \
  /* --- robustness/ --- */                                                    \
  /* corruptions the FaultInjector actually performed */                       \
  X(kFaultsInjected, "faults-injected")                                        \
  /* guarded runs that classified an injected fault */                         \
  X(kFaultsDetected, "faults-detected")                                        \
  /* guarded attempts launched by the resilient driver */                      \
  X(kRetryAttempts, "retry-attempts")                                          \
  /* substrate-ladder climbs (double -> SoftFloat -> ...) */                   \
  X(kEscalations, "escalations")                                               \
  /* mid-factorization checkpoints serialized */                               \
  X(kCheckpointSaves, "checkpoint-saves")                                      \
  /* total serialized checkpoint bytes */                                      \
  X(kCheckpointBytes, "checkpoint-bytes")                                      \
  /* runs restarted from a validated checkpoint */                             \
  X(kCheckpointResumes, "checkpoint-resumes")                                  \
  /* checkpoints refused (CRC / version / truncation) */                       \
  X(kCheckpointRejects, "checkpoint-rejects")                                  \
  /* --- serve/: process-isolation worker lifecycle --- */                     \
  X(kWorkerSpawns, "worker-spawns") /* worker subprocesses forked */           \
  /* workers that died without delivering a result */                          \
  X(kWorkerCrashes, "worker-crashes")                                          \
  /* workers SIGKILLed by the supervisor's watchdog */                         \
  X(kWorkerWatchdogKills, "worker-watchdog-kills")                             \
  /* respawns seeded with a verified checkpoint blob */                        \
  X(kWorkerResumeHandoffs, "worker-resume-handoffs")                           \
  /* --- serve/: warm pool, admission control, result cache --- */             \
  /* fork() itself failed (resource exhaustion) */                             \
  X(kServeForkFailures, "serve-fork-failures")                                 \
  /* jobs executed on an already-warm worker */                                \
  X(kServeWarmJobs, "serve-warm-jobs")                                         \
  /* warm workers retired on plan (job quota/rlimits) */                       \
  X(kServeWorkerRecycles, "serve-worker-recycles")                             \
  /* jobs offered to the service queue */                                      \
  X(kServeJobsSubmitted, "serve-jobs-submitted")                               \
  /* jobs refused by admission control (classified) */                         \
  X(kServeJobsShed, "serve-jobs-shed")                                         \
  /* result-cache probes answered from cache */                                \
  X(kServeCacheHits, "serve-cache-hits")                                       \
  /* probes that fell through to the warm pool */                              \
  X(kServeCacheMisses, "serve-cache-misses")                                   \
  /* verified answers written into the cache */                                \
  X(kServeCacheFills, "serve-cache-fills")                                     \
  /* entries displaced by capacity bounds */                                   \
  X(kServeCacheEvictions, "serve-cache-evictions")                             \
  /* entries rejected on read (CRC/envelope) */                                \
  X(kServeCacheCorrupt, "serve-cache-corrupt")                                 \
  /* --- matrix/: sparse backend --- */                                        \
  X(kSparseBuilds, "sparse-builds") /* triplet builds finalized into a CSR */  \
  /* duplicate triplets merged during build */                                 \
  X(kSparseTripletsCoalesced, "sparse-triplets-coalesced")                     \
  /* entries created by elimination row updates */                             \
  X(kSparseFillIns, "sparse-fill-ins")                                         \
  /* computed exact zeros dropped, not stored */                               \
  X(kSparseZeroDrops, "sparse-zero-drops")                                     \
  /* bytes of dense matrix storage benchmarked */                              \
  X(kDenseStorageBytes, "dense-storage-bytes")                                 \
  /* bytes of sparse CSR storage benchmarked */                                \
  X(kSparseStorageBytes, "sparse-storage-bytes")                               \
  /* --- serve/: socket front end --- */                                       \
  /* connections accept()ed by the listener */                                 \
  X(kFrontendConnsAccepted, "frontend-conns-accepted")                         \
  /* requests admitted and answered (kAccepted) */                             \
  X(kFrontendAccepted, "frontend-accepted")                                    \
  /* frames/payloads refused as kMalformedFrame */                             \
  X(kFrontendMalformed, "frontend-malformed")                                  \
  /* slow clients evicted at a read/write deadline */                          \
  X(kFrontendDeadlineEvictions, "frontend-deadline-evictions")                 \
  /* peers that vanished mid-frame (kConnReset) */                             \
  X(kFrontendConnResets, "frontend-conn-resets")                               \
  /* conn-bound / queue-full refusals (kOverloaded) */                         \
  X(kFrontendOverloadSheds, "frontend-overload-sheds")                         \
  /* requests refused while draining (kDraining) */                            \
  X(kFrontendDrainRefusals, "frontend-drain-refusals")                         \
  /* request-side bytes read off client sockets */                             \
  X(kFrontendBytesRead, "frontend-bytes-read")                                 \
  /* response-side bytes written to client sockets */                          \
  X(kFrontendBytesWritten, "frontend-bytes-written")                           \
  /* client library retry attempts (transient) */                              \
  X(kClientRetries, "client-retries")                                          \
  /* --- serve/: shard router --- */                                           \
  /* health heartbeats echoed by the event loop */                             \
  X(kFrontendProbes, "frontend-probes")                                        \
  X(kRouterRoutes, "router-routes") /* requests routed to their home shard */  \
  /* requests rerouted around a dead/evicted shard */                          \
  X(kRouterFailovers, "router-failovers")                                      \
  /* fresh work shed while degraded (brownout) */                              \
  X(kRouterBrownoutSheds, "router-brownout-sheds")                             \
  /* requests refused with no shard alive */                                   \
  X(kRouterAllShardsDown, "router-all-shards-down")                            \
  /* shard processes respawned after a death */                                \
  X(kRouterRestarts, "router-restarts")                                        \
  X(kRouterProbes, "router-probes") /* health probes the router sent */        \
  X(kShardServing, "shard-serving") /* shard observed healthy (probe acked) */ \
  X(kShardStarting, "shard-starting") /* shard observed still booting */       \
  /* shard evicted: probe deadline expired */                                  \
  X(kShardUnresponsive, "shard-unresponsive")                                  \
  X(kShardDead, "shard-dead") /* shard reaped by waitpid (any death class) */  \
  /* shard waiting out its seeded restart backoff */                           \
  X(kShardRestarting, "shard-restarting")

enum class Counter : std::size_t { PFACT_COUNTER_ROWS(PFACT_ROW0_ID) };

inline constexpr std::array kCounterNames{PFACT_COUNTER_ROWS(PFACT_ROW0_NAME)};
inline constexpr std::size_t kNumCounters = kCounterNames.size();

// Stable external name, e.g. "elim-steps"; the JSON key of the counter.
inline const char* counter_name(Counter c) {
  return row_or(kCounterNames, c, "?");
}

// Power-of-two bucketed histograms for quantities whose *distribution*
// matters, not just the total.
#define PFACT_HISTOGRAM_ROWS(X)                                                \
  /* piv - k: how far the chosen pivot row travelled */                        \
  X(kPivotMoveDistance, "pivot-move-distance")                                 \
  X(kBigIntLimbs, "bigint-limbs") /* limb count of produced magnitudes */      \
  X(kSpanDurationUs, "span-duration-us") /* span wall time, microseconds */    \
  /* service queue depth observed at each admission */                         \
  X(kQueueDepth, "queue-depth")                                                \
  /* per-row nonzero counts of built CSR matrices */                           \
  X(kSparseRowNnz, "sparse-row-nnz")

enum class Histogram : std::size_t { PFACT_HISTOGRAM_ROWS(PFACT_ROW0_ID) };

inline constexpr std::array kHistogramNames{
    PFACT_HISTOGRAM_ROWS(PFACT_ROW0_NAME)};
inline constexpr std::size_t kNumHistograms = kHistogramNames.size();
// Bucket b counts values in [2^b, 2^{b+1}).
inline constexpr std::size_t kHistogramBuckets = 32;

inline const char* histogram_name(Histogram h) {
  return row_or(kHistogramNames, h, "?");
}

// Counters and histograms share one JSON namespace, so names are checked
// across both lists.
PFACT_TAXONOMY_CHECK_NAMES((std::array{PFACT_COUNTER_ROWS(PFACT_ROW0_NAME)
                                           PFACT_HISTOGRAM_ROWS(
                                               PFACT_ROW0_NAME)}));

// A consistent view of every counter, summed over all threads that ever
// incremented one. Plain integers — safe to copy, diff and serialize.
struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> counts{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>, kNumHistograms>
      histograms{};

  std::uint64_t operator[](Counter c) const {
    return counts[static_cast<std::size_t>(c)];
  }
  std::uint64_t histogram_total(Histogram h) const;
};

// The difference between two snapshots: what happened inside a region.
// (Structurally identical to a snapshot; the distinct name documents intent.)
using CounterDelta = CounterSnapshot;

CounterDelta operator-(const CounterSnapshot& after,
                       const CounterSnapshot& before);

// Sums every live thread block. O(threads * counters); relaxed loads only.
CounterSnapshot snapshot();

// RAII scoped collector: captures a snapshot at construction; delta() is the
// activity since then (across ALL threads — scope it around whole parallel
// regions, not inside their loop bodies).
class ScopedCounters {
 public:
  ScopedCounters() : begin_(snapshot()) {}
  CounterDelta delta() const { return snapshot() - begin_; }
  const CounterSnapshot& begin() const { return begin_; }

 private:
  CounterSnapshot begin_;
};

#if PFACT_OBS_ENABLED

namespace detail {

// One cache-line-friendly block of relaxed atomics per thread. Blocks are
// owned by the global registry and never destroyed, so snapshot() can read
// them without synchronizing with thread exit. Fully defined here so a bump
// inlines to a TLS load plus one relaxed fetch_add — no function call on
// the hot path (elimination inner loops bump these).
struct CounterBlock {
  std::atomic<std::uint64_t> counts[kNumCounters] = {};
  std::atomic<std::uint64_t> histograms[kNumHistograms][kHistogramBuckets] =
      {};
};

// Registers (once) and returns the calling thread's block.
CounterBlock* this_thread_block();

inline std::size_t histogram_bucket(std::uint64_t value) {
  std::size_t b = 0;
  while (value > 1 && b + 1 < kHistogramBuckets) {
    value >>= 1;
    ++b;
  }
  return b;
}

}  // namespace detail

inline void bump(Counter c, std::uint64_t n = 1) {
  thread_local detail::CounterBlock* block = detail::this_thread_block();
  block->counts[static_cast<std::size_t>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

inline void record(Histogram h, std::uint64_t value) {
  thread_local detail::CounterBlock* block = detail::this_thread_block();
  block->histograms[static_cast<std::size_t>(h)]
                   [detail::histogram_bucket(value)]
                       .fetch_add(1, std::memory_order_relaxed);
}

#else  // !PFACT_OBS_ENABLED — keep the API callable, make it a no-op.

inline void bump(Counter, std::uint64_t = 1) {}
inline void record(Histogram, std::uint64_t) {}

#endif  // PFACT_OBS_ENABLED

}  // namespace pfact::obs

// Hot-path instrumentation macros. These — not obs::bump — are what the
// engines use, so an OBS=OFF build compiles the call sites away entirely.
#if PFACT_OBS_ENABLED
#define PFACT_COUNT(c) ::pfact::obs::bump(::pfact::obs::Counter::c)
#define PFACT_COUNT_N(c, n) \
  ::pfact::obs::bump(::pfact::obs::Counter::c, \
                     static_cast<std::uint64_t>(n))
#define PFACT_HISTO(h, v) \
  ::pfact::obs::record(::pfact::obs::Histogram::h, \
                       static_cast<std::uint64_t>(v))
#else
#define PFACT_COUNT(c) ((void)0)
#define PFACT_COUNT_N(c, n) ((void)0)
#define PFACT_HISTO(h, v) ((void)0)
#endif
