// Golden tables for the ten closed taxonomies. Each row pins an
// enumerator's integer value (its ordinal on the wire and its index into
// counter arrays), its kebab name (the key in log lines and bench JSON) and
// the leg it maps to: the FailureKind of a Diagnostic, the Diagnostic of a
// serve outcome, the obs Counter of a conversation ending. The sweep lists
// are walked in order against the same rows. Any drift in how the tables
// are written down — reordering, renaming, remapping — fails here first.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "robustness/diagnostics.h"
#include "robustness/fault_injector.h"
#include "robustness/retry.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/result_cache.h"
#include "serve/router.h"
#include "serve/shard.h"
#include "serve/supervisor.h"
#include "serve/wire.h"
#include "serve/worker_pool.h"

namespace pfact {
namespace {

using obs::Counter;
using obs::Histogram;
using robustness::Diagnostic;
using robustness::FailureKind;
using robustness::FaultClass;
using serve::Admission;
using serve::CacheProbe;
using serve::FrontendStatus;
using serve::RouterStatus;
using serve::ShardStatus;
using serve::WorkerExit;

template <class E>
struct Named {
  E id;
  const char* name;
};

template <class E, class Leg>
struct Mapped {
  E id;
  const char* name;
  Leg leg;
};

template <class E>
struct Counted {
  E id;
  const char* name;
  Diagnostic diagnostic;
  Counter counter;
};

template <class E>
std::size_t ord(E e) {
  return static_cast<std::size_t>(e);
}

// Row i holds the enumerator whose value is i, and sweep[j] is row
// first + j, for every row from `first` on.
template <class Row, std::size_t N, class E>
void expect_ordered(const Row (&rows)[N], const std::vector<E>& sweep,
                    std::size_t first) {
  for (std::size_t i = 0; i < N; ++i) EXPECT_EQ(ord(rows[i].id), i);
  ASSERT_EQ(sweep.size(), N - first);
  for (std::size_t j = 0; j < sweep.size(); ++j) {
    EXPECT_EQ(sweep[j], rows[first + j].id) << "sweep position " << j;
  }
}

const Named<Counter> kCounters[] = {
    {Counter::kElimSteps, "elim-steps"},
    {Counter::kPivotScanRows, "pivot-scan-rows"},
    {Counter::kPivotKeeps, "pivot-keeps"},
    {Counter::kPivotSwaps, "pivot-swaps"},
    {Counter::kPivotShifts, "pivot-shifts"},
    {Counter::kPivotSkips, "pivot-skips"},
    {Counter::kRowUpdates, "row-updates"},
    {Counter::kRowUpdateElems, "row-update-elems"},
    {Counter::kGivensRotations, "givens-rotations"},
    {Counter::kGivensStages, "givens-stages"},
    {Counter::kHouseholderReflections, "householder-reflections"},
    {Counter::kTriangularSolves, "triangular-solves"},
    {Counter::kGuardTicks, "guard-ticks"},
    {Counter::kSoftFloatAdds, "softfloat-adds"},
    {Counter::kSoftFloatMuls, "softfloat-muls"},
    {Counter::kSoftFloatDivs, "softfloat-divs"},
    {Counter::kSoftFloatSqrts, "softfloat-sqrts"},
    {Counter::kSoftFloatRoundNearestEven, "softfloat-round-nearest-even"},
    {Counter::kSoftFloatRoundTowardZero, "softfloat-round-toward-zero"},
    {Counter::kSoftFloatRoundAwayFromZero, "softfloat-round-away-from-zero"},
    {Counter::kBigIntAllocs, "bigint-allocs"},
    {Counter::kBigIntLimbsAllocated, "bigint-limbs-allocated"},
    {Counter::kBigIntMuls, "bigint-muls"},
    {Counter::kBigIntDivs, "bigint-divs"},
    {Counter::kPoolTasksSubmitted, "pool-tasks-submitted"},
    {Counter::kPoolChunksRun, "pool-chunks-run"},
    {Counter::kParallelForCalls, "parallel-for-calls"},
    {Counter::kRankQueries, "rank-queries"},
    {Counter::kFaultsInjected, "faults-injected"},
    {Counter::kFaultsDetected, "faults-detected"},
    {Counter::kRetryAttempts, "retry-attempts"},
    {Counter::kEscalations, "escalations"},
    {Counter::kCheckpointSaves, "checkpoint-saves"},
    {Counter::kCheckpointBytes, "checkpoint-bytes"},
    {Counter::kCheckpointResumes, "checkpoint-resumes"},
    {Counter::kCheckpointRejects, "checkpoint-rejects"},
    {Counter::kWorkerSpawns, "worker-spawns"},
    {Counter::kWorkerCrashes, "worker-crashes"},
    {Counter::kWorkerWatchdogKills, "worker-watchdog-kills"},
    {Counter::kWorkerResumeHandoffs, "worker-resume-handoffs"},
    {Counter::kServeForkFailures, "serve-fork-failures"},
    {Counter::kServeWarmJobs, "serve-warm-jobs"},
    {Counter::kServeWorkerRecycles, "serve-worker-recycles"},
    {Counter::kServeJobsSubmitted, "serve-jobs-submitted"},
    {Counter::kServeJobsShed, "serve-jobs-shed"},
    {Counter::kServeCacheHits, "serve-cache-hits"},
    {Counter::kServeCacheMisses, "serve-cache-misses"},
    {Counter::kServeCacheFills, "serve-cache-fills"},
    {Counter::kServeCacheEvictions, "serve-cache-evictions"},
    {Counter::kServeCacheCorrupt, "serve-cache-corrupt"},
    {Counter::kSparseBuilds, "sparse-builds"},
    {Counter::kSparseTripletsCoalesced, "sparse-triplets-coalesced"},
    {Counter::kSparseFillIns, "sparse-fill-ins"},
    {Counter::kSparseZeroDrops, "sparse-zero-drops"},
    {Counter::kDenseStorageBytes, "dense-storage-bytes"},
    {Counter::kSparseStorageBytes, "sparse-storage-bytes"},
    {Counter::kFrontendConnsAccepted, "frontend-conns-accepted"},
    {Counter::kFrontendAccepted, "frontend-accepted"},
    {Counter::kFrontendMalformed, "frontend-malformed"},
    {Counter::kFrontendDeadlineEvictions, "frontend-deadline-evictions"},
    {Counter::kFrontendConnResets, "frontend-conn-resets"},
    {Counter::kFrontendOverloadSheds, "frontend-overload-sheds"},
    {Counter::kFrontendDrainRefusals, "frontend-drain-refusals"},
    {Counter::kFrontendBytesRead, "frontend-bytes-read"},
    {Counter::kFrontendBytesWritten, "frontend-bytes-written"},
    {Counter::kClientRetries, "client-retries"},
    {Counter::kFrontendProbes, "frontend-probes"},
    {Counter::kRouterRoutes, "router-routes"},
    {Counter::kRouterFailovers, "router-failovers"},
    {Counter::kRouterBrownoutSheds, "router-brownout-sheds"},
    {Counter::kRouterAllShardsDown, "router-all-shards-down"},
    {Counter::kRouterRestarts, "router-restarts"},
    {Counter::kRouterProbes, "router-probes"},
    {Counter::kShardServing, "shard-serving"},
    {Counter::kShardStarting, "shard-starting"},
    {Counter::kShardUnresponsive, "shard-unresponsive"},
    {Counter::kShardDead, "shard-dead"},
    {Counter::kShardRestarting, "shard-restarting"},
};

const Named<Histogram> kHistograms[] = {
    {Histogram::kPivotMoveDistance, "pivot-move-distance"},
    {Histogram::kBigIntLimbs, "bigint-limbs"},
    {Histogram::kSpanDurationUs, "span-duration-us"},
    {Histogram::kQueueDepth, "queue-depth"},
    {Histogram::kSparseRowNnz, "sparse-row-nnz"},
};

const Named<FaultClass> kFaultClasses[] = {
    {FaultClass::kNone, "none"},
    {FaultClass::kBitFlip, "bit-flip"},
    {FaultClass::kEpsilonNudge, "epsilon-nudge"},
    {FaultClass::kPivotTie, "pivot-tie"},
    {FaultClass::kRoundingFlip, "rounding-flip"},
    {FaultClass::kTruncatedInput, "truncated-input"},
    {FaultClass::kTornWrite, "torn-write"},
};

const Mapped<Diagnostic, FailureKind> kDiagnostics[] = {
    {Diagnostic::kOk, "ok", FailureKind::kSuccess},
    {Diagnostic::kBadInput, "bad-input", FailureKind::kFatal},
    {Diagnostic::kDecodeNotBoolean, "decode-not-boolean",
     FailureKind::kDeterministic},
    {Diagnostic::kDecodeAmbiguous, "decode-ambiguous",
     FailureKind::kDeterministic},
    {Diagnostic::kDecodeOutOfTolerance, "decode-out-of-tolerance",
     FailureKind::kDeterministic},
    {Diagnostic::kCrossCheckMismatch, "cross-check-mismatch",
     FailureKind::kDeterministic},
    {Diagnostic::kPivotAnomaly, "pivot-anomaly", FailureKind::kDeterministic},
    {Diagnostic::kRoundingAnomaly, "rounding-anomaly", FailureKind::kTransient},
    {Diagnostic::kNumericOverflow, "numeric-overflow",
     FailureKind::kDeterministic},
    {Diagnostic::kNumericNonFinite, "numeric-non-finite",
     FailureKind::kDeterministic},
    {Diagnostic::kInvariantViolation, "invariant-violation",
     FailureKind::kDeterministic},
    {Diagnostic::kStepBudgetExceeded, "step-budget-exceeded",
     FailureKind::kTransient},
    {Diagnostic::kDeadlineExceeded, "deadline-exceeded",
     FailureKind::kTransient},
    {Diagnostic::kCancelled, "cancelled", FailureKind::kTransient},
    {Diagnostic::kResourceExhausted, "resource-exhausted",
     FailureKind::kTransient},
    {Diagnostic::kCheckpointCorrupt, "checkpoint-corrupt",
     FailureKind::kTransient},
    {Diagnostic::kWorkerFailure, "worker-failure", FailureKind::kTransient},
    {Diagnostic::kInternalError, "internal-error", FailureKind::kFatal},
    {Diagnostic::kOverloaded, "overloaded", FailureKind::kTransient},
    {Diagnostic::kConnReset, "connection-reset", FailureKind::kTransient},
};

const Mapped<WorkerExit, Diagnostic> kWorkerExits[] = {
    {WorkerExit::kCompleted, "completed", Diagnostic::kOk},
    {WorkerExit::kNonzeroExit, "nonzero-exit", Diagnostic::kWorkerFailure},
    {WorkerExit::kSignalled, "signalled", Diagnostic::kWorkerFailure},
    {WorkerExit::kCpuLimit, "cpu-limit", Diagnostic::kResourceExhausted},
    {WorkerExit::kWatchdog, "watchdog", Diagnostic::kDeadlineExceeded},
    {WorkerExit::kProtocolError, "protocol-error", Diagnostic::kWorkerFailure},
    {WorkerExit::kForkFailure, "fork-failure", Diagnostic::kResourceExhausted},
};

const Mapped<Admission, Diagnostic> kAdmissions[] = {
    {Admission::kAccepted, "accepted", Diagnostic::kOk},
    {Admission::kShedQueueFull, "shed-queue-full", Diagnostic::kOverloaded},
    {Admission::kShedDeadline, "shed-deadline", Diagnostic::kDeadlineExceeded},
    {Admission::kShedShutdown, "shed-shutdown", Diagnostic::kCancelled},
};

const Mapped<CacheProbe, Diagnostic> kCacheProbes[] = {
    {CacheProbe::kHit, "hit", Diagnostic::kOk},
    {CacheProbe::kMiss, "miss", Diagnostic::kOk},
    {CacheProbe::kCorruptEntry, "corrupt-entry",
     Diagnostic::kCheckpointCorrupt},
    {CacheProbe::kEnvelopeRejected, "envelope-rejected",
     Diagnostic::kCheckpointCorrupt},
};

const Counted<FrontendStatus> kFrontendStatuses[] = {
    {FrontendStatus::kAccepted, "accepted", Diagnostic::kOk,
     Counter::kFrontendAccepted},
    {FrontendStatus::kMalformedFrame, "malformed-frame", Diagnostic::kBadInput,
     Counter::kFrontendMalformed},
    {FrontendStatus::kDeadline, "deadline", Diagnostic::kDeadlineExceeded,
     Counter::kFrontendDeadlineEvictions},
    {FrontendStatus::kConnReset, "conn-reset", Diagnostic::kConnReset,
     Counter::kFrontendConnResets},
    {FrontendStatus::kOverloaded, "overloaded", Diagnostic::kOverloaded,
     Counter::kFrontendOverloadSheds},
    {FrontendStatus::kDraining, "draining", Diagnostic::kCancelled,
     Counter::kFrontendDrainRefusals},
};

const Counted<ShardStatus> kShardStatuses[] = {
    {ShardStatus::kStarting, "starting", Diagnostic::kConnReset,
     Counter::kShardStarting},
    {ShardStatus::kServing, "serving", Diagnostic::kOk, Counter::kShardServing},
    {ShardStatus::kUnresponsive, "unresponsive", Diagnostic::kDeadlineExceeded,
     Counter::kShardUnresponsive},
    {ShardStatus::kDead, "dead", Diagnostic::kWorkerFailure,
     Counter::kShardDead},
    {ShardStatus::kRestarting, "restarting", Diagnostic::kConnReset,
     Counter::kShardRestarting},
};

const Counted<RouterStatus> kRouterStatuses[] = {
    {RouterStatus::kRouted, "routed", Diagnostic::kOk, Counter::kRouterRoutes},
    {RouterStatus::kFailedOver, "failed-over", Diagnostic::kOk,
     Counter::kRouterFailovers},
    {RouterStatus::kBrownoutShed, "brownout-shed", Diagnostic::kOverloaded,
     Counter::kRouterBrownoutSheds},
    {RouterStatus::kAllShardsDown, "all-shards-down", Diagnostic::kConnReset,
     Counter::kRouterAllShardsDown},
};

TEST(TaxonomyGolden, CountersAndHistograms) {
  ASSERT_EQ(obs::kNumCounters, std::size(kCounters));
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(ord(kCounters[i].id), i);
    EXPECT_STREQ(obs::counter_name(static_cast<Counter>(i)),
                 kCounters[i].name);
  }
  ASSERT_EQ(obs::kNumHistograms, std::size(kHistograms));
  for (std::size_t i = 0; i < obs::kNumHistograms; ++i) {
    EXPECT_EQ(ord(kHistograms[i].id), i);
    EXPECT_STREQ(obs::histogram_name(static_cast<Histogram>(i)),
                 kHistograms[i].name);
  }
}

TEST(TaxonomyGolden, FaultClasses) {
  // kNone is a plan's "inject nothing", not a fault: it stays off the sweep.
  expect_ordered(kFaultClasses, robustness::all_fault_classes(), 1);
  for (const auto& row : kFaultClasses) {
    EXPECT_STREQ(robustness::fault_class_name(row.id), row.name);
  }
}

TEST(TaxonomyGolden, DiagnosticsAndTheirFailureKinds) {
  for (std::size_t i = 0; i < std::size(kDiagnostics); ++i) {
    const auto& row = kDiagnostics[i];
    EXPECT_EQ(ord(row.id), i);
    EXPECT_STREQ(robustness::diagnostic_name(row.id), row.name);
    EXPECT_EQ(robustness::classify_diagnostic(row.id), row.leg) << row.name;
  }
}

TEST(TaxonomyGolden, WorkerExits) {
  expect_ordered(kWorkerExits, serve::all_worker_exits(), 0);
  for (const auto& row : kWorkerExits) {
    EXPECT_STREQ(serve::worker_exit_name(row.id), row.name);
    EXPECT_EQ(serve::diagnose_worker_exit(row.id), row.leg) << row.name;
  }
}

TEST(TaxonomyGolden, AdmissionsAndCacheProbes) {
  expect_ordered(kAdmissions, serve::all_admissions(), 0);
  for (const auto& row : kAdmissions) {
    EXPECT_STREQ(serve::admission_name(row.id), row.name);
    EXPECT_EQ(serve::diagnose_admission(row.id), row.leg) << row.name;
  }
  expect_ordered(kCacheProbes, serve::all_cache_probes(), 0);
  for (const auto& row : kCacheProbes) {
    EXPECT_STREQ(serve::cache_probe_name(row.id), row.name);
    EXPECT_EQ(serve::diagnose_cache_probe(row.id), row.leg) << row.name;
  }
}

TEST(TaxonomyGolden, FrontendShardAndRouterStatuses) {
  expect_ordered(kFrontendStatuses, serve::all_frontend_statuses(), 0);
  for (const auto& row : kFrontendStatuses) {
    EXPECT_STREQ(serve::frontend_status_name(row.id), row.name);
    EXPECT_EQ(serve::diagnose_frontend_status(row.id), row.diagnostic);
    EXPECT_EQ(serve::frontend_status_counter(row.id), row.counter);
  }
  expect_ordered(kShardStatuses, serve::all_shard_statuses(), 0);
  for (const auto& row : kShardStatuses) {
    EXPECT_STREQ(serve::shard_status_name(row.id), row.name);
    EXPECT_EQ(serve::diagnose_shard_status(row.id), row.diagnostic);
    EXPECT_EQ(serve::shard_status_counter(row.id), row.counter);
  }
  expect_ordered(kRouterStatuses, serve::all_router_statuses(), 0);
  for (const auto& row : kRouterStatuses) {
    EXPECT_STREQ(serve::router_status_name(row.id), row.name);
    EXPECT_EQ(serve::diagnose_router_status(row.id), row.diagnostic);
    EXPECT_EQ(serve::router_status_counter(row.id), row.counter);
  }
}

// Overwrites the little-endian u32 at byte `at` of a payload.
std::string with_u32(std::string payload, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    payload[at + i] = static_cast<char>(v >> (8 * i));
  }
  return payload;
}

// The decoders accept every ordinal below the taxonomy's size — the last
// enumerator included — and reject the first value past it.
TEST(TaxonomyGolden, WireDecodersAcceptTheLastEnumeratorAndNoMore) {
  robustness::RunReport rep;
  rep.algorithm = "GEM";
  const std::string result = serve::encode_result(rep);
  const auto diagnostics = static_cast<std::uint32_t>(std::size(kDiagnostics));
  robustness::RunReport back;
  ASSERT_TRUE(serve::decode_result(with_u32(result, 0, diagnostics - 1), back));
  EXPECT_EQ(back.diagnostic, std::rbegin(kDiagnostics)->id);
  EXPECT_FALSE(serve::decode_result(with_u32(result, 0, diagnostics), back));

  // A response payload opens with the FrontendStatus u32, then Admission.
  const std::string response = serve::encode_response({});
  const auto statuses =
      static_cast<std::uint32_t>(std::size(kFrontendStatuses));
  const auto admissions = static_cast<std::uint32_t>(std::size(kAdmissions));
  serve::FrontendResponse decoded;
  ASSERT_TRUE(
      serve::decode_response(with_u32(response, 0, statuses - 1), decoded));
  EXPECT_EQ(decoded.status, std::rbegin(kFrontendStatuses)->id);
  EXPECT_FALSE(
      serve::decode_response(with_u32(response, 0, statuses), decoded));
  ASSERT_TRUE(
      serve::decode_response(with_u32(response, 4, admissions - 1), decoded));
  EXPECT_EQ(decoded.admission, std::rbegin(kAdmissions)->id);
  EXPECT_FALSE(
      serve::decode_response(with_u32(response, 4, admissions), decoded));
}

}  // namespace
}  // namespace pfact
