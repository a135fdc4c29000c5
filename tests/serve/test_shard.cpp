// The sharded self-healing service, end to end: taxonomy totality, probe
// echoes, consistent-hash routing with cache locality, failover around
// killed shards, bulkhead eviction of wedged (SIGSTOPped) shards, brownout
// admission, bit-reproducible restart backoff, and the headline contract —
// a shard death mid-job yields the same bit-equal decode (value AND pivot
// trace) as the unsharded baseline service.
//
// Rides the `serve` ctest label: real forks, real SIGKILL/SIGSTOP, so
// sanitizer lanes skip it like the rest of tests/serve.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "obs/counters.h"
#include "robustness/escalation.h"
#include "robustness/retry.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/result_cache.h"
#include "serve/router.h"
#include "serve/shard.h"
#include "serve/wire.h"

namespace pfact::serve {
namespace {

using obs::Counter;
using obs::CounterDelta;
using obs::ScopedCounters;
using robustness::Algorithm;
using robustness::Diagnostic;
using robustness::ReductionTask;

constexpr bool kObsOn = PFACT_OBS_ENABLED != 0;

ReductionTask gem_xor_task(bool a, bool b) {
  ReductionTask t;
  t.algorithm = Algorithm::kGem;
  t.instance = circuit::CvpInstance{circuit::xor_circuit(), {a, b}};
  return t;
}

ReductionTask parity_task(std::size_t bits, unsigned mask) {
  ReductionTask t;
  t.algorithm = Algorithm::kGem;
  std::vector<bool> in(bits);
  for (std::size_t i = 0; i < bits; ++i) in[i] = ((mask >> i) & 1u) != 0;
  t.instance = circuit::CvpInstance{circuit::parity_circuit(bits), in};
  return t;
}

RouterOptions small_router(std::size_t shards) {
  RouterOptions ro;
  ro.shards = shards;
  ro.service.dispatchers = 1;
  ro.service.pool.workers = 1;
  ro.service.queue_depth = 8;
  ro.service.cache_capacity = 64;
  ro.probe_interval = std::chrono::milliseconds(25);
  ro.probe_deadline = std::chrono::milliseconds(250);
  ro.restart.base_delay = std::chrono::milliseconds(5);
  ro.restart.max_delay = std::chrono::milliseconds(100);
  ro.restart.jitter_seed = 7;
  return ro;
}

bool traces_equal(const factor::PivotTrace& a, const factor::PivotTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].column != b[i].column || a[i].pivot_pos != b[i].pivot_pos ||
        a[i].pivot_row != b[i].pivot_row || a[i].action != b[i].action) {
      return false;
    }
  }
  return true;
}

// --- taxonomy totality (the four legs of every row) -------------------------

TEST(ShardTaxonomy, EveryShardStatusHasAllFourLegs) {
  ASSERT_EQ(all_shard_statuses().size(), 5u);
  for (const ShardStatus s : all_shard_statuses()) {
    EXPECT_STRNE(shard_status_name(s), "?");
    EXPECT_NE(obs::counter_name(shard_status_counter(s)), nullptr);
    // Non-serving states are transient moments, never fatal verdicts.
    if (s != ShardStatus::kServing) {
      EXPECT_NE(diagnose_shard_status(s), Diagnostic::kOk);
      EXPECT_NE(diagnose_shard_status(s), Diagnostic::kInternalError);
    }
  }
  EXPECT_EQ(shard_status_counter(ShardStatus::kStarting),
            Counter::kShardStarting);
  EXPECT_EQ(shard_status_counter(ShardStatus::kServing),
            Counter::kShardServing);
  EXPECT_EQ(shard_status_counter(ShardStatus::kUnresponsive),
            Counter::kShardUnresponsive);
  EXPECT_EQ(shard_status_counter(ShardStatus::kDead), Counter::kShardDead);
  EXPECT_EQ(shard_status_counter(ShardStatus::kRestarting),
            Counter::kShardRestarting);
}

TEST(ShardTaxonomy, EveryRouterStatusHasAllFourLegs) {
  ASSERT_EQ(all_router_statuses().size(), 4u);
  for (const RouterStatus s : all_router_statuses()) {
    EXPECT_STRNE(router_status_name(s), "?");
    EXPECT_NE(obs::counter_name(router_status_counter(s)), nullptr);
    EXPECT_NE(diagnose_router_status(s), Diagnostic::kInternalError);
  }
  EXPECT_EQ(router_status_counter(RouterStatus::kRouted),
            Counter::kRouterRoutes);
  EXPECT_EQ(router_status_counter(RouterStatus::kFailedOver),
            Counter::kRouterFailovers);
  EXPECT_EQ(router_status_counter(RouterStatus::kBrownoutShed),
            Counter::kRouterBrownoutSheds);
  EXPECT_EQ(router_status_counter(RouterStatus::kAllShardsDown),
            Counter::kRouterAllShardsDown);
  // Shed shapes must read as retryable to a client's decision table.
  EXPECT_EQ(diagnose_router_status(RouterStatus::kBrownoutShed),
            Diagnostic::kOverloaded);
  EXPECT_EQ(diagnose_router_status(RouterStatus::kAllShardsDown),
            Diagnostic::kConnReset);
}

// --- the probe frame --------------------------------------------------------

TEST(ShardProbe, FrontendEchoesProbeWithoutTouchingTheQueue) {
  ServiceOptions so;
  so.dispatchers = 1;
  so.pool.workers = 1;
  ReductionService service(so);
  FrontendOptions fo;
  fo.unix_path =
      "/tmp/pfact_test_probe_" + std::to_string(::getpid()) + ".sock";
  Frontend frontend(service, fo);
  ASSERT_TRUE(frontend.running());

  ScopedCounters sc;
  EXPECT_TRUE(probe_shard(fo.unix_path, std::chrono::milliseconds(2000)));
  EXPECT_TRUE(probe_shard(fo.unix_path, std::chrono::milliseconds(2000)));
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_EQ(d[Counter::kFrontendProbes], 2u);
  }
  // Probes are heartbeats, not conversations: no submission reached the
  // service and no FrontendStatus ending was recorded.
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(ShardProbe, DeadSocketProbesFalse) {
  EXPECT_FALSE(probe_shard("/tmp/pfact_no_such_shard.sock",
                           std::chrono::milliseconds(100)));
}

// --- routing, locality, healing --------------------------------------------

TEST(ShardRouterTest, RoutesToHomeShardAndHitsItsCache) {
  ShardRouter router(small_router(2));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  const ReductionTask task = gem_xor_task(true, false);
  ScopedCounters sc;
  const RouteResult first = router.submit(task);
  ASSERT_EQ(first.status, RouterStatus::kRouted) << "failovers="
                                                 << first.failovers;
  EXPECT_TRUE(first.response.certified);
  EXPECT_EQ(first.response.value, task.expected());
  EXPECT_EQ(first.shard, router.home_shard(task));

  const RouteResult second = router.submit(task);
  ASSERT_EQ(second.status, RouterStatus::kRouted);
  EXPECT_TRUE(second.response.from_cache)
      << "repeat of the same key must hit the home shard's cache";
  EXPECT_EQ(second.shard, first.shard);
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_EQ(d[Counter::kRouterRoutes], 2u);
    EXPECT_EQ(d[Counter::kRouterBrownoutSheds], 0u);
    EXPECT_EQ(d[Counter::kRouterAllShardsDown], 0u);
  }

  const ShardRouter::Stats st = router.stats();
  EXPECT_EQ(st.answered, 2u);
  EXPECT_EQ(st.answered_by_home, 2u);
  EXPECT_EQ(st.status(RouterStatus::kRouted), 2u);
}

// Regression: a router forked while another service's warm pool lives in
// the same process. The shard inherits that pool's pipe ends, and every
// worker the shard forks must still own its request pipe afterwards — a
// worker that lost it exits with kWorkerExitBadRequestFrame while the
// shard keeps acking probes (a gray failure). Fresh keys make each submit
// a real warm-worker job inside the shard, so every answer must certify.
TEST(ShardRouterTest, CoHostedServiceLeavesShardWorkersComputing) {
  ServiceOptions neighbour_options;
  neighbour_options.dispatchers = 1;
  neighbour_options.pool.workers = 2;
  ReductionService neighbour(neighbour_options);

  ShardRouter router(small_router(1));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));
  for (unsigned mask = 0; mask < 8; ++mask) {
    const ReductionTask task = parity_task(4, mask);
    const RouteResult r = router.submit(task);
    ASSERT_EQ(r.status, RouterStatus::kRouted) << "mask=" << mask;
    EXPECT_FALSE(r.response.from_cache) << "mask=" << mask;
    EXPECT_TRUE(r.response.certified)
        << "mask=" << mask << ": "
        << robustness::diagnostic_name(r.response.report.diagnostic) << " "
        << r.response.report.detail;
    EXPECT_EQ(r.response.value, task.expected()) << "mask=" << mask;
  }
  // The neighbour is unharmed by the shard's forks, too.
  const ReductionTask own = gem_xor_task(false, true);
  const ServiceResponse mine = neighbour.submit(own)->wait();
  EXPECT_TRUE(mine.report.certified) << mine.report.to_string();
  EXPECT_EQ(mine.report.value, own.expected());
}

TEST(ShardRouterTest, HomeShardIsDeterministicAndSpread) {
  ShardRouter router(small_router(3));
  // Deterministic: same task, same home, every time.
  for (unsigned m = 0; m < 4; ++m) {
    const ReductionTask t = gem_xor_task((m & 1) != 0, (m & 2) != 0);
    EXPECT_EQ(router.home_shard(t), router.home_shard(t));
  }
  // Spread: across a family of keys, at least two shards get work (a
  // degenerate ring that homes everything on one shard would make sharding
  // pointless).
  std::vector<bool> hit(3, false);
  for (unsigned m = 0; m < 16; ++m) {
    hit[router.home_shard(parity_task(4, m))] = true;
  }
  int used = 0;
  for (const bool h : hit) used += h ? 1 : 0;
  EXPECT_GE(used, 2);
}

TEST(ShardRouterTest, FailsOverAroundAKilledShardAndHeals) {
  ShardRouter router(small_router(2));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  // Warm one key on each shard so the brownout window keeps serving them.
  std::vector<ReductionTask> warm;
  for (unsigned m = 0; m < 8 && warm.size() < 2; ++m) {
    const ReductionTask t = parity_task(3, m);
    const RouteResult r = router.submit(t);
    ASSERT_EQ(r.status, RouterStatus::kRouted);
    if (warm.empty() || router.home_shard(t) != router.home_shard(warm[0])) {
      warm.push_back(t);
    }
  }
  ASSERT_EQ(warm.size(), 2u) << "need a warm key on each shard";

  ScopedCounters sc;
  const std::size_t victim = router.home_shard(warm[0]);
  ASSERT_TRUE(router.kill_shard_for_testing(victim, SIGKILL));

  // The victim's warm key must keep answering throughout the outage — by
  // failover to the survivor (which recomputes and re-verifies) or, later,
  // by the healed home shard. Every ending must be classified.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  bool failed_over = false;
  bool healed = false;
  while (std::chrono::steady_clock::now() < deadline && !healed) {
    const RouteResult r = router.submit(warm[0]);
    switch (r.status) {
      case RouterStatus::kRouted:
        EXPECT_TRUE(r.response.certified);
        EXPECT_EQ(r.response.value, warm[0].expected());
        healed = failed_over;  // home answered again after the detour
        break;
      case RouterStatus::kFailedOver:
        EXPECT_TRUE(r.response.certified);
        EXPECT_EQ(r.response.value, warm[0].expected());
        failed_over = true;
        break;
      case RouterStatus::kBrownoutShed:
        EXPECT_EQ(r.response.status, FrontendStatus::kOverloaded);
        break;
      case RouterStatus::kAllShardsDown:
        // Transiently possible while the survivor is also saturated; must
        // still be classified.
        EXPECT_NE(r.response.report.diagnostic, Diagnostic::kInternalError);
        break;
    }
  }
  EXPECT_TRUE(failed_over) << "the killed home shard never forced a failover";
  EXPECT_TRUE(healed) << "the killed shard never healed back to serving";
  EXPECT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  const ShardRouter::Stats st = router.stats();
  EXPECT_GE(st.restarts, 1u);
  EXPECT_GE(st.status(RouterStatus::kFailedOver), 1u);
  // ShardStatus coverage for the death path: dead and restarting were both
  // observed states, and serving was re-observed after the heal.
  EXPECT_GE(st.shard_status_seen[static_cast<std::size_t>(ShardStatus::kDead)],
            1u);
  EXPECT_GE(st.shard_status_seen[static_cast<std::size_t>(
                ShardStatus::kRestarting)],
            1u);
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_GE(d[Counter::kRouterFailovers], 1u);
    EXPECT_GE(d[Counter::kRouterRestarts], 1u);
    EXPECT_GE(d[Counter::kShardDead], 1u);
    EXPECT_GE(d[Counter::kShardRestarting], 1u);
    EXPECT_GE(d[Counter::kShardStarting], 1u);
    EXPECT_GE(d[Counter::kShardServing], 1u);
    EXPECT_GE(d[Counter::kRouterProbes], 1u);
  }
}

TEST(ShardRouterTest, BrownoutShedsFreshWorkButServesWarmKeys) {
  ShardRouter router(small_router(2));
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  const ReductionTask warm_task = gem_xor_task(true, true);
  ASSERT_EQ(router.submit(warm_task).status, RouterStatus::kRouted);

  // Kill a shard; the supervision loop marks it dead within a tick or two.
  ASSERT_TRUE(router.kill_shard_for_testing(0, SIGKILL));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!router.browned_out() &&
         std::chrono::steady_clock::now() < deadline) {
  }
  ASSERT_TRUE(router.browned_out());

  // Degraded: a never-seen key is shed with a classified, retryable
  // refusal; the warm key still answers (from cache or by failover).
  ScopedCounters sc;
  const RouteResult fresh = router.submit(parity_task(5, 21));
  EXPECT_EQ(fresh.status, RouterStatus::kBrownoutShed);
  EXPECT_EQ(fresh.response.status, FrontendStatus::kOverloaded);
  EXPECT_EQ(fresh.response.report.diagnostic, Diagnostic::kOverloaded);

  const RouteResult warm = router.submit(warm_task);
  EXPECT_TRUE(warm.status == RouterStatus::kRouted ||
              warm.status == RouterStatus::kFailedOver)
      << router_status_name(warm.status);
  EXPECT_TRUE(warm.response.certified);
  EXPECT_EQ(warm.response.value, warm_task.expected());
  if (kObsOn) {
    const CounterDelta d = sc.delta();
    EXPECT_GE(d[Counter::kRouterBrownoutSheds], 1u);
  }

  // Brownout is a state, not a ratchet: once the shard heals, fresh keys
  // are admitted again.
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  const RouteResult after = router.submit(parity_task(5, 21));
  EXPECT_TRUE(after.status == RouterStatus::kRouted ||
              after.status == RouterStatus::kFailedOver);
  EXPECT_EQ(after.response.value, parity_task(5, 21).expected());
}

// A caller's answers ride one pooled connection per shard. When the home
// shard dies behind that connection, the next submit must fail over —
// classified, and well inside the response deadline, never hanging on the
// dead socket. After the heal the home shard answers again through a fresh
// connection, and a dead shard's pool is dropped by the reaper alone.
TEST(ShardRouterTest, KilledShardBehindAPooledConnectionFailsOverThenHeals) {
  RouterOptions ro = small_router(2);
  ro.response_deadline = std::chrono::seconds(5);
  ShardRouter router(ro);
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  const ReductionTask task = gem_xor_task(false, true);
  const std::size_t home = router.home_shard(task);
  ASSERT_EQ(router.submit(task).status, RouterStatus::kRouted);
  ASSERT_EQ(router.submit(task).status, RouterStatus::kRouted);
  EXPECT_EQ(router.stats().connects, 1u) << "two answers, one connection";
  EXPECT_EQ(router.pooled_connections(home), 1u);

  // Kill the home shard and wait for the process to be gone. WNOWAIT
  // leaves the reaping (and so the pool drop) to the router; ECHILD means
  // the router already reaped it.
  const pid_t pid = router.shard_pid(home);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(router.kill_shard_for_testing(home, SIGKILL));
  siginfo_t info{};
  ::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT);

  const auto t0 = std::chrono::steady_clock::now();
  const RouteResult over = router.submit(task);
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(over.status, RouterStatus::kFailedOver)
      << router_status_name(over.status);
  EXPECT_NE(over.shard, home);
  EXPECT_TRUE(over.response.certified);
  EXPECT_EQ(over.response.value, task.expected());
  EXPECT_LT(took, ro.response_deadline / 5);
  EXPECT_EQ(router.pooled_connections(home), 0u);

  // Heal: a new process on the home slot, probed healthy.
  const auto respawn_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((router.shard_pid(home) == pid || router.shard_pid(home) <= 0) &&
         std::chrono::steady_clock::now() < respawn_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE(router.shard_pid(home), pid);
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  const RouteResult back = router.submit(task);
  EXPECT_EQ(back.status, RouterStatus::kRouted)
      << router_status_name(back.status);
  EXPECT_EQ(back.shard, home);
  EXPECT_EQ(back.response.value, task.expected());
  EXPECT_EQ(router.pooled_connections(home), 1u);

  // No submit this time: the reaper alone must drop the dead shard's pool.
  ASSERT_TRUE(router.kill_shard_for_testing(home, SIGKILL));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.pooled_connections(home) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(router.pooled_connections(home), 0u);
}

// The brownout set is an LRU as large as the fleet's caches together
// (shards x cache_capacity): it stays bounded however many fresh keys
// stream through, and a key that fell out of it counts as fresh again.
TEST(ShardRouterTest, ServedKeySetIsBoundedByTheFleetCacheCapacity) {
  RouterOptions ro = small_router(2);
  ro.service.cache_capacity = 2;
  // A slow restart keeps the brownout window open while the test probes it.
  ro.restart.base_delay = std::chrono::seconds(2);
  ro.restart.max_delay = std::chrono::seconds(2);
  ShardRouter router(ro);
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  std::vector<ReductionTask> keys;
  for (unsigned m = 0; m < 6; ++m) keys.push_back(parity_task(3, m));
  for (const ReductionTask& k : keys) {
    ASSERT_EQ(router.submit(k).status, RouterStatus::kRouted);
  }
  EXPECT_EQ(router.stats().served_keys, 4u);

  ASSERT_TRUE(router.kill_shard_for_testing(0, SIGKILL));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!router.browned_out() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(router.browned_out());
  const RouteResult oldest = router.submit(keys.front());
  EXPECT_EQ(oldest.status, RouterStatus::kBrownoutShed)
      << "a key evicted from the set must count as fresh";
  const RouteResult newest = router.submit(keys.back());
  EXPECT_TRUE(newest.status == RouterStatus::kRouted ||
              newest.status == RouterStatus::kFailedOver)
      << router_status_name(newest.status);
  EXPECT_EQ(newest.response.value, keys.back().expected());
  EXPECT_EQ(router.stats().served_keys, 4u);
}

TEST(ShardRouterTest, WedgedShardIsEvictedNotWaitedOn) {
  RouterOptions ro = small_router(2);
  ro.probe_deadline = std::chrono::milliseconds(150);
  ShardRouter router(ro);
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));

  // SIGSTOP: the process is alive (waitpid sees nothing) but its event loop
  // is frozen — the exact failure mode only the probe deadline can catch.
  ASSERT_TRUE(router.kill_shard_for_testing(1, SIGSTOP));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool evicted = false;
  while (!evicted && std::chrono::steady_clock::now() < deadline) {
    evicted = router.stats().evictions >= 1;
  }
  EXPECT_TRUE(evicted) << "probe deadline never evicted the wedged shard";
  // SIGKILL (delivered by the eviction) kills even a stopped process; the
  // reaper then classifies and heals it like any other death.
  EXPECT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  const ShardRouter::Stats st = router.stats();
  EXPECT_GE(st.shard_status_seen[static_cast<std::size_t>(
                ShardStatus::kUnresponsive)],
            1u);
  EXPECT_GE(st.restarts, 1u);
}

TEST(ShardRouterTest, RestartBackoffIsSeededAndBitReproducible) {
  RouterOptions ro = small_router(1);
  ro.restart.jitter_seed = 42;
  ShardRouter a(ro);
  ShardRouter b(ro);
  robustness::RetryPolicy mirror = ro.restart;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(a.restart_delay(attempt), b.restart_delay(attempt));
    EXPECT_EQ(a.restart_delay(attempt), mirror.backoff(attempt));
  }
  robustness::RetryPolicy other = ro.restart;
  other.jitter_seed = 43;
  bool diverged = false;
  for (std::size_t attempt = 1; attempt <= 6 && !diverged; ++attempt) {
    diverged = other.backoff(attempt) != a.restart_delay(attempt);
  }
  EXPECT_TRUE(diverged) << "jitter seed does not reach the restart schedule";
}

// --- the headline: shard death mid-job == unsharded baseline, bit for bit --

TEST(ShardRouterTest, KillMidJobDecodesBitEqualToUnshardedBaseline) {
  // Unsharded baseline: the same service configuration, one process.
  RouterOptions ro = small_router(2);
  ReductionService baseline(ro.service);
  const ReductionTask task = parity_task(4, 11);
  const ServiceResponse base = baseline.run(task);
  ASSERT_EQ(base.admission, Admission::kAccepted);
  ASSERT_TRUE(base.report.certified);

  ShardRouter router(ro);
  ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(10)));
  // Serve the key once so it stays admissible through the brownout window.
  ASSERT_EQ(router.submit(task).status, RouterStatus::kRouted);

  // Kill the home shard at every boundary we can reach from outside: before
  // the submit, and mid-flight via a racing kill. Whatever the interleaving,
  // every certified answer must match the baseline bit for bit — value AND
  // pivot trace — because a failover re-runs the whole deterministic
  // reduction, never resumes a half-trusted one.
  for (int round = 0; round < 3; ++round) {
    router.kill_shard_for_testing(router.home_shard(task), SIGKILL);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool answered = false;
    while (!answered && std::chrono::steady_clock::now() < deadline) {
      const RouteResult r = router.submit(task);
      if (r.status == RouterStatus::kRouted ||
          r.status == RouterStatus::kFailedOver) {
        ASSERT_TRUE(r.response.certified);
        EXPECT_EQ(r.response.value, base.report.value);
        EXPECT_EQ(r.response.value, task.expected());
        if (!r.response.from_cache) {
          EXPECT_TRUE(
              traces_equal(r.response.report.trace, base.report.final_report.trace))
              << "sharded pivot trace diverged from the unsharded baseline";
        }
        answered = true;
      }
    }
    EXPECT_TRUE(answered) << "round " << round << " never answered";
    ASSERT_TRUE(router.wait_all_serving(std::chrono::seconds(20)));
  }
}

}  // namespace
}  // namespace pfact::serve
