// serve-hot and serve-fresh: the deployed sharded rig under a closed loop
// of callers (timed run), and the single-caller ladder of public entry
// points (traced run).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "common.h"
#include "core/assembler.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "robustness/checkpoint.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/result_cache.h"
#include "serve/router.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"
#include "tasks.h"

namespace perfbench {

namespace {

using robustness::Substrate;

constexpr std::size_t kCallers = 4;  // at most nproc on the reference host
constexpr std::size_t kSetups = 6;  // rig builds per run; the last is measured
constexpr std::chrono::seconds kServingTimeout{20};

// The lane configuration every shard runs: 2 dispatchers, 2 warm workers,
// a 128-entry verified cache, a checkpoint every 8 guard steps.
serve::ServiceOptions shard_service_options() {
  serve::ServiceOptions so;
  so.dispatchers = 2;
  so.pool.workers = 2;
  so.cache_capacity = 128;
  so.supervisor.checkpoint_every = 8;
  return so;
}

serve::RouterOptions router_options(const Args& args) {
  serve::RouterOptions ro;
  ro.shards = 3;
  ro.service = shard_service_options();
  ro.socket_dir = args.sock_dir;
  return ro;
}

// One answer: how it ended and, when certified, the value it carried.
struct Answer {
  Outcome outcome = Outcome::kUncertified;
  bool value = false;
};

Answer frontend_answer(const serve::FrontendResponse& resp) {
  if (resp.status == serve::FrontendStatus::kOverloaded ||
      resp.admission != serve::Admission::kAccepted) {
    return {Outcome::kShed, false};
  }
  if (resp.status != serve::FrontendStatus::kAccepted) {
    return {Outcome::kRefused, false};
  }
  return {resp.certified ? Outcome::kOk : Outcome::kUncertified, resp.value};
}

Answer route_answer(const serve::RouteResult& r) {
  switch (r.status) {
    case serve::RouterStatus::kBrownoutShed: return {Outcome::kShed, false};
    case serve::RouterStatus::kAllShardsDown: return {Outcome::kAllDown, false};
    case serve::RouterStatus::kRouted:
    case serve::RouterStatus::kFailedOver:
      break;
  }
  return frontend_answer(r.response);
}

Answer service_answer(const serve::ServiceResponse& r) {
  if (r.admission != serve::Admission::kAccepted) {
    return {Outcome::kShed, false};
  }
  return {r.report.certified ? Outcome::kOk : Outcome::kUncertified,
          r.report.value};
}

// Checks a certified value against the task's ground truth. Failures are
// counted, never retried and never aborted on.
void score(Tally& tally, std::uint64_t seed, const ReductionTask& task,
           const Answer& a) {
  if (a.outcome == Outcome::kOk && a.value != task.expected()) {
    tally.add_wrong(seed, task, a.value);
  } else {
    tally.add(a.outcome);
  }
}

std::vector<ReductionTask> distinct(const std::vector<ReductionTask>& tasks) {
  std::unordered_set<std::string> seen;
  std::vector<ReductionTask> out;
  for (const ReductionTask& t : tasks) {
    if (seen.insert(serve::ResultCache::key_for(t, Substrate::kDouble)).second)
      out.push_back(t);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Timed run: router-only process, 3 forked shards, 4 closed-loop callers.

// One caller's tally of the measured phase. `own_cpu_s` is the caller
// thread's CPU spent on the benchmark's own work (drawing or generating
// the next task, scoring the answer, logging it), which answers_per_cpu_s
// leaves out so that it counts only the program's CPU.
struct Caller {
  Tally tally;
  double own_cpu_s = 0;
  std::uint64_t from_cache = 0;
};

void timed_run(const Args& args, bool hot, Result& out) {
  const std::vector<ReductionTask> keys =
      hot ? hot_keys(args.seed) : std::vector<ReductionTask>{};
  Timed t;
  Tally setup_tally;

  // Build (and warm) the rig kSetups times. All but the last are torn down
  // at once, so their whole-tree CPU is the set-up cost; the last serves the
  // measured phase.
  std::unique_ptr<serve::ShardRouter> router;
  double cpu_before_last = 0;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double cpu0 = tree_cpu_s();
    const Clock::time_point t0 = Clock::now();
    router = std::make_unique<serve::ShardRouter>(router_options(args));
    if (!router->wait_all_serving(kServingTimeout)) {
      std::fprintf(stderr, "pfbench: shards never all served\n");
    }
    for (const ReductionTask& task : keys) {
      score(setup_tally, args.seed, task, route_answer(router->submit(task)));
    }
    t.setup_wall_s.push_back(us_between(t0, Clock::now()) / 1e6);
    if (i + 1 < kSetups) {
      router.reset();  // SIGTERM + reap every shard
      t.setup_cpu_s.push_back(tree_cpu_s() - cpu0);
    } else {
      cpu_before_last = cpu0;
    }
  }

  const ZipfDraw zipf(hot ? keys.size() : 1);
  FreshStream stream(args.seed);
  std::mutex stream_mu;
  std::vector<Caller> callers(kCallers);
  std::vector<WindowLog> logs;
  for (std::size_t c = 0; c < kCallers; ++c) {
    logs.emplace_back(args.seconds, caller_seed(args.seed, 500 + c));
  }
  const serve::ShardRouter::Stats before = router->stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(args.seconds * 1e6));
  const HostJiffies host0 = host_jiffies();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      std::mt19937_64 rng(caller_seed(args.seed, c));
      Caller& me = callers[c];
      ReductionTask fresh;
      while (Clock::now() < deadline) {
        const double c0 = thread_cpu_s();
        const ReductionTask* task = &fresh;
        if (hot) {
          task = &keys[zipf(rng)];
        } else {
          std::lock_guard<std::mutex> lock(stream_mu);
          fresh = stream.next();
        }
        const double c1 = thread_cpu_s();
        const Clock::time_point t0 = Clock::now();
        const serve::RouteResult r = router->submit(*task);
        const Clock::time_point t1 = Clock::now();
        const double c2 = thread_cpu_s();
        const std::uint64_t ok_before = me.tally.ok();
        score(me.tally, args.seed, *task, route_answer(r));
        me.from_cache += r.response.from_cache;
        logs[c].add(us_between(start, t1) / 1e6, us_between(t0, t1),
                   me.tally.ok() - ok_before);
        me.own_cpu_s += (c1 - c0) + (thread_cpu_s() - c2);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  t.elapsed_s = us_between(start, Clock::now()) / 1e6;
  t.steal_share = steal_share(host0, host_jiffies());
  const serve::ShardRouter::Stats after = router->stats();
  router.reset();  // SIGTERM + reap every shard: their CPU is now countable
  t.rss = peak_rss();
  // The last rig's whole life minus what one set-up costs, minus the
  // callers' own bookkeeping.
  double program_cpu_s =
      tree_cpu_s() - cpu_before_last - median(t.setup_cpu_s);
  std::uint64_t from_cache = 0;
  for (const Caller& c : callers) {
    t.measured.merge(c.tally);
    from_cache += c.from_cache;
    program_cpu_s -= c.own_cpu_s;
  }
  t.wall = windowed(logs);
  t.answers_per_cpu_s =
      static_cast<double>(t.measured.ok()) / program_cpu_s;
  out.detail("program_cpu_s", json_num(program_cpu_s));
  out.detail("from_cache_share",
             json_num(static_cast<double>(from_cache) /
                      static_cast<double>(t.measured.attempted)));
  out.tally.merge(setup_tally);
  out.tally.merge(t.measured);
  report_timed(t, out);

  const double answered =
      static_cast<double>(after.answered - before.answered);
  out.detail(
      "router",
      "{\"failover_hops\":" +
          std::to_string(after.failover_hops - before.failover_hops) +
          ",\"home_share\":" +
          json_num(answered > 0 ? (after.answered_by_home -
                                   before.answered_by_home) / answered
                                : 0) +
          ",\"restarts\":" + std::to_string(after.restarts) +
          ",\"evictions\":" + std::to_string(after.evictions) + "}");
  out.detail("load", "{\"loop\":\"closed\",\"callers\":" +
                         std::to_string(kCallers) + ",\"keys\":" +
                         std::to_string(keys.size()) + "}");
}

// ---------------------------------------------------------------------------
// Traced run: the first N requests, one caller, down the ladder of public
// entry points. Each rung's rig is torn down before the next is built.

// Replays `tasks` through `call`, each call inside a span named `rung`, and
// returns the per-task durations read back from the span log.
template <class Call>
std::vector<double> replay(const char* rung,
                           const std::vector<ReductionTask>& tasks,
                           const Args& args, Tally& tally, Call&& call) {
  obs::clear_spans();
  std::vector<Answer> answers;
  answers.reserve(tasks.size());
  for (const ReductionTask& task : tasks) {
    obs::ScopedSpan span(rung);
    answers.push_back(call(task));
  }
  std::vector<obs::SpanEvent> mine;
  for (const obs::SpanEvent& e : obs::dump_spans()) {
    if (e.name == rung) mine.push_back(e);
  }
  obs::clear_spans();
  std::sort(mine.begin(), mine.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
              return a.begin_ns < b.begin_ns;
            });
  std::vector<double> us;
  for (const obs::SpanEvent& e : mine) {
    us.push_back(static_cast<double>(e.end_ns - e.begin_ns) / 1000.0);
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    score(tally, args.seed, tasks[i], answers[i]);
  }
  return us;
}

// Median over tasks of (upper[i] - lower[i]).
double self_p50(const std::vector<double>& upper,
                const std::vector<double>& lower) {
  std::vector<double> d;
  for (std::size_t i = 0; i < upper.size() && i < lower.size(); ++i) {
    d.push_back(upper[i] - lower[i]);
  }
  return median(d);
}

template <class Submit>
void warm(const std::vector<ReductionTask>& keys, const Args& args,
          Tally& tally, Submit&& submit) {
  for (const ReductionTask& task : keys) {
    score(tally, args.seed, task, submit(task));
  }
}

void ladder_run(const Args& args, bool hot, Result& out) {
  const std::size_t n = hot ? 128 : 160;
  const std::vector<ReductionTask> tasks = first_requests(hot, args.seed, n);
  const std::vector<ReductionTask> keys = distinct(tasks);
  const serve::ServiceOptions so = shard_service_options();
  Layers L;
  Tally& tally = out.tally;
  obs::set_tracing_enabled(true);

  // 1. run_on_substrate, no checkpoint: the guarded compute alone.
  double steps = 0, bigint_allocs = 0, bigint_limbs = 0;
  auto bare = [&](const ReductionTask& t) {
    const robustness::RunReport rep =
        robustness::run_on_substrate(t, Substrate::kDouble);
    steps += static_cast<double>(rep.steps_used);
    bigint_allocs +=
        static_cast<double>(rep.metrics[obs::Counter::kBigIntAllocs]);
    bigint_limbs +=
        static_cast<double>(rep.metrics[obs::Counter::kBigIntLimbsAllocated]);
    return Answer{rep.ok() ? Outcome::kOk : Outcome::kUncertified, rep.value};
  };
  const std::vector<double> r1 =
      replay("rung1.run_on_substrate", tasks, args, tally, bare);
  L["guarded_run.p50_us"] = median(r1);
  L["guarded_run.steps_per_job"] = steps / static_cast<double>(n);
  L["numeric.bigint_allocs"] = bigint_allocs / static_cast<double>(n);
  L["numeric.bigint_limbs"] = bigint_limbs / static_cast<double>(n);

  std::vector<double> assemble_us;
  for (const ReductionTask& t : tasks) {
    if (t.instance.circuit.num_gates() == 0) continue;  // gadget chains
    const Clock::time_point t0 = Clock::now();
    if (t.backend == robustness::Backend::kSparse) {
      core::build_gem_reduction_sparse(t.instance);
    } else {
      core::build_gem_reduction(t.instance);
    }
    assemble_us.push_back(us_between(t0, Clock::now()));
  }
  L["core.assemble_p50_us"] = median(assemble_us);

  // 2. run_on_substrate with a checkpoint every 8 steps.
  double saves = 0, bytes = 0;
  auto checkpointed = [&](const ReductionTask& t) {
    robustness::CheckpointStore store;
    robustness::CheckpointConfig ckpt;
    ckpt.every = so.supervisor.checkpoint_every;
    ckpt.store = &store;
    const robustness::RunReport rep =
        robustness::run_on_substrate(t, Substrate::kDouble, {}, {}, ckpt);
    saves += static_cast<double>(rep.metrics[obs::Counter::kCheckpointSaves]);
    bytes += static_cast<double>(rep.metrics[obs::Counter::kCheckpointBytes]);
    return Answer{rep.ok() ? Outcome::kOk : Outcome::kUncertified, rep.value};
  };
  const std::vector<double> r2 =
      replay("rung2.run_on_substrate.k8", tasks, args, tally, checkpointed);
  L["checkpoint.self_p50_us"] = self_p50(r2, r1);
  L["checkpoint.saves_per_job"] = saves / static_cast<double>(n);
  L["checkpoint.bytes_per_job"] = bytes / static_cast<double>(n);

  // Tracing overhead: rung 2 once more per task with tracing on and off,
  // alternating which goes first, timed by the clock.
  std::vector<double> traced_us, untraced_us;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      const bool traced = (i + k) % 2 == 0;
      obs::set_tracing_enabled(traced);
      const Clock::time_point t0 = Clock::now();
      const Answer a = checkpointed(tasks[i]);
      (traced ? traced_us : untraced_us)
          .push_back(us_between(t0, Clock::now()));
      score(tally, args.seed, tasks[i], a);
    }
  }
  obs::set_tracing_enabled(true);
  obs::clear_spans();
  L["trace.overhead_ratio"] = median(traced_us) / median(untraced_us);

  // 3. supervised_run on a WarmPool: the worker pipe and its frames.
  std::vector<double> r3;
  {
    serve::WarmPool pool(so.pool);
    double frames = 0;
    auto supervised = [&](const ReductionTask& t) {
      const serve::SupervisedReport rep =
          serve::supervised_run(pool, t, so.supervisor);
      frames += static_cast<double>(rep.checkpoints_received + 1);  // + result
      return Answer{rep.certified ? Outcome::kOk : Outcome::kUncertified,
                    rep.value};
    };
    r3 = replay("rung3.supervised_run", tasks, args, tally, supervised);
    const serve::WarmPool::Stats ps = pool.stats();
    L["warm_pool.self_p50_us"] = self_p50(r3, r2);
    L["warm_pool.frames_per_job"] = frames / static_cast<double>(n);
    L["warm_pool.spawns"] = static_cast<double>(ps.spawned);
    L["warm_pool.recycles"] = static_cast<double>(ps.recycles);
  }

  // 4. ReductionService::run: admission queue, dispatchers, result cache.
  std::vector<double> r4;
  {
    serve::ReductionService service(so);
    auto run = [&](const ReductionTask& t) {
      return service_answer(service.run(t));
    };
    if (hot) warm(keys, args, tally, run);
    const serve::ReductionService::Stats before = service.stats();
    r4 = replay("rung4.service_run", tasks, args, tally, run);
    const serve::ReductionService::Stats after = service.stats();
    const serve::ResultCache::Stats cs = service.cache().stats();
    L["queue.self_p50_us"] = self_p50(r4, r3);
    L["queue.sheds"] = static_cast<double>(
        (after.shed_queue_full + after.shed_deadline + after.shed_shutdown) -
        (before.shed_queue_full + before.shed_deadline + before.shed_shutdown));
    L["queue.peak_depth"] = static_cast<double>(after.peak_queue_depth);
    L["result_cache.hit_share"] =
        static_cast<double>(after.served_from_cache -
                            before.served_from_cache) /
        static_cast<double>(n);
    L["result_cache.fills"] = static_cast<double>(cs.fills);
    L["result_cache.evictions"] = static_cast<double>(cs.evictions);
    // ResultCache::lookup on the workload's own resident entries.
    std::vector<double> lookup_us;
    for (const ReductionTask& t : keys) {
      const std::string key =
          serve::ResultCache::key_for(t, Substrate::kDouble);
      serve::CacheEntry entry;
      const Clock::time_point t0 = Clock::now();
      const serve::CacheProbe p = service.cache().lookup(key, entry);
      const double us = us_between(t0, Clock::now());
      if (p == serve::CacheProbe::kHit) lookup_us.push_back(us);
    }
    L["result_cache.lookup_p50_us"] = median(lookup_us);
  }

  // 5. Client::submit to a Frontend over a Unix socket.
  std::vector<double> r5;
  {
    serve::ReductionService service(so);
    serve::FrontendOptions fo;
    fo.unix_path = args.sock_dir + "/ladder_frontend.sock";
    serve::Frontend frontend(service, fo);
    serve::ClientOptions co;
    co.unix_path = fo.unix_path;
    serve::Client client(co);
    double retries = 0;
    auto submit = [&](const ReductionTask& t) {
      const serve::ClientResult res = client.submit(t);
      retries += static_cast<double>(res.attempts > 0 ? res.attempts - 1 : 0);
      if (!res.ok) return Answer{Outcome::kRefused, false};
      return frontend_answer(res.response);
    };
    if (hot) warm(keys, args, tally, submit);
    retries = 0;
    const serve::Frontend::Stats before = frontend.stats();
    const obs::CounterSnapshot c0 = obs::snapshot();
    r5 = replay("rung5.client_submit", tasks, args, tally, submit);
    const obs::CounterDelta dc = obs::snapshot() - c0;
    const serve::Frontend::Stats after = frontend.stats();
    L["frontend.self_p50_us"] = self_p50(r5, r4);
    L["frontend.conns_per_answer"] =
        static_cast<double>(after.conns_accepted - before.conns_accepted) /
        static_cast<double>(n);
    L["frontend.bytes_per_answer"] =
        static_cast<double>(dc[obs::Counter::kFrontendBytesRead] +
                            dc[obs::Counter::kFrontendBytesWritten]) /
        static_cast<double>(n);
    L["frontend.retries"] = retries;
  }

  // 6. ShardRouter::submit: the deployed 3-shard rig.
  std::vector<double> r6;
  {
    serve::ShardRouter router(router_options(args));
    if (!router.wait_all_serving(kServingTimeout)) {
      std::fprintf(stderr, "pfbench: shards never all served\n");
    }
    auto submit = [&](const ReductionTask& t) {
      return route_answer(router.submit(t));
    };
    if (hot) warm(keys, args, tally, submit);
    const serve::ShardRouter::Stats before = router.stats();
    r6 = replay("rung6.router_submit", tasks, args, tally, submit);
    const serve::ShardRouter::Stats after = router.stats();
    L["router.self_p50_us"] = self_p50(r6, r5);
    L["router.failover_hops"] =
        static_cast<double>(after.failover_hops - before.failover_hops);
    const double answered =
        static_cast<double>(after.answered - before.answered);
    const double by_home = static_cast<double>(after.answered_by_home -
                                               before.answered_by_home);
    L["router.home_share"] = answered > 0 ? by_home / answered : 0;
  }
  obs::set_tracing_enabled(false);

  emit_layers(L, out);
  const std::vector<double>* rungs[6] = {&r1, &r2, &r3, &r4, &r5, &r6};
  static const char* const names[6] = {
      "run_on_substrate (no checkpoint)", "run_on_substrate (k=8)",
      "supervised_run on WarmPool", "ReductionService::run",
      "Client::submit to Frontend", "ShardRouter::submit (3 shards)"};
  std::string ladder = "[";
  for (int i = 0; i < 6; ++i) {
    ladder += std::string(i ? "," : "") + "{\"rung\":" + json_str(names[i]) +
              ",\"p50_us\":" + json_num(median(*rungs[i])) + "}";
  }
  out.detail("ladder", ladder + "]");
  out.detail("ladder_caller", "{\"callers\":1,\"tasks\":" + std::to_string(n) +
                                  ",\"distinct_keys\":" +
                                  std::to_string(keys.size()) +
                                  ",\"caches_warmed\":" +
                                  (hot ? "true" : "false") + "}");
  out.detail("trace_overhead",
             "{\"traced_p50_us\":" + json_num(median(traced_us)) +
                 ",\"untraced_p50_us\":" + json_num(median(untraced_us)) +
                 ",\"rung\":\"run_on_substrate (k=8)\"}");
}

}  // namespace

int run_serve(const Args& args, Result& out) {
  const bool hot = args.workload == "serve-hot";
  if (args.trace) {
    ladder_run(args, hot, out);
  } else {
    timed_run(args, hot, out);
  }
  return 0;
}

}  // namespace perfbench
