// Unified instrumented bench harness (obs::BenchSuite driver).
//
// Unlike the per-figure google-benchmark binaries, this binary's job is to
// produce the stable BENCH_pr2.json artifact: one workload per experiment
// family, each measured with warmup + repeats for wall time plus one
// instrumented run for op counters and span-derived critical-path depth.
//
//   bench_main --json BENCH_pr2.json          # write the artifact
//   bench_main --list                         # enumerate workloads
//   bench_main --filter gqr --repeats 9       # explore interactively
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "analysis/depth_model.h"
#include "circuit/builders.h"
#include "core/assembler.h"
#include "core/gep_gadgets.h"
#include "core/gqr_gadgets.h"
#include "core/simulator.h"
#include "factor/gaussian.h"
#include "factor/givens.h"
#include "factor/parallel_factor.h"
#include "factor/triangular.h"
#include "matrix/generators.h"
#include "matrix/sparse.h"
#include "nc/gems_nc.h"
#include "nc/lfmis.h"
#include "numeric/rational.h"
#include "numeric/softfloat.h"
#include "obs/bench_emitter.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/guarded_run.h"
#include "robustness/resilient_run.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/router.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"
#include "serve/wire.h"

namespace {

using namespace pfact;

// Evaluates every input mask of `c` through the Theorem 3.1 reduction.
void gem_all_masks(const circuit::Circuit& c, factor::PivotStrategy s) {
  for (unsigned m = 0; m < (1u << c.num_inputs()); ++m) {
    std::vector<bool> in(c.num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = (m >> i) & 1;
    circuit::CvpInstance inst{c, in};
    core::SimulationResult r = core::simulate_gem<double>(inst, s);
    if (!r.ok || r.value != inst.expected()) std::abort();
  }
}

void register_workloads(obs::BenchSuite& suite) {
  // --- Table 1 / Theorem 3.1: GEM and GEMS reduction runs -----------------
  suite.add("table1/gem-xor-suite", "table1", [] {
    gem_all_masks(circuit::xor_circuit(), factor::PivotStrategy::kMinimalSwap);
  });
  suite.add("table1/gems-xor-suite", "table1", [] {
    gem_all_masks(circuit::xor_circuit(),
                  factor::PivotStrategy::kMinimalShift);
  });
  suite.add("table1/gem-nonsingular-xor", "table1", [] {
    const circuit::Circuit c = circuit::xor_circuit();
    for (unsigned m = 0; m < 4; ++m) {
      circuit::CvpInstance inst{c, {(m & 1) != 0, (m & 2) != 0}};
      core::SimulationResult r = core::simulate_gem_nonsingular<double>(inst);
      if (!r.ok || r.value != inst.expected()) std::abort();
    }
  });

  // --- Figure 1: circuit -> A_C assembly ----------------------------------
  suite.add("fig1/assembly-parity6", "fig1", [] {
    const circuit::Circuit c = circuit::parity_circuit(6);
    circuit::CvpInstance inst{c, std::vector<bool>(6, true)};
    core::GemReduction red = core::build_gem_reduction(inst);
    if (red.matrix.rows() == 0) std::abort();
  });

  // --- Figures 2/3: GEM pivot chain on a deeper circuit -------------------
  suite.add("fig23/gem-parity5", "fig23", [] {
    gem_all_masks(circuit::parity_circuit(5),
                  factor::PivotStrategy::kMinimalSwap);
  });

  // --- Theorem 3.3: GEMS-NC factorization over exact rationals ------------
  suite.add("thm33/gems-nc-factor-n12", "thm33", [] {
    Matrix<numeric::Rational> a = gen::random_nonsingular_exact(12, 4, 20260807);
    nc::GemsNcResult r = nc::gems_nc_factor(a);
    if (!r.ok) std::abort();
  });
  suite.add("thm33/lfmis-prefix-ranks-n12", "thm33", [] {
    Matrix<numeric::Rational> a = gen::random_nonsingular_exact(12, 4, 20260807);
    std::vector<std::size_t> ranks = nc::prefix_row_ranks(a);
    if (ranks.back() != a.rows()) std::abort();
  });

  // --- Figures 4/5 / Theorem 3.4: GEP gadget chains -----------------------
  suite.add("fig45/gep-nand-chain-d8", "fig45", [] {
    for (int u : {2, 1}) {
      for (int w : {2, 1}) {
        core::GepChain chain = core::build_gep_nand_chain(u, w, 8);
        double out = core::run_gep_chain(chain);
        double expect = (u == 2 && w == 2) ? 1.0 : 2.0;
        if (std::abs(out - expect) > 1e-6) std::abort();
      }
    }
  });

  // --- Figures 6/7/8 / Theorem 4.1: GQR gadget chains ---------------------
  suite.add("fig678/gqr-nand-chain-d6", "fig678", [] {
    for (int a : {1, -1}) {
      for (int b : {1, -1}) {
        core::GqrChain chain = core::build_gqr_nand_chain(a, b, 6);
        Matrix<double> m = chain.matrix.cast<double>();
        factor::givens_steps(m, m.rows() * m.rows());
        double expect = (a == 1 && b == 1) ? -1.0 : 1.0;
        if (std::abs(m(chain.value_pos, chain.value_pos) - expect) > 1e-6)
          std::abort();
      }
    }
  });
  suite.add("thm41/gqr-softfloat53-d4", "thm41", [] {
    core::GqrChain chain = core::build_gqr_nand_chain(1, 1, 4);
    Matrix<numeric::Float53> m = chain.matrix.cast<numeric::Float53>();
    factor::givens_steps(m, m.rows() * m.rows());
    if (std::abs(to_double(m(chain.value_pos, chain.value_pos)) + 1.0) > 1e-6)
      std::abort();
  });

  // --- Factorization engines on dense random inputs -----------------------
  suite.add("factor/gep-partial-n48", "tradeoff", [] {
    Matrix<double> a = gen::random_general(48, 7);
    factor::LuResult<double> f =
        factor::ge_factor(a, factor::PivotStrategy::kPartial);
    if (!f.ok) std::abort();
  });
  suite.add("factor/gqr-sameh-kuck-n32", "parallel-depth", [] {
    Matrix<double> a = gen::random_general(32, 11);
    factor::QrResult<double> f = factor::givens_qr_sameh_kuck(std::move(a));
    if (f.rotations == 0) std::abort();
  });
  suite.add("factor/refined-solve-wilkinson-n32", "tradeoff", [] {
    Matrix<double> a = gen::wilkinson_growth(32);
    std::vector<double> b(32, 1.0);
    std::vector<double> x =
        factor::solve_plu_refined(a, b, factor::PivotStrategy::kMinimalSwap);
    if (x.size() != 32) std::abort();
  });

  // --- Thread-pool execution (span depth vs structural depth) -------------
  suite.add("parallel/ge-rows-n48", "parallel-depth", [] {
    Matrix<double> a = gen::random_general(48, 7);
    factor::LuResult<double> f = factor::ge_factor_parallel_rows(
        std::move(a), factor::PivotStrategy::kPartial);
    if (!f.ok) std::abort();
  });
  suite.add("parallel/gqr-stages-n32", "parallel-depth", [] {
    Matrix<double> a = gen::random_general(32, 11);
    factor::QrResult<double> f =
        factor::givens_qr_sameh_kuck_parallel(std::move(a));
    if (f.rotations == 0) std::abort();
  });

  // --- Robustness: guarded run incl. certificate + metrics ----------------
  suite.add("robustness/guarded-gem-xor", "robustness", [] {
    const circuit::Circuit c = circuit::xor_circuit();
    circuit::CvpInstance inst{c, {true, false}};
    robustness::RunReport rep = robustness::guarded_simulate_gem<double>(
        inst, factor::PivotStrategy::kMinimalSwap);
    if (!rep.ok()) std::abort();
  });

  // --- Resilience: checkpoint overhead + supervised retry/escalation ------
  // Acceptance-scale overhead: the Table 1 GEM xor suite (the reduction
  // runs the paper's theorems are about) with save-every-k checkpointing.
  // These runs are ~15 elimination steps, so k=64 never snapshots and its
  // cost is the bare hook check: the save-every-64 lane must stay within
  // 10% of the no-checkpoint lane.
  auto gem_xor_checkpointed = [](std::size_t every) {
    const circuit::Circuit c = circuit::xor_circuit();
    for (unsigned m = 0; m < 4; ++m) {
      circuit::CvpInstance inst{c, {(m & 1) != 0, (m & 2) != 0}};
      robustness::CheckpointStore store;
      robustness::CheckpointConfig ckpt;
      ckpt.every = every;
      ckpt.store = every ? &store : nullptr;
      robustness::RunReport rep = robustness::guarded_simulate_gem<double>(
          inst, factor::PivotStrategy::kMinimalSwap, {}, {}, ckpt);
      if (!rep.ok() || rep.value != inst.expected()) std::abort();
    }
  };
  suite.add("resilience/gem-xor-no-ckpt", "resilience",
            [gem_xor_checkpointed] { gem_xor_checkpointed(0); });
  suite.add("resilience/gem-xor-ckpt-k1", "resilience",
            [gem_xor_checkpointed] { gem_xor_checkpointed(1); });
  suite.add("resilience/gem-xor-ckpt-k8", "resilience",
            [gem_xor_checkpointed] { gem_xor_checkpointed(8); });
  suite.add("resilience/gem-xor-ckpt-k64", "resilience",
            [gem_xor_checkpointed] { gem_xor_checkpointed(64); });

  // Stress-scale overhead: dense elimination, where every step does O(n^2)
  // work and every snapshot encodes the full n^2 state, at save-every-k
  // for k in {1, 8, 64} against the no-checkpoint baseline; the
  // instrumented pass records checkpoint-saves and checkpoint-bytes
  // counters into the JSON next to the wall times.
  auto dense_checkpointed = [](std::size_t every) {
    Matrix<double> a = gen::random_general(96, 13);
    robustness::CheckpointStore store;
    factor::CheckpointHook<Matrix<double>> hook;
    hook.every = every;
    hook.save = [&store](std::size_t next_step, const Matrix<double>& snap,
                         const Permutation* perm,
                         const factor::PivotTrace& trace) {
      std::string blob = robustness::encode_checkpoint_parts(
          "bench/ge-dense", 0, next_step, snap, perm, trace);
      PFACT_COUNT(kCheckpointSaves);
      PFACT_COUNT_N(kCheckpointBytes, blob.size());
      store.put(next_step, std::move(blob));
    };
    Permutation perm(a.rows());
    factor::eliminate_steps(a, factor::PivotStrategy::kPartial, a.rows(),
                            &perm, {}, every ? &hook : nullptr);
    if (every && store.empty()) std::abort();
  };
  suite.add("resilience/ge-dense-n96-no-ckpt", "resilience",
            [dense_checkpointed] { dense_checkpointed(0); });
  suite.add("resilience/ge-dense-n96-ckpt-k1", "resilience",
            [dense_checkpointed] { dense_checkpointed(1); });
  suite.add("resilience/ge-dense-n96-ckpt-k8", "resilience",
            [dense_checkpointed] { dense_checkpointed(8); });
  suite.add("resilience/ge-dense-n96-ckpt-k64", "resilience",
            [dense_checkpointed] { dense_checkpointed(64); });
  suite.add("resilience/supervised-flip-escalation", "resilience", [] {
    robustness::ReductionTask task;
    task.algorithm = robustness::Algorithm::kGep;
    task.u = 2;
    task.w = 2;
    task.depth = 1;
    robustness::ResilientOptions opt;
    opt.ladder = {robustness::Substrate::kSoftFloat53,
                  robustness::Substrate::kRational};
    opt.retry.max_attempts = 2;
    robustness::FaultPlan flip;
    flip.fault = robustness::FaultClass::kRoundingFlip;
    opt.fault_for_attempt = [flip](std::size_t) { return flip; };
    robustness::ResilientReport rep = robustness::resilient_run(task, opt);
    if (!rep.certified || rep.certified_by != robustness::Substrate::kRational)
      std::abort();
  });

  // --- Serve: process-isolation overhead ----------------------------------
  // The Table 1 GEM xor suite again: serve/gem-xor-inproc runs it through
  // in-process resilient_run at a k=8 cadence, the gem-xor-warm-k* lanes
  // below run every attempt in a sandboxed warm worker through the
  // supervisor. The instrumented pass records the worker-lifecycle
  // counters (worker-spawns etc.) into the JSON next to the wall times.
  auto gem_xor_tasks = [] {
    std::vector<robustness::ReductionTask> tasks;
    const circuit::Circuit c = circuit::xor_circuit();
    for (unsigned m = 0; m < 4; ++m) {
      robustness::ReductionTask task;
      task.algorithm = robustness::Algorithm::kGem;
      task.instance = circuit::CvpInstance{c, {(m & 1) != 0, (m & 2) != 0}};
      tasks.push_back(std::move(task));
    }
    return tasks;
  };
  suite.add("serve/gem-xor-inproc", "serve", [gem_xor_tasks] {
    for (const robustness::ReductionTask& task : gem_xor_tasks()) {
      robustness::CheckpointStore store;
      robustness::ResilientOptions opt;
      opt.checkpoint_every = 8;
      opt.store = &store;
      robustness::ResilientReport rep = robustness::resilient_run(task, opt);
      if (!rep.certified || rep.value != task.expected()) std::abort();
    }
  });
  // The same suite supervised through a pre-forked WarmPool shared across
  // repeats (warmup forks it; measured passes reuse live workers). The
  // delta against gem-xor-inproc is the worker pipe: streamed checkpoint
  // frames dominate at dense cadences (k=1, k=8), the bare request/result
  // round trip at sparse ones (k=64).
  auto warm_pool = std::make_shared<std::unique_ptr<serve::WarmPool>>();
  auto gem_xor_warm = [gem_xor_tasks, warm_pool](std::size_t every) {
    if (!*warm_pool) {
      serve::WarmPoolOptions wo;
      wo.workers = 2;
      wo.recycle_after = 0;  // steady state: no quota churn mid-measurement
      *warm_pool = std::make_unique<serve::WarmPool>(wo);
    }
    for (const robustness::ReductionTask& task : gem_xor_tasks()) {
      robustness::CheckpointStore store;
      serve::SupervisorOptions so;
      so.checkpoint_every = every;
      so.store = &store;
      serve::SupervisedReport rep = serve::supervised_run(**warm_pool, task, so);
      if (!rep.certified || rep.value != task.expected()) std::abort();
    }
  };
  suite.add("serve/gem-xor-warm-k1", "serve",
            [gem_xor_warm] { gem_xor_warm(1); });
  suite.add("serve/gem-xor-warm-k8", "serve",
            [gem_xor_warm] { gem_xor_warm(8); });
  suite.add("serve/gem-xor-warm-k64", "serve",
            [gem_xor_warm] { gem_xor_warm(64); });

  // Steady-state repeat traffic through the full service: warmup fills the
  // verified result cache, measured passes are pure cache hits — no queue
  // wait, no worker, no checkpoint stream. This is the fast path the
  // supervised lanes above cannot reach.
  auto service = std::make_shared<std::unique_ptr<serve::ReductionService>>();
  suite.add("serve/gem-xor-service-cache-hit", "serve",
            [gem_xor_tasks, service] {
              if (!*service) {
                serve::ServiceOptions so;
                so.dispatchers = 2;
                so.pool.workers = 2;
                *service = std::make_unique<serve::ReductionService>(so);
              }
              for (const robustness::ReductionTask& task : gem_xor_tasks()) {
                const serve::ServiceResponse resp = (*service)->run(task);
                if (resp.admission != serve::Admission::kAccepted ||
                    !resp.report.certified ||
                    resp.report.value != task.expected()) {
                  std::abort();
                }
              }
            });

  // Pipe transport in isolation: the dense n=96 elimination of
  // resilience/ge-dense-n96-ckpt-k*, but every snapshot is framed, shipped
  // through a real pipe, envelope-verified and filed by a reader thread —
  // the wire cost of checkpoint streaming WITHOUT the fork. Each n=96 blob
  // (~73 KB) overflows the 64 KB pipe buffer, so writer and reader really
  // interleave, exactly as a worker and its supervisor do.
  auto dense_pipe = [](std::size_t every) {
    int fds[2];
    if (::pipe(fds) != 0) std::abort();
    robustness::CheckpointStore store;
    std::thread reader([rd = fds[0], &store] {
      for (;;) {
        serve::FrameType type = serve::FrameType::kRequest;
        std::string payload;
        if (serve::read_frame(rd, type, payload) != serve::WireStatus::kOk)
          break;
        std::uint64_t step = 0;
        std::string blob;
        if (!serve::decode_checkpoint_frame(payload, step, blob))
          std::abort();
        if (robustness::validate_checkpoint_envelope(blob) !=
            robustness::CheckpointStatus::kOk) {
          std::abort();
        }
        store.put(step, std::move(blob));
      }
    });
    Matrix<double> a = gen::random_general(96, 13);
    factor::CheckpointHook<Matrix<double>> hook;
    hook.every = every;
    hook.save = [wr = fds[1]](std::size_t next_step,
                              const Matrix<double>& snap,
                              const Permutation* perm,
                              const factor::PivotTrace& trace) {
      std::string blob = robustness::encode_checkpoint_parts(
          "bench/ge-dense", 0, next_step, snap, perm, trace);
      PFACT_COUNT(kCheckpointSaves);
      PFACT_COUNT_N(kCheckpointBytes, blob.size());
      if (serve::write_frame(
              wr, serve::FrameType::kCheckpoint,
              serve::encode_checkpoint_frame(next_step, blob)) !=
          serve::WireStatus::kOk) {
        std::abort();
      }
    };
    Permutation perm(a.rows());
    factor::eliminate_steps(a, factor::PivotStrategy::kPartial, a.rows(),
                            &perm, {}, &hook);
    ::close(fds[1]);
    reader.join();
    ::close(fds[0]);
    if (store.empty()) std::abort();
  };
  suite.add("serve/ge-dense-n96-pipe-k1", "serve",
            [dense_pipe] { dense_pipe(1); });
  suite.add("serve/ge-dense-n96-pipe-k8", "serve",
            [dense_pipe] { dense_pipe(8); });
  suite.add("serve/ge-dense-n96-pipe-k64", "serve",
            [dense_pipe] { dense_pipe(64); });

  // --- Socket front end (BENCH_pr8.json): the network transport bill ------
  // The same GEM xor suite once more, but through a real localhost Unix
  // socket: client connect + kRequest frame + poll()-driven listener +
  // admission + kResponse frame + decode. Three rungs:
  //   socket-gem-xor-cached      cache-hit answers; delta against
  //                              serve/gem-xor-service-cache-hit is the pure
  //                              socket round-trip bill.
  //   socket-gem-xor-fresh       cache disabled, every submit re-factors in
  //                              a warm worker; delta against
  //                              serve/gem-xor-warm-k8 is the socket bill
  //                              riding a real job.
  //   socket-gem-xor-torn-retry  attempt 1 sabotaged with a torn frame, so
  //                              every answer costs two conversations plus a
  //                              reconnect; delta against socket-gem-xor-
  //                              cached is the client retry machinery.
  // Rigs are built lazily (first call = warmup pass) and shared across
  // repeats, mirroring the warm-pool idiom above.
  struct SocketRig {
    std::unique_ptr<serve::ReductionService> service;
    std::unique_ptr<serve::Frontend> frontend;
  };
  auto make_socket_rig = [](std::size_t cache_capacity) {
    auto rig = std::make_unique<SocketRig>();
    serve::ServiceOptions so;
    so.dispatchers = 2;
    so.pool.workers = 2;
    so.cache_capacity = cache_capacity;
    so.supervisor.checkpoint_every = 8;
    rig->service = std::make_unique<serve::ReductionService>(so);
    static int rig_counter = 0;
    serve::FrontendOptions fo;
    fo.unix_path = "/tmp/pfact_bench_sock_" + std::to_string(::getpid()) +
                   "_" + std::to_string(++rig_counter) + ".sock";
    rig->frontend = std::make_unique<serve::Frontend>(*rig->service, fo);
    if (!rig->frontend->running()) std::abort();
    return rig;
  };
  auto socket_submit = [gem_xor_tasks](SocketRig& rig, serve::NetFault fault) {
    serve::ClientOptions co;
    co.unix_path = rig.frontend->unix_path();
    co.retry.max_attempts = 3;
    co.retry.base_delay = std::chrono::milliseconds{1};
    // Measure the reconnect/reship work, not the backoff sleep.
    co.sleeper = [](std::chrono::milliseconds) {};
    co.fault.fault = fault;
    co.fault.seed = 11;
    co.fault.on_attempt = fault == serve::NetFault::kNone ? 0 : 1;
    serve::Client client(co);
    for (const robustness::ReductionTask& task : gem_xor_tasks()) {
      const serve::ClientResult res = client.submit(task);
      if (!res.ok || !res.response.certified ||
          res.response.value != task.expected()) {
        std::abort();
      }
    }
  };
  auto cached_rig = std::make_shared<std::unique_ptr<SocketRig>>();
  suite.add("serve/socket-gem-xor-cached", "serve",
            [make_socket_rig, socket_submit, cached_rig] {
              if (!*cached_rig) *cached_rig = make_socket_rig(128);
              socket_submit(**cached_rig, serve::NetFault::kNone);
            });
  auto fresh_rig = std::make_shared<std::unique_ptr<SocketRig>>();
  suite.add("serve/socket-gem-xor-fresh", "serve",
            [make_socket_rig, socket_submit, fresh_rig] {
              if (!*fresh_rig) *fresh_rig = make_socket_rig(0);
              socket_submit(**fresh_rig, serve::NetFault::kNone);
            });
  auto torn_rig = std::make_shared<std::unique_ptr<SocketRig>>();
  suite.add("serve/socket-gem-xor-torn-retry", "serve",
            [make_socket_rig, socket_submit, torn_rig] {
              if (!*torn_rig) *torn_rig = make_socket_rig(128);
              socket_submit(**torn_rig, serve::NetFault::kTornFrame);
            });

  // --- Sharded router (BENCH_pr10.json): the self-healing fleet bill ------
  // The GEM xor suite once more, now through the ShardRouter: consistent-
  // hash home pick + per-shard Unix socket + failover ring walk. Five rungs:
  //   shard-gem-xor-cached-s1    one shard; delta against serve/socket-gem-
  //                              xor-cached is the pure router bill (hash,
  //                              admission ledger, status bookkeeping).
  //   shard-gem-xor-cached-s3    three shards; delta against -s1 is the
  //                              cost (or win) of spreading the same keys
  //                              over a fleet of private caches.
  //   shard-gem-xor-fresh-s3     caches off, every submit re-factors.
  //   shard-failover-warm        SIGKILL the home shard, answer through a
  //                              survivor, wait for the healed fleet: one
  //                              full kill -> failover -> restart cycle.
  //   shard-brownout-shed        one shard down with a long restart backoff:
  //                              shed three fresh keys, serve one warm key,
  //                              then heal — the degraded-mode service bill.
  // Rigs are built lazily (first call = warmup pass) and shared across
  // repeats, like the socket rigs above.
  auto make_shard_rig = [](std::size_t shards, std::size_t cache_capacity,
                           std::chrono::milliseconds restart_delay) {
    serve::RouterOptions ro;
    ro.shards = shards;
    ro.service.dispatchers = 2;
    ro.service.pool.workers = 2;
    ro.service.cache_capacity = cache_capacity;
    ro.service.supervisor.checkpoint_every = 8;
    ro.restart.base_delay = restart_delay;
    ro.restart.max_delay = restart_delay * 8;
    auto router = std::make_unique<serve::ShardRouter>(ro);
    if (!router->wait_all_serving(std::chrono::seconds(10))) std::abort();
    return router;
  };
  auto route_all = [gem_xor_tasks](serve::ShardRouter& router) {
    for (const robustness::ReductionTask& task : gem_xor_tasks()) {
      const serve::RouteResult res = router.submit(task);
      if ((res.status != serve::RouterStatus::kRouted &&
           res.status != serve::RouterStatus::kFailedOver) ||
          !res.response.certified ||
          res.response.value != task.expected()) {
        std::abort();
      }
    }
  };
  auto shard_s1 = std::make_shared<std::unique_ptr<serve::ShardRouter>>();
  suite.add("serve/shard-gem-xor-cached-s1", "pr10",
            [make_shard_rig, route_all, shard_s1] {
              if (!*shard_s1)
                *shard_s1 = make_shard_rig(1, 128, std::chrono::milliseconds{1});
              route_all(**shard_s1);
            });
  auto shard_s3 = std::make_shared<std::unique_ptr<serve::ShardRouter>>();
  suite.add("serve/shard-gem-xor-cached-s3", "pr10",
            [make_shard_rig, route_all, shard_s3] {
              if (!*shard_s3)
                *shard_s3 = make_shard_rig(3, 128, std::chrono::milliseconds{1});
              route_all(**shard_s3);
            });
  auto shard_fresh = std::make_shared<std::unique_ptr<serve::ShardRouter>>();
  suite.add("serve/shard-gem-xor-fresh-s3", "pr10",
            [make_shard_rig, route_all, shard_fresh] {
              if (!*shard_fresh)
                *shard_fresh =
                    make_shard_rig(3, 0, std::chrono::milliseconds{1});
              route_all(**shard_fresh);
            });
  auto shard_failover = std::make_shared<std::unique_ptr<serve::ShardRouter>>();
  suite.add(
      "serve/shard-failover-warm", "pr10",
      [make_shard_rig, gem_xor_tasks, shard_failover] {
        if (!*shard_failover)
          *shard_failover =
              make_shard_rig(3, 128, std::chrono::milliseconds{1});
        serve::ShardRouter& router = **shard_failover;
        const robustness::ReductionTask task = gem_xor_tasks()[0];
        // The heal barrier below is eventually consistent, so the home can
        // still be mid-respawn (pid -1) when the next repeat starts: retry
        // until the kill lands on a live pid.
        const std::size_t home = router.home_shard(task);
        const auto kill_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
          if (router.shard_pid(home) > 0 &&
              router.kill_shard_for_testing(home, SIGKILL)) {
            break;
          }
          if (std::chrono::steady_clock::now() > kill_deadline) std::abort();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const serve::RouteResult res = router.submit(task);
        if ((res.status != serve::RouterStatus::kRouted &&
             res.status != serve::RouterStatus::kFailedOver) ||
            !res.response.certified ||
            res.response.value != task.expected()) {
          std::abort();
        }
        if (!router.wait_all_serving(std::chrono::seconds(10))) std::abort();
      });
  auto shard_brownout = std::make_shared<std::unique_ptr<serve::ShardRouter>>();
  suite.add(
      "serve/shard-brownout-shed", "pr10",
      [make_shard_rig, gem_xor_tasks, shard_brownout] {
        const std::vector<robustness::ReductionTask> tasks = gem_xor_tasks();
        if (!*shard_brownout) {
          // A long restart backoff holds the fleet degraded for the whole
          // shed batch; the warm key is cached on its home before any kill.
          *shard_brownout =
              make_shard_rig(3, 128, std::chrono::milliseconds{200});
          const serve::RouteResult warm = (*shard_brownout)->submit(tasks[0]);
          if (warm.status != serve::RouterStatus::kRouted) std::abort();
        }
        serve::ShardRouter& router = **shard_brownout;
        // Down a shard that is NOT the warm key's home, then wait for the
        // supervision tick to notice the corpse and latch the brownout.
        const std::size_t victim =
            (router.home_shard(tasks[0]) + 1) % router.shard_count();
        const auto kill_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
          if (router.shard_pid(victim) > 0 &&
              router.kill_shard_for_testing(victim, SIGKILL)) {
            break;
          }
          if (std::chrono::steady_clock::now() > kill_deadline) std::abort();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const auto latch_deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!router.browned_out()) {
          if (std::chrono::steady_clock::now() > latch_deadline) std::abort();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (std::size_t i = 1; i < tasks.size(); ++i) {
          const serve::RouteResult shed = router.submit(tasks[i]);
          if (shed.status != serve::RouterStatus::kBrownoutShed ||
              shed.response.status != serve::FrontendStatus::kOverloaded) {
            std::abort();
          }
        }
        const serve::RouteResult warm = router.submit(tasks[0]);
        if (warm.status != serve::RouterStatus::kRouted ||
            !warm.response.certified ||
            warm.response.value != tasks[0].expected()) {
          std::abort();
        }
        if (!router.wait_all_serving(std::chrono::seconds(10))) std::abort();
      });

  // --- Sparse backend (BENCH_pr7.json): dense-vs-sparse deltas ------------
  // The same guarded GEM workload (deep NAND chain, depth 40 — the largest
  // gate count any dense lane in this file reaches) through both storage
  // backends, with save-every-8 checkpointing. The guarded driver counts
  // checkpoint-saves and checkpoint-bytes, so the two JSON rows carry the
  // checkpoint-bytes delta directly: a sparse-CSR blob encodes nnz entries
  // while the dense blob encodes rows*cols scalars of a block-banded matrix
  // that is almost entirely zeros.
  auto gem_chain_guarded = [](std::size_t depth, robustness::Backend backend,
                              std::size_t every) {
    robustness::ReductionTask task;
    task.algorithm = robustness::Algorithm::kGem;
    task.backend = backend;
    task.instance =
        circuit::CvpInstance{circuit::deep_chain_circuit(depth), {true, true}};
    robustness::CheckpointStore store;
    robustness::CheckpointConfig ckpt;
    ckpt.every = every;
    ckpt.store = &store;
    robustness::GuardLimits limits;
    // The depth-400 chain's fanout-normalized A_C has order ~184k — above
    // the default admission ceiling, which exists to refuse unbounded dense
    // work. Raising it is exactly what the sparse backend buys.
    limits.max_order = std::size_t{1} << 18;
    robustness::RunReport rep = robustness::run_on_substrate(
        task, robustness::Substrate::kDouble, limits, {}, ckpt);
    if (!rep.ok() || rep.value != task.expected() || store.empty())
      std::abort();
  };
  // depth 40 -> order 2265: two saves each; the dense blob is the full
  // 2265^2 scalar grid (~41 MB), the sparse blob its ~3.9k nonzeros.
  suite.add("sparse/gem-chain-d40-dense", "pr7",
            [gem_chain_guarded] {
              gem_chain_guarded(40, robustness::Backend::kDense, 1024);
            });
  suite.add("sparse/gem-chain-d40-sparse", "pr7",
            [gem_chain_guarded] {
              gem_chain_guarded(40, robustness::Backend::kSparse, 1024);
            });

  // The scale the dense backend cannot reach: 10x the gate count of the
  // dense lane above (order ~184k after fanout normalization), end-to-end
  // through the guarded sparse GEM driver with two mid-run saves. There is
  // deliberately no dense twin — its matrix alone would be ~273 GB.
  suite.add("sparse/gem-chain-d400-sparse", "pr7",
            [gem_chain_guarded] {
              gem_chain_guarded(400, robustness::Backend::kSparse, 65536);
            });

  // Peak-memory accounting for the acceptance claim "10x the gates within
  // the dense memory envelope": builds A_C for the depth-40 chain densely
  // and for the depth-400 chain sparsely, records both storage footprints
  // as counters (dense-storage-bytes / sparse-storage-bytes in the JSON),
  // and aborts if the 10x sparse reduction ever outgrows the 1x dense one.
  suite.add("sparse/envelope-chain-d400-vs-d40", "pr7", [] {
    const circuit::Circuit small = circuit::deep_chain_circuit(40);
    const circuit::Circuit big = circuit::deep_chain_circuit(400);
    core::GemReduction dense =
        core::build_gem_reduction({small, {true, true}});
    core::SparseGemReduction sparse =
        core::build_gem_reduction_sparse({big, {true, true}});
    const std::size_t dense_bytes =
        dense.matrix.rows() * dense.matrix.cols() * sizeof(double);
    const std::size_t sparse_bytes =
        sparse.matrix.nnz() * (sizeof(double) + sizeof(std::size_t)) +
        (sparse.matrix.rows() + 1) * sizeof(std::size_t);
    PFACT_COUNT_N(kDenseStorageBytes, dense_bytes);
    PFACT_COUNT_N(kSparseStorageBytes, sparse_bytes);
    if (sparse_bytes > dense_bytes) std::abort();
  });
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json FILE] [--filter SUBSTR] [--warmup N] "
               "[--repeats N] [--list]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string filter;
  std::size_t warmup = 2;
  std::size_t repeats = 5;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = next();
    } else if (arg == "--filter") {
      filter = next();
    } else if (arg == "--warmup") {
      warmup = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--repeats") {
      repeats = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--list") {
      list = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (repeats == 0) repeats = 1;

  obs::BenchSuite suite;
  register_workloads(suite);

  if (list) {
    for (const obs::BenchSpec& s : suite.specs()) {
      std::printf("%-36s [%s]\n", s.name.c_str(), s.experiment.c_str());
    }
    return 0;
  }

  std::vector<obs::BenchMeasurement> results =
      suite.run(warmup, repeats, filter, &std::cerr);
  if (results.empty()) {
    std::fprintf(stderr, "no workload matches filter '%s'\n", filter.c_str());
    return 1;
  }

  const std::string json = obs::BenchSuite::to_json(
      results, warmup, repeats, robustness::detail::crc32_kernel());
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << json << '\n';
    std::fprintf(stderr, "wrote %s (%zu workloads)\n", json_path.c_str(),
                 results.size());
  } else {
    std::cout << json << '\n';
  }
  return 0;
}
