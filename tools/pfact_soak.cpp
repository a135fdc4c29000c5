// Supervised chaos soak: seeded fault campaigns against the four reductions
// (GEM / GEMS / GEP / GQR, plus the bordered nonsingular GEM) and every
// serving layer above them, asserting the one non-negotiable property: ZERO
// WRONG ANSWERS. Every campaign must end either certified-correct (the
// decoded boolean matches the direct circuit evaluation AND the task's
// ground truth) or as a classified failure — a campaign that certifies the
// wrong boolean fails the whole soak immediately and dumps its evidence.
//
// One runner drives every mode. It seeds each campaign's stream from (seed,
// campaign), picks the campaign's shape from the mode's table, keeps one
// ledger, writes one log line per campaign, sends every violation through
// one fail path (log, --fail-dir dump, checkpoint blobs), checks the mode's
// end-of-soak contracts, and prints one summary and one verdict. A mode is a
// fixture (what it builds), a table of named shapes (one campaign each) and
// a list of end-of-soak contracts:
//
//   default      resilient_run in process; shapes drawn from the stream:
//                fault-sweep, flip-ladder, preemption, torn-write and
//                kill-resume (crash/resume equivalence against an
//                uninterrupted baseline, value AND pivot trace).
//   --kill-only  supervised_run on a one-slot WarmPool; every campaign
//                really destroys its first worker (SIGKILL, a genuine
//                wild-store SIGSEGV, a nonzero _exit, the RLIMIT_CPU
//                sandbox's SIGXCPU, or the supervisor's watchdog), and the
//                successor, seeded from the checkpoints the victim streamed
//                before dying, must certify. Contract: WorkerExit coverage.
//   --serve      the warm-worker ReductionService under concurrent clients:
//                the same five kills as service jobs, overload bursts that
//                MUST shed classified kShedQueueFull refusals, and deadline
//                expiries that MUST shed as kShedDeadline. Contracts:
//                WorkerExit coverage, the pool at full strength, at least
//                one genuine cache hit.
//   --net        a Frontend on a temp Unix socket in front of the service:
//                the five NetFault sabotages, connection-bound overload, a
//                clean cached repeat, and a final graceful drain. Contracts:
//                FULL FrontendStatus coverage, the pool at full strength.
//   --shard      a ShardRouter over three forked shard processes, built
//                beside a live unsharded baseline service: clean routing,
//                SIGKILL and SIGSEGV of the home shard, a SIGSTOP wedge the
//                probe deadline must evict, a brownout shed-then-admit cycle
//                and a full-fleet kill. Every fresh answer must match the
//                baseline bit for bit, value AND pivot trace. Contracts:
//                every submit classified as exactly one RouterStatus (the
//                ledger sums), full ShardStatus AND RouterStatus coverage, a
//                cache-locality floor.
//
// Coverage contracts need one full rotation of the mode's shapes.
//
// Usage: pfact_soak [--campaigns N] [--seed S] [--log FILE]
//                   [--fail-dir DIR] [--kill-only | --serve | --net | --shard]
//                   [--inject-violation N] [--verbose]
//
// Exit code 0 iff every campaign and contract held; any violation exits 1
// and prints the seed so the run can be replayed; bad usage exits 2.
// --inject-violation N fabricates a violation at campaign N — the regression
// seam proving the violation exit path stays wired. The log file (one line
// per campaign) and the --fail-dir dumps are the CI artifacts.

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/builders.h"
#include "circuit/circuit.h"
#include "robustness/checkpoint.h"
#include "robustness/escalation.h"
#include "robustness/fault_injector.h"
#include "robustness/resilient_run.h"
#include "robustness/retry.h"
#include "serve/client.h"
#include "serve/frontend.h"
#include "serve/queue.h"
#include "serve/router.h"
#include "serve/shard.h"
#include "serve/supervisor.h"
#include "serve/warm_pool.h"
#include "serve/worker_pool.h"

using namespace pfact;
using namespace pfact::robustness;

namespace {

enum class Mode { kFault, kKill, kServe, kNet, kShard };

struct Options {
  std::size_t campaigns = 200;
  std::uint64_t seed = 1;
  std::string log_path = "soak_log.txt";
  std::string fail_dir;
  Mode mode = Mode::kFault;
  bool verbose = false;
  // Campaign index at which to fabricate a contract violation (SIZE_MAX =
  // never): the regression seam that keeps every violation path wired to a
  // nonzero exit and a printed seed.
  std::size_t inject_violation = SIZE_MAX;
};

// One campaign's deterministic stream: mix64 of (seed, index, salt).
struct Campaign {
  std::uint64_t seed;
  std::uint64_t index;
  std::uint64_t salt = 0;
  std::uint64_t next() { return mix64(seed + index * 0x1000003ull, ++salt); }
  std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

// A named campaign shape: `run` plays one campaign and returns false after
// reporting a violation through Runner::fail.
struct Shape {
  std::string name;
  std::function<bool(Campaign&)> run;
};

struct Ledger {
  std::size_t certified = 0;
  std::size_t terminal = 0;
  std::size_t escalations = 0;
  std::size_t attempts = 0;
  std::size_t resumes = 0;
  std::size_t checkpoint_rejections = 0;
  std::size_t wrong_answers = 0;  // must stay 0
  std::size_t broken_contracts = 0;
};

using Summary = std::vector<std::pair<std::string, std::uint64_t>>;

class Runner {
 public:
  Runner(const Options& options, std::ofstream& log)
      : opt(options), log_(log) {}

  const Options& opt;
  Ledger ledger;

  bool held() const { return ok_; }

  // Plays the campaigns, stopping at the first violation. Shapes rotate by
  // campaign index, so one rotation covers every shape — unless `draw`
  // picks each campaign's shape from its stream instead.
  void run(const std::vector<Shape>& shapes,
           const std::function<std::size_t(Campaign&)>& draw = {}) {
    rotation_ = shapes.size();
    for (campaign_ = 0; ok_ && campaign_ < opt.campaigns; ++campaign_) {
      shape_ = nullptr;
      if (campaign_ == opt.inject_violation) {
        fail("INJECTED VIOLATION", "(--inject-violation)");
        break;
      }
      Campaign c{opt.seed, campaign_};
      shape_ = &shapes[draw ? draw(c) : campaign_ % rotation_];
      if (!shape_->run(c)) break;
    }
    shape_ = nullptr;
  }

  // Records a violation of the current campaign: the log gets `what` and
  // `body`, --fail-dir a dump of both plus `store`'s checkpoint blobs.
  // Returns false, so a shape can `return r.fail(...)`.
  bool fail(const std::string& what, const std::string& body,
            const CheckpointStore* store = nullptr) {
    ++ledger.broken_contracts;
    ok_ = false;
    log_ << "campaign " << campaign_ << " "
         << (shape_ != nullptr ? shape_->name + " " : "") << what << "\n"
         << body << "\n";
    if (opt.fail_dir.empty()) return false;
    const std::string stem =
        opt.fail_dir + "/campaign" + std::to_string(campaign_);
    std::ofstream(stem + ".txt", std::ios::trunc)
        << what << "\n" << body << "\n";
    if (store != nullptr) {
      for (const auto& [step, blob] : store->blobs()) {
        write_checkpoint_file(stem + "_step" + std::to_string(step) + ".ckpt",
                              blob);
      }
    }
    return false;
  }

  // The current campaign's log line, echoed to stdout under --verbose.
  void note(const std::string& detail) {
    const std::string line = "campaign " + std::to_string(campaign_) + " " +
                             shape_->name + " " + detail;
    log_ << line << "\n";
    if (opt.verbose) std::printf("%s\n", line.c_str());
  }

  // An end-of-soak contract, checked once every campaign held.
  void require(bool held, const std::string& gap) {
    if (!ok_ || held) return;
    ++ledger.broken_contracts;
    log_ << gap << "\n";
  }

  // How many full rotations of the shape table the soak ran.
  std::size_t rotations() const { return opt.campaigns / rotation_; }

  // Coverage: every class of `sweep` except `excluded` was observed. A class
  // never observed means a shape silently stopped exercising its path.
  template <class E, class Seen>
  void cover(const char* taxonomy, const std::vector<E>& sweep,
             const char* (*name)(E), Seen seen,
             std::initializer_list<E> excluded = {}) {
    if (rotations() == 0) return;
    for (E e : sweep) {
      if (std::find(excluded.begin(), excluded.end(), e) != excluded.end()) {
        continue;
      }
      require(seen(e) != 0, std::string("COVERAGE GAP: ") + taxonomy + " " +
                                name(e) + " never observed");
    }
  }

  // Writes the summary, then the ledger's verdict counts, as one key=value
  // list to the log and stdout; returns the exit code.
  int finish(Summary summary) {
    summary.emplace_back("wrong-answers", ledger.wrong_answers);
    summary.emplace_back("broken-contracts", ledger.broken_contracts);
    std::string line = "summary";
    for (const auto& [key, value] : summary) {
      line += " " + key + "=" + std::to_string(value);
    }
    log_ << line << "\n";
    std::printf("pfact_soak %s\n", line.c_str());
    if (ok_ && ledger.wrong_answers == 0 && ledger.broken_contracts == 0) {
      std::printf("pfact_soak: all campaigns held the contract\n");
      return 0;
    }
    // The seed is the replay handle, so it must reach stdout even when only
    // the tail of the output survives (CI truncation, a pipe buffer).
    std::printf("pfact_soak: FAILED seed=%llu (see %s)\n",
                static_cast<unsigned long long>(opt.seed),
                opt.log_path.c_str());
    return 1;
  }

 private:
  std::ofstream& log_;
  std::size_t campaign_ = 0;
  std::size_t rotation_ = 1;
  const Shape* shape_ = nullptr;
  bool ok_ = true;
};

std::vector<ReductionTask> build_task_pool() {
  std::vector<ReductionTask> pool;
  auto add_cvp = [&pool](Algorithm alg, circuit::Circuit c,
                         std::vector<bool> in) {
    ReductionTask t;
    t.algorithm = alg;
    t.instance = circuit::CvpInstance{std::move(c), std::move(in)};
    pool.push_back(std::move(t));
  };
  add_cvp(Algorithm::kGem, circuit::xor_circuit(), {true, false});
  add_cvp(Algorithm::kGem, circuit::majority3_circuit(), {true, false, true});
  add_cvp(Algorithm::kGems, circuit::xor_circuit(), {true, true});
  add_cvp(Algorithm::kGems, circuit::parity_circuit(3), {true, true, false});
  add_cvp(Algorithm::kGemNonsingular, circuit::xor_circuit(), {false, true});
  for (int u = 1; u <= 2; ++u) {
    for (int w = 1; w <= 2; ++w) {
      ReductionTask gep;
      gep.algorithm = Algorithm::kGep;
      gep.u = u;
      gep.w = w;
      gep.depth = 2;
      pool.push_back(gep);
    }
  }
  for (int a = -1; a <= 1; a += 2) {
    for (int b = -1; b <= 1; b += 2) {
      ReductionTask gqr;
      gqr.algorithm = Algorithm::kGqr;
      gqr.u = a;
      gqr.w = b;
      gqr.depth = 1;
      pool.push_back(gqr);
    }
  }
  return pool;
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

bool wait_until(const std::function<bool()>& cond,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

// --- default mode: in-process fault campaigns -------------------------------

void tally(const ResilientReport& rep, Ledger& ledger) {
  ledger.attempts += rep.attempts.size();
  ledger.escalations += rep.escalations;
  for (const AttemptRecord& a : rep.attempts) {
    if (a.resumed) ++ledger.resumes;
    if (a.diagnostic == Diagnostic::kCheckpointCorrupt) {
      ++ledger.checkpoint_rejections;
    }
  }
}

// The one property the engine must never lose: a certified answer is the
// ground truth.
bool check_verdict(Runner& r, const ReductionTask& task,
                   const ResilientReport& rep, const CheckpointStore* store) {
  if (!rep.certified) {
    ++r.ledger.terminal;
    // A terminal failure must be a *classified* one — the supervisor never
    // gives up with kOk or an unexplained success-kind.
    if (rep.outcome == FailureKind::kSuccess ||
        rep.final_report.diagnostic == Diagnostic::kOk) {
      return r.fail("BROKEN CONTRACT: terminal report carries kOk",
                    rep.to_string());
    }
    return true;
  }
  ++r.ledger.certified;
  if (rep.value == task.expected()) return true;
  ++r.ledger.wrong_answers;
  return r.fail("WRONG ANSWER: " + task.describe() + " certified " +
                    (rep.value ? "true" : "false") + " but truth is " +
                    (task.expected() ? "true" : "false"),
                rep.to_string(), store);
}

Summary run_fault(Runner& r) {
  const std::vector<ReductionTask> tasks = build_task_pool();
  const std::vector<FaultClass> faults = all_fault_classes();
  // Reset per campaign, before its shape is drawn (see r.run below).
  const ReductionTask* task = nullptr;
  ResilientOptions ro;
  CheckpointStore store;

  // Every shape but kill-resume configures `ro` and ends here.
  auto certify = [&] {
    const ResilientReport rep = resilient_run(*task, ro);
    tally(rep, r.ledger);
    const bool held = check_verdict(r, *task, rep, &store);
    r.note(task->describe() + (rep.certified ? " certified" : " terminal") +
           " attempts=" + std::to_string(rep.attempts.size()) +
           " escalations=" + std::to_string(rep.escalations));
    return held;
  };

  // One FaultClass injected persistently on every attempt: the ladder must
  // detect it on every rung it survives to.
  auto fault_sweep = [&](Campaign& c) {
    FaultPlan plan;
    plan.fault = faults[c.pick(faults.size())];
    plan.seed = c.next();
    ro.checkpoint_every = 2 + c.pick(4);
    ro.store = &store;
    ro.fault_for_attempt = [plan](std::size_t) { return plan; };
    return certify();
  };

  // kRoundingFlip against a ladder that STARTS on SoftFloat (where the flip
  // is visible): transient retries exhaust, then escalation to exact
  // rationals certifies the value.
  auto flip_ladder = [&](Campaign& c) {
    if (task->algorithm == Algorithm::kGqr) {
      // GQR has no exact rung to escalate into; give it the full ladder
      // from the bottom instead (the flip is harmless on long double).
      ro.ladder = {Substrate::kDouble, Substrate::kSoftFloat53};
    } else {
      ro.ladder = {Substrate::kSoftFloat53, Substrate::kRational};
    }
    FaultPlan plan;
    plan.fault = FaultClass::kRoundingFlip;
    plan.seed = c.next();
    ro.fault_for_attempt = [plan](std::size_t) { return plan; };
    return certify();
  };

  // A step budget smaller than the factorization, with checkpointing: every
  // attempt is killed mid-run and the next one resumes from the last
  // snapshot, so the task finishes by accumulated progress across kills.
  // Progress per kill is ~checkpoint_every steps, so crossing the largest
  // pool task (order ~10^2) takes a few hundred kills.
  auto preempt = [&](std::size_t max_steps) {
    ro.checkpoint_every = 2;
    ro.store = &store;
    ro.limits.max_steps = max_steps;
    ro.retry.max_attempts = 1024;
  };
  auto preemption = [&](Campaign& c) {
    preempt(3 + c.pick(3));
    return certify();
  };

  // Preemption plus kTornWrite: the first snapshot of an attempt is
  // corrupted at save time; resume must reject it (CRC / truncation), drop
  // it, and recover from an intact earlier snapshot or from scratch.
  auto torn_write = [&](Campaign& c) {
    preempt(4);
    FaultPlan plan;
    plan.fault = FaultClass::kTornWrite;
    plan.seed = c.next();
    ro.fault_for_attempt = [plan](std::size_t attempt) {
      // Tear only the first attempt's snapshot so the campaign also proves
      // recovery, not just rejection.
      return attempt == 1 ? plan : FaultPlan{};
    };
    return certify();
  };

  // Explicit crash/resume equivalence: kill a checkpointing run at a
  // boundary, hand the surviving store to a fresh engine call, and require
  // the SAME decoded boolean and the SAME pivot trace, event for event, as
  // an uninterrupted baseline.
  auto kill_resume = [&](Campaign& c) {
    ResilientOptions base;
    base.retry.max_attempts = 1;
    const ResilientReport baseline = resilient_run(*task, base);
    if (!baseline.certified) {
      return r.fail("BROKEN CONTRACT: clean run of " + task->describe() +
                        " not certified",
                    baseline.to_string());
    }
    const std::size_t every = 2 + c.pick(3);
    ResilientOptions crash;
    crash.retry.max_attempts = 1;
    crash.checkpoint_every = every;
    crash.store = &store;
    crash.limits.max_steps = every * (1 + c.pick(3));
    const ResilientReport crashed = resilient_run(*task, crash);
    tally(crashed, r.ledger);
    // The killed run may legitimately finish early (the budget can exceed
    // the task), but a certificate it does hand out must be the truth — a
    // certified-wrong crash run is the worst possible answer.
    if (crashed.certified && crashed.value != baseline.value) {
      ++r.ledger.wrong_answers;
      return r.fail("WRONG ANSWER from interrupted run: " + task->describe() +
                        " baseline value=" + std::to_string(baseline.value) +
                        "; crashed:",
                    crashed.to_string(), &store);
    }
    ResilientOptions resume;
    resume.retry.max_attempts = 2;
    resume.checkpoint_every = every;
    resume.store = &store;
    const ResilientReport resumed = resilient_run(*task, resume);
    tally(resumed, r.ledger);
    if (!resumed.certified || resumed.value != baseline.value ||
        !traces_equal(resumed.final_report.trace,
                      baseline.final_report.trace)) {
      return r.fail(
          "CRASH/RESUME DIVERGENCE: " + task->describe() + " baseline value=" +
              std::to_string(baseline.value) +
              " trace=" + std::to_string(baseline.final_report.trace.size()) +
              " events; resumed:",
          resumed.to_string(), &store);
    }
    ++r.ledger.certified;
    r.note(task->describe() + " ok");
    return true;
  };

  const std::vector<Shape> shapes = {{"fault-sweep", fault_sweep},
                                     {"flip-ladder", flip_ladder},
                                     {"preemption", preemption},
                                     {"torn-write", torn_write},
                                     {"kill-resume", kill_resume}};
  // The shape is drawn, not rotated, after the task and the retry jitter.
  r.run(shapes, [&](Campaign& c) {
    task = &tasks[c.pick(tasks.size())];
    ro = ResilientOptions{};
    ro.retry.max_attempts = 3;
    ro.retry.base_delay = std::chrono::milliseconds{1};
    ro.retry.jitter_seed = c.next();
    // No sleeper installed: backoffs are recorded, not slept — the campaign
    // stream is wall-clock independent.
    store.clear();
    return c.pick(shapes.size());
  });

  const Ledger& l = r.ledger;
  return {{"certified", l.certified},
          {"terminal", l.terminal},
          {"attempts", l.attempts},
          {"escalations", l.escalations},
          {"resumes", l.resumes},
          {"checkpoint-rejections", l.checkpoint_rejections}};
}

// --- real-kill campaigns through the serve/ layer ---------------------------

// One deliberate death per campaign, cycled so every class is exercised:
// the shape names the WorkerExit it must produce and the Diagnostic the
// supervisor must classify it as.
struct KillShape {
  const char* name;
  serve::KillPlan::Mode mode;
  bool watchdog;    // arm a 200ms supervisor deadline
  bool cpu_rlimit;  // 1-second RLIMIT_CPU sandbox
  serve::WorkerExit expect_exit;
  Diagnostic expect_diag;
};

constexpr KillShape kKillShapes[] = {
    {"worker-sigkill", serve::KillPlan::Mode::kSigkill, false, false,
     serve::WorkerExit::kSignalled, Diagnostic::kWorkerFailure},
    {"worker-sigsegv", serve::KillPlan::Mode::kSigsegv, false, false,
     serve::WorkerExit::kSignalled, Diagnostic::kWorkerFailure},
    {"worker-exit", serve::KillPlan::Mode::kExit, false, false,
     serve::WorkerExit::kNonzeroExit, Diagnostic::kWorkerFailure},
    {"worker-watchdog", serve::KillPlan::Mode::kSpin, true, false,
     serve::WorkerExit::kWatchdog, Diagnostic::kDeadlineExceeded},
    {"worker-rlimit", serve::KillPlan::Mode::kSpin, false, true,
     serve::WorkerExit::kCpuLimit, Diagnostic::kResourceExhausted},
};

// A watchdog-bounded spin: the serve mode's dispatcher wedge.
constexpr const KillShape& kWedge = kKillShapes[3];

// Arms `job` (SupervisorOptions or serve::JobOptions) to die as `ks` says on
// attempt 1, after `after_saves` streamed checkpoints; later attempts run
// clean.
template <class Job>
void arm_kill(Job& job, const KillShape& ks, std::uint64_t after_saves) {
  job.kill_for_attempt = [mode = ks.mode, after_saves](std::size_t attempt) {
    serve::KillPlan kill;
    if (attempt == 1) {
      kill.mode = mode;
      kill.after_saves = after_saves;
    }
    return kill;
  };
  if (ks.watchdog) job.watchdog = std::chrono::milliseconds{200};
  if (ks.cpu_rlimit) job.rlimits.cpu_seconds = 1;
}

// The victim's death was classified exactly as the taxonomy promises; its
// exit class joins `observed`.
bool killed_as(Runner& r, const KillShape& ks,
               const serve::SupervisedReport& rep,
               std::set<serve::WorkerExit>& observed) {
  if (rep.attempts.empty() ||
      rep.attempts.front().diagnostic != ks.expect_diag) {
    return r.fail(std::string("KILL MISCLASSIFIED: expected ") +
                      diagnostic_name(ks.expect_diag) + ", got " +
                      (rep.attempts.empty()
                           ? "no attempts"
                           : diagnostic_name(rep.attempts.front().diagnostic)),
                  rep.to_string());
  }
  observed.insert(ks.expect_exit);
  return true;
}

// Every death class the pool can report was really produced and survived —
// except kProtocolError (no KillPlan yields exit-0 with a corrupt result
// frame; tests/serve covers it with hand-built frames) and kForkFailure
// (real fork exhaustion cannot be staged on demand; tests/serve covers it
// through the pool's fork-injection seam).
void cover_worker_exits(Runner& r,
                        const std::set<serve::WorkerExit>& observed) {
  r.cover("WorkerExit", serve::all_worker_exits(), serve::worker_exit_name,
          [&](serve::WorkerExit e) { return observed.count(e); },
          {serve::WorkerExit::kProtocolError,
           serve::WorkerExit::kForkFailure});
}

// Every killed, recycled, or retired warm worker was replaced: the pool ends
// the soak at full strength.
void require_full_pool(Runner& r, serve::ReductionService& service,
                       std::size_t workers) {
  const std::size_t live = service.pool().live_workers();
  r.require(live == workers, "RESPAWN GAP: " + std::to_string(live) + " of " +
                                 std::to_string(workers) +
                                 " warm workers alive at end of soak");
}

Summary run_kill(Runner& r) {
  const std::vector<ReductionTask> tasks = build_task_pool();
  serve::WarmPoolOptions wo;
  wo.workers = 1;
  serve::WarmPool pool(wo);
  std::set<serve::WorkerExit> observed;
  std::size_t resume_handoffs = 0;

  // One real death per campaign: attempt 1 of a supervised run dies as `ks`
  // says, and the successor must certify.
  auto kill_worker = [&](Campaign& c, const KillShape& ks) {
    const ReductionTask& task = tasks[c.pick(tasks.size())];
    CheckpointStore store;
    serve::SupervisorOptions so;
    so.retry.max_attempts = 3;
    so.retry.base_delay = std::chrono::milliseconds{1};
    so.retry.jitter_seed = c.next();
    so.checkpoint_every = 2;
    so.store = &store;
    // Die before any save (0) or right after the first (1). Capped at 1
    // because the smallest pool tasks may stream only one snapshot — a
    // trigger that never fires would let attempt 1 complete cleanly and
    // trip the misclassification check.
    arm_kill(so, ks, c.pick(2));
    const serve::SupervisedReport rep = supervised_run(pool, task, so);
    r.ledger.attempts += rep.attempts.size();
    r.ledger.escalations += rep.escalations;
    resume_handoffs += rep.resume_handoffs;
    // Zero wrong answers, across a real process death.
    if (!rep.certified || rep.value != task.expected()) {
      if (rep.certified) ++r.ledger.wrong_answers;
      return r.fail(task.describe() + " FAILED: " +
                        (rep.certified ? "WRONG ANSWER" : "not certified"),
                    rep.to_string(), &store);
    }
    ++r.ledger.certified;
    if (!killed_as(r, ks, rep, observed)) return false;
    observed.insert(rep.last_worker_exit);  // kCompleted on certification
    r.note(task.describe() +
           " certified attempts=" + std::to_string(rep.attempts.size()) +
           " resume-handoffs=" + std::to_string(rep.resume_handoffs));
    return true;
  };
  std::vector<Shape> shapes;
  for (const KillShape& ks : kKillShapes) {
    shapes.push_back(
        {ks.name, [&, ks](Campaign& c) { return kill_worker(c, ks); }});
  }
  r.run(shapes);
  cover_worker_exits(r, observed);

  const serve::WarmPool::Stats ps = pool.stats();
  return {{"certified", r.ledger.certified},
          {"attempts", r.ledger.attempts},
          {"workers-spawned", ps.spawned},
          {"workers-crashed", ps.crashed},
          {"watchdog-kills", ps.watchdog_kills},
          {"resume-handoffs", resume_handoffs}};
}

// --- concurrent serve campaigns through the warm-worker service -------------

// A not-currently-cached task, so the result cache cannot short-circuit a
// campaign that must reach a real worker: kill schedules and dispatcher
// wedges ride on these. Chain tasks (GEP/GQR) are the supply — (algorithm,
// u, w, depth) is the cache key — and two bounds keep them honest:
//
//   * depth is capped at 20, because checkpoint cost grows fast with depth
//     (a depth-36 chain streams ~265 snapshots per attempt, which cannot
//     certify inside a 200ms watchdog and stalls the soak);
//   * depths start ABOVE the repeat pool's (GEP 3.., GQR 2.. vs. the
//     pool's GEP depth 2 / GQR depth 1), so a unique task never aliases a
//     repeat task. That matters because overload bursts re-run the repeat
//     pool constantly, LRU-freshening its cache entries forever — a unique
//     task colliding with one would hit the cache and skip its kill;
//   * ids cycle with period 126 (7 combos x 18 depths). That is NOT
//     globally unique, but it does not have to be: a unique task's entry
//     is probed only by its own campaign, and the service cache holds 64
//     entries while the campaigns push ~9 fresh fills per 7-campaign
//     block, so the never-refreshed entry has been LRU-evicted long before
//     the id comes around again (~98 campaigns, ~2x the cache lifetime).
//
// GEP u=2,w=2 is deliberately absent from the combo set: that chain is
// decode-ambiguous (multiple live rows at the value column) from depth 13
// on — a genuinely invalid instance, not a robustness scenario.
ReductionTask unique_chain_task(std::uint64_t id) {
  ReductionTask t;
  const std::uint64_t slot = id % 126;
  const std::uint64_t combo = slot % 7;  // 3 GEP + 4 GQR shapes
  const std::size_t rung = static_cast<std::size_t>(slot / 7);  // 0..17
  if (combo < 3) {
    t.algorithm = Algorithm::kGep;
    t.u = 1 + static_cast<int>(combo & 1);          // GEP inputs: {1,2}
    t.w = 1 + static_cast<int>((combo >> 1) & 1);
    t.depth = 3 + rung;  // repeat pool uses GEP depth 2
  } else {
    t.algorithm = Algorithm::kGqr;
    t.u = (combo & 1) ? 1 : -1;                     // GQR inputs: {-1,+1}
    t.w = ((combo >> 1) & 1) ? 1 : -1;
    t.depth = 2 + rung;  // repeat pool uses GQR depth 1
  }
  return t;
}

Summary run_serve(Runner& r) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();
  serve::ServiceOptions so;
  so.dispatchers = 2;
  so.queue_depth = 4;  // small on purpose: overload bursts must shed
  so.cache_capacity = 64;
  so.pool.workers = 2;
  so.pool.recycle_after = 8;  // quota retirements happen during the soak
  so.supervisor.retry.max_attempts = 3;
  so.supervisor.retry.base_delay = std::chrono::milliseconds{1};
  so.supervisor.checkpoint_every = 2;
  serve::ReductionService service(so);
  std::set<serve::WorkerExit> observed;
  std::uint64_t unique_id = 0;

  // One admitted-and-dispatched response against the zero-wrong-answer
  // contract.
  auto served = [&](const ReductionTask& task,
                    const serve::ServiceResponse& resp) {
    r.ledger.attempts += resp.report.attempts.size();
    if (!resp.report.certified || resp.report.value != task.expected()) {
      if (resp.report.certified) ++r.ledger.wrong_answers;
      return r.fail(resp.report.certified ? "WRONG ANSWER" : "NOT CERTIFIED",
                    resp.report.to_string());
    }
    ++r.ledger.certified;
    if (!resp.from_cache) observed.insert(resp.report.last_worker_exit);
    return true;
  };

  // Real-kill job through the full service path: admission -> bounded
  // queue -> warm worker -> supervised retry/resume. The task is unique per
  // campaign, so the kill always reaches a live worker.
  auto kill_job = [&](Campaign& c, const KillShape& ks) {
    const ReductionTask task = unique_chain_task(unique_id++);
    serve::JobOptions job;
    arm_kill(job, ks, c.pick(2));
    const serve::ServiceResponse resp = service.run(task, job);
    if (resp.admission != serve::Admission::kAccepted) {
      return r.fail("LONE JOB SHED: an idle service must admit",
                    resp.report.to_string());
    }
    if (!served(task, resp) || !killed_as(r, ks, resp.report, observed)) {
      return false;
    }
    r.note("certified attempts=" +
           std::to_string(resp.report.attempts.size()));
    return true;
  };

  // Overload burst: pin both dispatchers on watchdog-bounded spins, as
  // serve-deadline does, then pour in more submissions than the queue bound
  // can hold from concurrent client threads while nothing drains. A pin
  // holds its dispatcher for >= 200ms however fast its chain would
  // certify, so the burst always meets a full queue. The overflow MUST be
  // refused as classified kShedQueueFull — never queued unboundedly, never
  // silently dropped — and every admitted job must still certify.
  auto overload = [&](Campaign& c) {
    serve::JobOptions pin;
    arm_kill(pin, kWedge, 0);
    const ReductionTask pin_a = unique_chain_task(unique_id++);
    const ReductionTask pin_b = unique_chain_task(unique_id++);
    auto pa = service.submit(pin_a, pin);
    auto pb = service.submit(pin_b, pin);

    constexpr std::size_t kBurst = 10;
    std::vector<ReductionTask> burst_tasks;
    for (std::size_t j = 0; j < kBurst; ++j) {
      // Cycled by campaign so later bursts repeat earlier bursts' tasks —
      // that repetition is what the cache-hit contract feeds on.
      burst_tasks.push_back(
          repeat_tasks[(c.index + j) % repeat_tasks.size()]);
    }
    std::vector<std::shared_ptr<serve::ReductionService::Pending>> burst(
        kBurst);
    {
      std::vector<std::thread> clients;
      for (std::size_t t = 0; t < 5; ++t) {
        clients.emplace_back([&, t] {
          for (std::size_t j = t * 2; j < t * 2 + 2; ++j) {
            burst[j] = service.submit(burst_tasks[j]);
          }
        });
      }
      for (std::thread& t : clients) t.join();
    }

    std::size_t shed = 0;
    for (std::size_t j = 0; j < kBurst; ++j) {
      const serve::ServiceResponse& resp = burst[j]->wait();
      if (resp.admission == serve::Admission::kAccepted) {
        if (!served(burst_tasks[j], resp)) return false;
      } else if (resp.admission == serve::Admission::kShedQueueFull) {
        ++shed;
        // A shed is only acceptable CLASSIFIED: the transient kOverloaded
        // diagnostic a client backoff loop can act on.
        if (resp.report.final_report.diagnostic != Diagnostic::kOverloaded ||
            classify_diagnostic(resp.report.final_report.diagnostic) !=
                FailureKind::kTransient ||
            resp.report.certified) {
          return r.fail("UNCLASSIFIED SHED", resp.report.to_string());
        }
      } else {
        return r.fail("UNEXPECTED ADMISSION CLASS",
                      serve::admission_name(resp.admission));
      }
    }
    if (!served(pin_a, pa->wait()) || !served(pin_b, pb->wait())) {
      return false;
    }
    if (shed == 0) {
      return r.fail("OVERLOAD NEVER SHED",
                    "burst exceeded queue_depth with both dispatchers "
                    "pinned, yet no submission was refused");
    }
    r.note("shed=" + std::to_string(shed) + "/" + std::to_string(kBurst));
    return true;
  };

  // Deadline expiry: wedge both dispatchers on watchdog-bounded spins, then
  // queue a job whose deadline is already hopeless. FIFO order guarantees
  // the wedges are picked up first, so by the time a dispatcher frees up
  // (>= 200ms later) the 1ms deadline has long passed: the job must be shed
  // as kShedDeadline without ever touching a worker.
  auto deadline = [&](Campaign& c) {
    serve::JobOptions wedge;
    arm_kill(wedge, kWedge, 0);
    const ReductionTask wedge_a = unique_chain_task(unique_id++);
    const ReductionTask wedge_b = unique_chain_task(unique_id++);
    auto wa = service.submit(wedge_a, wedge);
    auto wb = service.submit(wedge_b, wedge);

    serve::JobOptions doomed;
    doomed.deadline = std::chrono::milliseconds{1};
    const ReductionTask late_task = repeat_tasks[c.pick(repeat_tasks.size())];
    auto late = service.submit(late_task, doomed);
    const serve::ServiceResponse& lr = late->wait();
    if (lr.admission != serve::Admission::kShedDeadline ||
        lr.report.final_report.diagnostic != Diagnostic::kDeadlineExceeded ||
        lr.report.certified) {
      return r.fail("DEADLINE NOT SHED",
                    std::string("admission=") +
                        serve::admission_name(lr.admission) + "\n" +
                        lr.report.to_string());
    }
    // The wedges themselves recover: watchdog kills attempt 1, attempt 2
    // certifies — which also feeds kWatchdog into the coverage set.
    if (!served(wedge_a, wa->wait()) || !served(wedge_b, wb->wait())) {
      return false;
    }
    observed.insert(serve::WorkerExit::kWatchdog);
    r.note("shed ok");
    return true;
  };

  std::vector<Shape> shapes;
  for (const KillShape& ks : kKillShapes) {
    shapes.push_back({std::string("serve-") + ks.name,
                      [&, ks](Campaign& c) { return kill_job(c, ks); }});
  }
  shapes.push_back({"serve-overload", overload});
  shapes.push_back({"serve-deadline", deadline});
  r.run(shapes);
  cover_worker_exits(r, observed);
  require_full_pool(r, service, so.pool.workers);
  const serve::ReductionService::Stats ss = service.stats();
  // The second overload burst is the first to repeat an earlier one's tasks.
  r.require(r.rotations() < 2 || ss.served_from_cache != 0,
            "CACHE NEVER HIT: repeated tasks were re-factored every time");

  const serve::WarmPool::Stats ps = service.pool().stats();
  return {{"certified", r.ledger.certified},
          {"attempts", r.ledger.attempts},
          {"submitted", ss.submitted},
          {"accepted", ss.accepted},
          {"shed-queue-full", ss.shed_queue_full},
          {"shed-deadline", ss.shed_deadline},
          {"cache-hits", ss.served_from_cache},
          {"workers-spawned", ps.spawned},
          {"workers-crashed", ps.crashed},
          {"recycles", ps.recycles},
          {"watchdog-kills", ps.watchdog_kills}};
}

// --- net mode: chaos against the socket front end --------------------------

// Raw-socket plumbing for the shapes the Client cannot stage itself: pinning
// idle connections against the bound, and completing a frame mid-drain.
int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

std::string raw_request_frame(const ReductionTask& task) {
  serve::TaskRequest req;
  req.task = task;
  const std::string payload = serve::encode_request(req);
  robustness::detail::ByteWriter w;
  w.put_u32(serve::kFrameMagic);
  w.put_u8(static_cast<std::uint8_t>(serve::FrameType::kRequest));
  w.put_u64(payload.size());
  w.put_u32(robustness::crc32(payload.data(), payload.size()));
  w.put_bytes(payload.data(), payload.size());
  return w.take();
}

Summary run_net(Runner& r) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();
  serve::ServiceOptions so;
  so.dispatchers = 2;
  so.queue_depth = 8;
  so.cache_capacity = 64;
  so.pool.workers = 2;
  so.supervisor.retry.max_attempts = 3;
  so.supervisor.retry.base_delay = std::chrono::milliseconds{1};
  so.supervisor.checkpoint_every = 2;
  serve::ReductionService service(so);

  serve::FrontendOptions fo;
  fo.unix_path =
      "/tmp/pfact_soak_net_" + std::to_string(::getpid()) + ".sock";
  fo.max_connections = 4;  // small on purpose: overload shapes must shed
  // Short enough that a stalled-reader campaign settles fast, long enough
  // that a dribbled frame (~1ms per 64 bytes) still completes in time.
  fo.read_deadline = std::chrono::milliseconds{400};
  fo.write_deadline = std::chrono::milliseconds{2000};
  serve::Frontend frontend(service, fo);
  std::uint64_t unique_id = 0;
  if (!frontend.running()) r.fail("FRONTEND NEVER BOUND", fo.unix_path);

  auto client_options = [&](Campaign& c) {
    serve::ClientOptions co;
    co.unix_path = frontend.unix_path();
    co.retry.max_attempts = 4;
    co.retry.base_delay = std::chrono::milliseconds{1};
    co.retry.jitter_seed = c.next();
    return co;
  };

  auto describe = [](const serve::ClientResult& res) {
    return std::string("status=") + serve::frontend_status_name(res.status) +
           " diagnostic=" + diagnostic_name(res.diagnostic) +
           " attempts=" + std::to_string(res.attempts);
  };

  // One client submission against the zero-wrong-answer contract; `what`
  // labels the violation.
  auto answered = [&](const std::string& what, const ReductionTask& task,
                      const serve::ClientResult& res) {
    r.ledger.attempts += res.attempts;
    if (!res.ok || !res.response.certified ||
        res.response.value != task.expected()) {
      if (res.ok && res.response.certified) ++r.ledger.wrong_answers;
      return r.fail(what, describe(res));
    }
    ++r.ledger.certified;
    return true;
  };

  // One sabotaged attempt, then the retry loop must carry the SAME
  // submission through to the ground-truth boolean. Unique tasks on even
  // campaigns keep fresh factorizations in the mix; repeat tasks on odd ones
  // keep the cache warm.
  auto sabotage = [&](Campaign& c, serve::NetFault fault) {
    serve::ClientOptions co = client_options(c);
    co.fault.fault = fault;
    co.fault.seed = c.next();
    co.fault.on_attempt = 1;
    // Long enough to trip the server's read deadline, with margin.
    co.fault.stall = fo.read_deadline + std::chrono::milliseconds{500};
    const ReductionTask task =
        (c.index % 2 == 0) ? unique_chain_task(unique_id++)
                           : repeat_tasks[c.pick(repeat_tasks.size())];
    const serve::ClientResult res = serve::Client(co).submit(task);
    if (!answered(res.ok ? "WRONG ANSWER through the socket"
                         : "SUBMISSION LOST",
                  task, res)) {
      return false;
    }
    r.note("certified attempts=" + std::to_string(res.attempts));
    return true;
  };

  // Connection-bound overload: pin every slot with idle raw connections,
  // then a submission MUST be refused as classified kOverloaded — and
  // succeed once the pins release.
  auto overload = [&](Campaign& c) {
    std::vector<int> pins;
    for (std::size_t p = 0; p < fo.max_connections; ++p) {
      const int fd = raw_connect(fo.unix_path);
      if (fd >= 0) pins.push_back(fd);
    }
    if (pins.size() != fo.max_connections) {
      for (int fd : pins) ::close(fd);
      return r.fail("PIN SETUP FAILED",
                    std::to_string(pins.size()) + " of " +
                        std::to_string(fo.max_connections) +
                        " pins connected");
    }
    serve::ClientOptions co = client_options(c);
    co.retry.max_attempts = 2;  // both land on a full house
    const ReductionTask task = repeat_tasks[c.pick(repeat_tasks.size())];
    const serve::ClientResult refused = serve::Client(co).submit(task);
    const std::uint64_t closes_before = frontend.stats().clean_closes;
    for (int fd : pins) ::close(fd);
    r.ledger.attempts += refused.attempts;
    if (refused.ok || refused.status != serve::FrontendStatus::kOverloaded ||
        refused.diagnostic != Diagnostic::kOverloaded ||
        classify_diagnostic(refused.diagnostic) != FailureKind::kTransient) {
      return r.fail("OVERLOAD NOT CLASSIFIED", describe(refused));
    }
    // The shed is transient and the pins are gone: the same task must now
    // go straight through.
    if (!wait_until([&] {
          return frontend.stats().clean_closes > closes_before;
        })) {
      return r.fail("PINS NEVER RELEASED",
                    "clean_closes never advanced after closing the pinned "
                    "connections");
    }
    const serve::ClientResult res =
        serve::Client(client_options(c)).submit(task);
    if (!answered("POST-OVERLOAD SUBMISSION LOST", task, res)) return false;
    r.note("shed then served");
    return true;
  };

  // Clean round-trip, twice: the first certifies fresh (or refreshes the
  // cache), the immediate repeat MUST be served from the verified result
  // cache — through the socket.
  auto clean = [&](Campaign& c) {
    const ReductionTask task = repeat_tasks[c.pick(repeat_tasks.size())];
    serve::Client client(client_options(c));
    const serve::ClientResult first = client.submit(task);
    const serve::ClientResult second = client.submit(task);
    if (!answered("CLEAN ROUND-TRIP LOST", task, first) ||
        !answered("CLEAN ROUND-TRIP LOST", task, second)) {
      return false;
    }
    if (!second.response.from_cache) {
      return r.fail("CACHE MISSED THROUGH THE SOCKET",
                    "immediate repeat of an identical task re-factored");
    }
    r.note("cached repeat ok");
    return true;
  };

  // Graceful drain: complete a request AFTER begin_drain and require the
  // classified kDraining refusal — the last FrontendStatus the campaign
  // shapes cannot produce — then require the loop to actually exit.
  auto drain = [&] {
    const int fd = raw_connect(fo.unix_path);
    if (fd < 0) {
      return r.fail("DRAIN CONN FAILED", "connect refused before drain");
    }
    const std::string frame = raw_request_frame(repeat_tasks[0]);
    const std::size_t half = frame.size() / 2;
    bool sent = write_all(fd, frame.data(), half);
    frontend.begin_drain();
    sent = sent && write_all(fd, frame.data() + half, frame.size() - half);
    serve::FrameType type = serve::FrameType::kResponse;
    std::string payload;
    serve::FrontendResponse resp;
    const serve::WireStatus ws =
        sent ? serve::read_frame(fd, type, payload,
                                 std::chrono::steady_clock::now() +
                                     std::chrono::seconds(5))
             : serve::WireStatus::kConnReset;
    ::close(fd);
    if (ws != serve::WireStatus::kOk || type != serve::FrameType::kResponse ||
        !serve::decode_response(payload, resp) ||
        resp.status != serve::FrontendStatus::kDraining) {
      return r.fail("DRAIN REFUSAL NOT CLASSIFIED",
                    std::string("wire=") + serve::wire_status_name(ws) +
                        " status=" + serve::frontend_status_name(resp.status));
    }
    if (!wait_until([&] { return frontend.drained(); })) {
      return r.fail("DRAIN NEVER FINISHED",
                    "event loop still live 5s after begin_drain");
    }
    return true;
  };

  std::vector<Shape> shapes;
  for (serve::NetFault fault :
       {serve::NetFault::kTornFrame, serve::NetFault::kMidFrameClose,
        serve::NetFault::kDribble, serve::NetFault::kStalledReader,
        serve::NetFault::kGarbagePreamble}) {
    shapes.push_back({std::string("net-") + serve::net_fault_name(fault),
                      [&, fault](Campaign& c) { return sabotage(c, fault); }});
  }
  shapes.push_back({"net-overload", overload});
  shapes.push_back({"net-clean", clean});
  r.run(shapes);
  if (r.held()) drain();
  const serve::Frontend::Stats fs = frontend.stats();
  r.cover("FrontendStatus", serve::all_frontend_statuses(),
          serve::frontend_status_name,
          [&](serve::FrontendStatus s) { return fs.status(s); });
  // The chaos stayed in the transport.
  require_full_pool(r, service, so.pool.workers);

  Summary summary = {{"certified", r.ledger.certified},
                     {"attempts", r.ledger.attempts},
                     {"conns", fs.conns_accepted}};
  for (serve::FrontendStatus s : serve::all_frontend_statuses()) {
    summary.emplace_back(serve::frontend_status_name(s), fs.status(s));
  }
  summary.emplace_back("clean-closes", fs.clean_closes);
  return summary;
}

// --- shard mode: chaos against the sharded self-healing router --------------

// The kernel's verdict on a pid: the single state letter from
// /proc/<pid>/stat ('R' running, 'T' stopped, 'Z' zombie, ...), or '?' if
// the pid is gone. The wedge campaign needs this to prove its SIGSTOP froze
// a live process rather than landing harmlessly on an unreaped corpse.
char proc_state(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", static_cast<int>(pid));
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return '?';
  char line[512] = {0};
  char state = '?';
  if (std::fgets(line, sizeof(line), f) != nullptr) {
    // Field 3 follows the parenthesized comm, which may itself contain
    // parens — scan from the LAST ')'.
    const char* paren = std::strrchr(line, ')');
    if (paren != nullptr && paren[1] != '\0' && paren[2] != '\0') {
      state = paren[2];
    }
  }
  std::fclose(f);
  return state;
}

Summary run_shard(Runner& r) {
  const std::vector<ReductionTask> repeat_tasks = build_task_pool();
  serve::RouterOptions ro;
  ro.shards = 3;
  ro.service.dispatchers = 1;
  ro.service.queue_depth = 8;
  ro.service.cache_capacity = 32;
  ro.service.pool.workers = 1;
  ro.service.supervisor.retry.max_attempts = 3;
  ro.service.supervisor.retry.base_delay = std::chrono::milliseconds{1};
  ro.service.supervisor.checkpoint_every = 2;
  ro.probe_interval = std::chrono::milliseconds{25};
  ro.probe_deadline = std::chrono::milliseconds{300};
  ro.restart.base_delay = std::chrono::milliseconds{5};
  ro.restart.max_delay = std::chrono::milliseconds{50};
  ro.restart.jitter_seed = r.opt.seed;

  // The unsharded baseline: the SAME service template in one process. Every
  // fresh certified answer the router hands out must match it bit for bit —
  // value AND pivot trace — whatever chaos the campaign staged, because a
  // failover re-runs the whole deterministic reduction rather than resuming
  // a half-trusted one. Memoized per content-address key so the baseline is
  // computed fresh (with a full trace) exactly once per distinct task.
  //
  // Built BEFORE the router, so even the first fleet spawn forks beside a
  // live WarmPool: a shard that inherited the pool's pipes would pass its
  // health probes yet fail every fresh job (the co-hosting gray failure).
  serve::ReductionService baseline(ro.service);
  std::map<std::string, std::pair<bool, factor::PivotTrace>> expected_runs;
  serve::ShardRouter router(ro);
  std::uint64_t unique_id = 0;

  // One answered (routed or failed-over) result against ground truth and
  // the unsharded baseline.
  auto check_answer = [&](const ReductionTask& task,
                          const serve::RouteResult& res) {
    if (!res.response.certified || res.response.value != task.expected()) {
      if (res.response.certified) ++r.ledger.wrong_answers;
      return r.fail(res.response.certified ? "WRONG ANSWER through the router"
                                           : "ANSWER NOT CERTIFIED",
                    std::string("status=") +
                        serve::router_status_name(res.status) +
                        " shard=" + std::to_string(res.shard) + " " +
                        task.describe());
    }
    const std::string key =
        serve::ResultCache::key_for(task, Substrate::kDouble);
    auto it = expected_runs.find(key);
    if (it == expected_runs.end()) {
      const serve::ServiceResponse base = baseline.run(task);
      if (!base.report.certified || base.report.value != task.expected()) {
        return r.fail("UNSHARDED BASELINE NOT CERTIFIED",
                      base.report.to_string());
      }
      it = expected_runs
               .emplace(key, std::make_pair(base.report.value,
                                            base.report.final_report.trace))
               .first;
    }
    if (res.response.value != it->second.first) {
      ++r.ledger.wrong_answers;
      return r.fail("SHARDED VALUE DIVERGED FROM UNSHARDED BASELINE",
                    task.describe());
    }
    // Cache hits legitimately travel without a trace; every fresh answer
    // must replay the baseline's pivot decisions event for event.
    if (!res.response.from_cache &&
        !traces_equal(res.response.report.trace, it->second.second)) {
      ++r.ledger.wrong_answers;
      return r.fail(
          "SHARDED TRACE DIVERGED FROM UNSHARDED BASELINE",
          task.describe() + " baseline=" +
              std::to_string(it->second.second.size()) +
              " events, sharded=" +
              std::to_string(res.response.report.trace.size()) + " events");
    }
    ++r.ledger.certified;
    return true;
  };

  // Submits `task` until an answer arrives, however long the chaos takes.
  // Every non-answer along the way must be a CLASSIFIED transient refusal —
  // the availability half of the contract: a request is never lost, only
  // answered or refused with a diagnostic a backoff loop can act on.
  auto answer_through_chaos = [&](const ReductionTask& task) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const serve::RouteResult res = router.submit(task);
      ++r.ledger.attempts;
      const Diagnostic diag = res.response.report.diagnostic;
      switch (res.status) {
        case serve::RouterStatus::kRouted:
        case serve::RouterStatus::kFailedOver:
          return check_answer(task, res);
        case serve::RouterStatus::kBrownoutShed:
          if (diag != Diagnostic::kOverloaded || res.response.certified) {
            return r.fail("BROWNOUT SHED NOT CLASSIFIED",
                          diagnostic_name(diag));
          }
          break;
        case serve::RouterStatus::kAllShardsDown:
          if (classify_diagnostic(diag) != FailureKind::kTransient ||
              res.response.certified) {
            return r.fail("FULL-OUTAGE REFUSAL NOT TRANSIENT",
                          diagnostic_name(diag));
          }
          break;
      }
      // A refusal is the router telling us to back off; oblige briefly so
      // the supervision loop gets cycles to heal the fleet.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return r.fail("NEVER ANSWERED", task.describe());
  };

  // Clean cached round-trip: a healthy fleet routes a repeat task to its
  // home shard twice; both answers certify.
  auto clean = [&](Campaign& c) {
    const ReductionTask& task = repeat_tasks[c.pick(repeat_tasks.size())];
    if (!answer_through_chaos(task) || !answer_through_chaos(task)) {
      return false;
    }
    r.note(task.describe() + " ok");
    return true;
  };

  // Kill the HOME shard mid-stream — SIGKILL, or a genuine SIGSEGV — and
  // require the key to keep answering throughout the outage (failover) and
  // after the heal.
  auto kill_home = [&](Campaign& c, int sig) {
    const ReductionTask& task = repeat_tasks[c.pick(repeat_tasks.size())];
    if (!answer_through_chaos(task)) return false;  // warm the key
    router.kill_shard_for_testing(router.home_shard(task), sig);
    if (!answer_through_chaos(task)) return false;
    r.note(task.describe() + " survived");
    return true;
  };

  // Wedge: SIGSTOP freezes a shard's event loop while waitpid sees a live
  // child — only the probe deadline can catch it. The bulkhead contract:
  // the wedge costs that shard's capacity, never the router's liveness, and
  // the eviction SIGKILL leads to a heal.
  //
  // The between-campaign wait_all_serving barrier is eventually consistent:
  // a status can lag the previous campaign's kill by one supervision tick,
  // so a first SIGSTOP may land on an unreaped corpse (kill() succeeds on a
  // zombie, freezes nothing). The wedge contract is about LIVE shards, so
  // confirm the stop actually froze a process (/proc state T) and retry
  // while the supervisor settles the fleet.
  auto wedge = [&](Campaign& c) {
    const std::size_t victim = c.pick(ro.shards);
    const ReductionTask& task = repeat_tasks[c.pick(repeat_tasks.size())];
    if (!answer_through_chaos(task)) return false;  // warm the key
    const serve::ShardRouter::Stats before = router.stats();
    const bool wedged = wait_until(
        [&] {
          const pid_t pid = router.shard_pid(victim);
          return pid > 0 && router.kill_shard_for_testing(victim, SIGSTOP) &&
                 router.shard_pid(victim) == pid && proc_state(pid) == 'T';
        },
        std::chrono::seconds(15));
    if (!wedged) {
      return r.fail("WEDGE NEVER LANDED",
                    "no live shard process entered /proc state T under "
                    "SIGSTOP");
    }
    if (!answer_through_chaos(task)) return false;  // serve through it
    if (!wait_until(
            [&] { return router.stats().evictions != before.evictions; },
            std::chrono::seconds(15))) {
      const serve::ShardRouter::Stats after = router.stats();
      std::string detail =
          "probe deadline did not SIGKILL the SIGSTOPped shard: victim=" +
          std::to_string(victim) +
          " probes+" + std::to_string(after.probes - before.probes) +
          " probe-failures+" +
          std::to_string(after.probe_failures - before.probe_failures) +
          " restarts+" + std::to_string(after.restarts - before.restarts) +
          " statuses=";
      for (std::size_t i = 0; i < ro.shards; ++i) {
        detail += std::string(i ? "," : "") +
                  serve::shard_status_name(router.shard_status(i));
      }
      return r.fail("WEDGE NEVER EVICTED", detail);
    }
    r.note("victim=" + std::to_string(victim) + " evicted");
    return true;
  };

  // Brownout entry/exit: with one shard down the router must shed a
  // never-seen key as classified kOverloaded while a warm key keeps
  // answering; once the fleet heals, the same fresh key is admitted.
  auto brownout = [&](Campaign& c) {
    const ReductionTask& warm = repeat_tasks[c.pick(repeat_tasks.size())];
    if (!answer_through_chaos(warm)) return false;
    router.kill_shard_for_testing(c.pick(ro.shards), SIGKILL);
    if (!wait_until([&] { return router.browned_out(); },
                    std::chrono::seconds(15))) {
      return r.fail("BROWNOUT NEVER ENTERED",
                    "shard killed but browned_out() stayed false");
    }
    const ReductionTask fresh = unique_chain_task(unique_id++);
    const serve::RouteResult shed = router.submit(fresh);
    const bool was_shed = shed.status == serve::RouterStatus::kBrownoutShed;
    if (was_shed) {
      const Diagnostic diag = shed.response.report.diagnostic;
      if (diag != Diagnostic::kOverloaded ||
          classify_diagnostic(diag) != FailureKind::kTransient) {
        return r.fail("BROWNOUT SHED NOT CLASSIFIED", diagnostic_name(diag));
      }
    }  // a heal racing the submit is legal: the shed is best-effort here
    if (!answer_through_chaos(warm)) return false;  // warm keys survive
    if (!router.wait_all_serving(std::chrono::seconds(30))) {
      return r.fail("BROWNOUT NEVER EXITED",
                    "fleet did not heal after the brownout campaign");
    }
    if (!answer_through_chaos(fresh)) return false;  // admitted again
    r.note(was_shed ? "shed-then-admitted" : "healed-before-shed");
    return true;
  };

  // Fleet kill / restart storm: SIGKILL every shard at once. The very next
  // submit must be the classified all-shards-down refusal (or a lucky
  // failover into an already-respawned shard — also legal), and the
  // supervision loop must restart the whole fleet.
  auto fleet_kill = [&](Campaign& c) {
    const std::uint64_t restarts_before = router.stats().restarts;
    for (std::size_t i = 0; i < ro.shards; ++i) {
      router.kill_shard_for_testing(i, SIGKILL);
    }
    const ReductionTask& task = repeat_tasks[c.pick(repeat_tasks.size())];
    if (!answer_through_chaos(task)) return false;
    if (!router.wait_all_serving(std::chrono::seconds(30))) {
      return r.fail("RESTART STORM NEVER HEALED",
                    "fleet did not return to serving after a full kill");
    }
    if (router.stats().restarts < restarts_before + ro.shards) {
      return r.fail("RESTARTS NOT ACCOUNTED",
                    "fewer respawns than shards killed");
    }
    r.note("survived");
    return true;
  };

  std::vector<Shape> shapes = {
      {"shard-clean", clean},
      {"shard-kill-sigkill",
       [&](Campaign& c) { return kill_home(c, SIGKILL); }},
      {"shard-kill-sigsegv",
       [&](Campaign& c) { return kill_home(c, SIGSEGV); }},
      {"shard-wedge", wedge},
      {"shard-brownout", brownout},
      {"shard-fleet-kill", fleet_kill}};
  // Every shard shape starts with the self-healing contract: whatever the
  // previous campaign destroyed, the fleet is back at full serving strength.
  for (Shape& shape : shapes) {
    shape.run = [&r, &router, run = std::move(shape.run)](Campaign& c) {
      if (!router.wait_all_serving(std::chrono::seconds(30))) {
        return r.fail("FLEET NEVER HEALED",
                      "wait_all_serving timed out between campaigns");
      }
      return run(c);
    };
  }
  if (!router.wait_all_serving(std::chrono::seconds(30))) {
    r.fail("FLEET NEVER CAME UP", "initial wait_all_serving timed out");
  }
  r.run(shapes);

  const serve::ShardRouter::Stats rs = router.stats();
  std::uint64_t classified = 0;
  for (serve::RouterStatus s : serve::all_router_statuses()) {
    classified += rs.status(s);
  }
  r.require(classified == rs.submits,
            "LEDGER GAP: " + std::to_string(rs.submits) + " submits but " +
                std::to_string(classified) + " classified endings");
  r.cover("ShardStatus", serve::all_shard_statuses(), serve::shard_status_name,
          [&](serve::ShardStatus s) {
            return rs.shard_status_seen[static_cast<std::size_t>(s)];
          });
  r.cover("RouterStatus", serve::all_router_statuses(),
          serve::router_status_name,
          [&](serve::RouterStatus s) { return rs.status(s); });
  // Cache locality: consistent hashing must keep most answers on their home
  // shard even while campaigns keep killing it. The floor is deliberately
  // loose (a quarter) — failover storms legitimately move traffic — but a
  // broken ring (everything failing over) lands near 0.
  r.require(r.rotations() == 0 || rs.answered_by_home * 4 >= rs.answered,
            "LOCALITY GAP: only " + std::to_string(rs.answered_by_home) +
                " of " + std::to_string(rs.answered) +
                " answers came from the home shard");

  Summary summary = {{"certified", r.ledger.certified},
                     {"submits", rs.submits}};
  for (serve::RouterStatus s : serve::all_router_statuses()) {
    summary.emplace_back(serve::router_status_name(s), rs.status(s));
  }
  summary.insert(summary.end(), {{"failover-hops", rs.failover_hops},
                                 {"restarts", rs.restarts},
                                 {"evictions", rs.evictions},
                                 {"probes", rs.probes},
                                 {"probe-failures", rs.probe_failures},
                                 {"answered", rs.answered},
                                 {"answered-by-home", rs.answered_by_home}});
  return summary;
}

// --- command line -----------------------------------------------------------

// Indexed by Mode; the default mode has no flag.
struct ModeRow {
  const char* flag;
  Summary (*run)(Runner&);
};

constexpr ModeRow kModes[] = {
    {"", run_fault},
    {"--kill-only", run_kill},
    {"--serve", run_serve},
    {"--net", run_net},
    {"--shard", run_shard},
};

int usage() {
  std::fprintf(stderr,
               "usage: pfact_soak [--campaigns N] [--seed S] [--log FILE] "
               "[--fail-dir DIR] [--kill-only | --serve | --net | --shard] "
               "[--inject-violation N] [--verbose]\n"
               "  N and S are unsigned decimal integers; --campaigns >= 1\n");
  return 2;
}

// A whole unsigned decimal number: no sign, no junk, no overflow.
bool parse_number(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && ptr != text;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    auto text = [&](std::string& out) {
      if (!has_value) return false;
      out = argv[++i];
      return true;
    };
    auto number = [&](auto& out) {
      std::uint64_t n = 0;
      if (!has_value || !parse_number(argv[++i], n)) return false;
      out = n;
      return true;
    };
    std::size_t mode = 1;
    while (mode < std::size(kModes) && arg != kModes[mode].flag) ++mode;
    if (mode < std::size(kModes)) {
      if (opt.mode != Mode::kFault) return usage();  // the modes are exclusive
      opt.mode = static_cast<Mode>(mode);
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--log") {
      if (!text(opt.log_path)) return usage();
    } else if (arg == "--fail-dir") {
      if (!text(opt.fail_dir)) return usage();
    } else if (arg == "--campaigns") {
      if (!number(opt.campaigns) || opt.campaigns == 0) return usage();
    } else if (arg == "--seed") {
      if (!number(opt.seed)) return usage();
    } else if (arg == "--inject-violation") {
      if (!number(opt.inject_violation)) return usage();
    } else {
      return usage();
    }
  }

  std::ofstream log(opt.log_path, std::ios::trunc);
  if (!log) {
    std::fprintf(stderr, "cannot open log file %s\n", opt.log_path.c_str());
    return 2;
  }
  const ModeRow& mode = kModes[static_cast<std::size_t>(opt.mode)];
  log << "pfact_soak seed=" << opt.seed << " campaigns=" << opt.campaigns;
  if (opt.mode != Mode::kFault) log << " " << mode.flag + 2;  // flag's word
  log << "\n";

  Runner runner(opt, log);
  return runner.finish(mode.run(runner));
}
