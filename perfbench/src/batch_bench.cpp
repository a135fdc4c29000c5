// batch-exact: an in-process fixed batch with no serving layer — exact
// rational GEMS-NC and prefix ranks (BigInt), the thread-pool factorizations
// beside their sequential twins, and a deep sparse GEM chain with
// checkpointing. One operation is one full pass of the batch.
#include <cstdio>
#include <ctime>
#include <map>

#include "circuit/builders.h"
#include "common.h"
#include "core/assembler.h"
#include "factor/gaussian.h"
#include "factor/givens.h"
#include "factor/parallel_factor.h"
#include "matrix/generators.h"
#include "nc/gems_nc.h"
#include "nc/lfmis.h"
#include "numeric/rational.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "robustness/checkpoint.h"
#include "tasks.h"

namespace perfbench {

namespace {

using numeric::Rational;
using robustness::Substrate;

constexpr std::size_t kSetups = 5;
constexpr std::size_t kExactOrder = 10;
constexpr std::size_t kGeOrder = 48;
constexpr std::size_t kQrOrder = 32;
constexpr std::size_t kChainDepth = 130;
constexpr std::size_t kChainCheckpointEvery = 4096;

struct Batch {
  std::vector<Matrix<Rational>> exact;  // nonsingular, integer entries
  std::vector<Matrix<double>> ge_inputs;
  std::vector<Matrix<double>> qr_inputs;
  std::vector<ReductionTask> chains;    // sparse GEM over deep NAND chains
};

Batch make_batch(std::uint64_t seed) {
  Batch b;
  for (std::size_t i = 0; i < 6; ++i) {
    b.exact.push_back(gen::random_nonsingular_exact(
        kExactOrder, 4, caller_seed(seed, 10 + i)));
  }
  for (std::size_t i = 0; i < 2; ++i) {
    b.ge_inputs.push_back(
        gen::random_general(kGeOrder, caller_seed(seed, 20 + i)));
    b.qr_inputs.push_back(
        gen::random_general(kQrOrder, caller_seed(seed, 30 + i)));
  }
  std::mt19937_64 rng(caller_seed(seed, 40));
  for (std::size_t i = 0; i < 1; ++i) {
    ReductionTask task;
    task.algorithm = robustness::Algorithm::kGem;
    task.backend = robustness::Backend::kSparse;
    task.instance =
        circuit::CvpInstance{circuit::deep_chain_circuit(kChainDepth),
                             {(rng() & 1) != 0, (rng() & 1) != 0}};
    b.chains.push_back(std::move(task));
  }
  return b;
}

robustness::GuardLimits chain_limits() {
  robustness::GuardLimits limits;
  // The chain's fanout-normalized A_C is larger than the default admission
  // ceiling; the sparse backend is what makes that order affordable.
  limits.max_order = std::size_t{1} << 18;
  return limits;
}

// One chain run, checkpointing every `every` steps (0: never).
robustness::RunReport run_chain(const ReductionTask& task, std::size_t every) {
  robustness::CheckpointStore store;
  robustness::CheckpointConfig ckpt;
  ckpt.every = every;
  ckpt.store = every ? &store : nullptr;
  return robustness::run_on_substrate(task, Substrate::kDouble, chain_limits(),
                                      {}, ckpt);
}

// Scores a chain run: uncertified is a failure, a wrong decode is wrong.
void score_chain(Tally& tally, std::uint64_t seed, const ReductionTask& task,
                 const robustness::RunReport& rep) {
  if (!rep.ok()) {
    tally.add(Outcome::kUncertified);
  } else if (rep.value != task.expected()) {
    tally.add_wrong(seed, task, rep.value);
  } else {
    tally.add(Outcome::kOk);
  }
}

template <class T>
bool same_lu(const factor::LuResult<T>& a, const factor::LuResult<T>& b) {
  return a.ok && b.ok && a.l == b.l && a.u == b.u && a.row_perm == b.row_perm;
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Wall and CPU time (all threads, the pool's too) of the program's calls in
// one pass. The checks between the calls are the benchmark's own work and
// stay out.
struct PassCost {
  double wall_us = 0;
  double cpu_s = 0;
};

// Meters one call: a span named after it (recorded when tracing is on)
// plus its wall and CPU time.
class Metered {
 public:
  Metered(const char* name, PassCost& cost)
      : span_(name), cost_(cost), cpu0_(process_cpu_s()), t0_(Clock::now()) {}
  ~Metered() {
    cost_.wall_us += us_between(t0_, Clock::now());
    cost_.cpu_s += process_cpu_s() - cpu0_;
  }
  Metered(const Metered&) = delete;
  Metered& operator=(const Metered&) = delete;

 private:
  obs::ScopedSpan span_;
  PassCost& cost_;
  double cpu0_;
  Clock::time_point t0_;
};

// One full pass. Every call is checked; a failed check counts as a wrong
// answer (these are exact or bit-identical comparisons, never tolerances).
PassCost pass(const Batch& b, std::uint64_t seed, Tally& tally,
              double* ckpt_saves = nullptr, double* ckpt_bytes = nullptr) {
  PassCost cost;
  auto check = [&](bool ok, const char* what) {
    if (ok) {
      tally.add(Outcome::kOk);
      return;
    }
    tally.add(Outcome::kWrong);
    if (tally.wrong_answers.size() < 8) {
      const std::string line = "seed=" + std::to_string(seed) + " call=" + what;
      std::fprintf(stderr, "pfbench: WRONG ANSWER %s\n", line.c_str());
      tally.wrong_answers.push_back(line);
    }
  };
  for (const Matrix<Rational>& a : b.exact) {
    nc::GemsNcResult r;
    {
      Metered call("nc.gems_nc", cost);
      r = nc::gems_nc_factor(a);
    }
    check(r.ok && r.row_perm.apply_rows(a) == r.l * r.u &&
              r.l.is_unit_lower_triangular() && r.u.is_upper_triangular(),
          "gems_nc_factor: P*A != L*U");
    std::vector<std::size_t> ranks;
    {
      Metered call("nc.prefix_ranks", cost);
      ranks = nc::prefix_row_ranks(a);
    }
    // A nonsingular matrix's first i rows have rank exactly i.
    bool ok = ranks.size() == a.rows();
    for (std::size_t i = 0; ok && i < ranks.size(); ++i) ok = ranks[i] == i + 1;
    check(ok, "prefix_row_ranks: not 1..n on a nonsingular matrix");
  }
  for (const Matrix<double>& a : b.ge_inputs) {
    factor::LuResult<double> par, seq;
    {
      Metered call("parallel.ge_rows", cost);
      par = factor::ge_factor_parallel_rows(a, factor::PivotStrategy::kPartial);
    }
    {
      Metered call("sequential.ge", cost);
      seq = factor::ge_factor(a, factor::PivotStrategy::kPartial);
    }
    check(same_lu(par, seq), "ge_factor_parallel_rows != ge_factor");
  }
  for (const Matrix<double>& a : b.qr_inputs) {
    factor::QrResult<double> par, seq;
    {
      Metered call("parallel.gqr_stages", cost);
      par = factor::givens_qr_sameh_kuck_parallel(a);
    }
    {
      Metered call("sequential.gqr", cost);
      seq = factor::givens_qr_sameh_kuck(a);
    }
    check(par.r == seq.r && par.rotations == seq.rotations &&
              par.r.is_upper_triangular(),
          "givens_qr_sameh_kuck_parallel != givens_qr_sameh_kuck");
  }
  for (const ReductionTask& task : b.chains) {
    robustness::RunReport rep;
    {
      Metered call("matrix.sparse_chain", cost);
      rep = run_chain(task, kChainCheckpointEvery);
    }
    score_chain(tally, seed, task, rep);
    if (ckpt_saves) {
      *ckpt_saves += static_cast<double>(
          rep.metrics[obs::Counter::kCheckpointSaves]);
    }
    if (ckpt_bytes) {
      *ckpt_bytes += static_cast<double>(
          rep.metrics[obs::Counter::kCheckpointBytes]);
    }
  }
  return cost;
}

// Per-span-name durations (microseconds) from the span log.
std::map<std::string, std::vector<double>> spans_by_name() {
  std::map<std::string, std::vector<double>> out;
  for (const obs::SpanEvent& e : obs::dump_spans()) {
    out[e.name].push_back(static_cast<double>(e.end_ns - e.begin_ns) / 1000.0);
  }
  return out;
}

void timed_run(const Args& args, Result& out) {
  Timed t;
  Batch batch;
  Tally setup_tally;
  for (std::size_t i = 0; i < kSetups; ++i) {
    // Set-up: generate the seeded inputs, then one unmeasured pass that
    // spins up the thread pool and touches every allocation path.
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    batch = make_batch(args.seed);
    pass(batch, args.seed, setup_tally);
    t.setup_wall_s.push_back(us_between(t0, Clock::now()) / 1e6);
    t.setup_cpu_s.push_back(process_cpu_s() - cpu0);
  }
  out.tally.merge(setup_tally);

  // Wall and CPU time of each pass; the CPU figure is the median pass's.
  WindowLog log(args.seconds, caller_seed(args.seed, 500));
  std::vector<double> pass_cpu_s;
  const Clock::time_point start = Clock::now();
  const HostJiffies host0 = host_jiffies();
  while (us_between(start, Clock::now()) < args.seconds * 1e6) {
    const std::uint64_t ok_before = t.measured.ok();
    const PassCost cost = pass(batch, args.seed, t.measured);
    log.add(us_between(start, Clock::now()) / 1e6, cost.wall_us,
            t.measured.ok() - ok_before);
    pass_cpu_s.push_back(cost.cpu_s);
  }
  t.elapsed_s = us_between(start, Clock::now()) / 1e6;
  t.steal_share = steal_share(host0, host_jiffies());
  t.rss = peak_rss();
  t.wall = windowed({log});
  t.answers_per_cpu_s = static_cast<double>(t.measured.ok()) /
                        static_cast<double>(pass_cpu_s.size()) /
                        median(pass_cpu_s);
  out.tally.merge(t.measured);
  report_timed(t, out);
  out.detail("load", "{\"loop\":\"closed\",\"callers\":1,\"passes\":" +
                         std::to_string(pass_cpu_s.size()) + "}");
}

void traced_run(const Args& args, Result& out) {
  constexpr std::size_t kPasses = 5;
  const Batch batch = make_batch(args.seed);
  Tally& tally = out.tally;
  pass(batch, args.seed, tally);  // warm-up, as in the timed run's set-up
  Layers L;

  // Traced and untraced passes alternate (which goes first alternates
  // too); spans are recorded only in the traced ones.
  std::vector<double> traced_us, untraced_us;
  double saves = 0, bytes = 0;
  obs::CounterDelta per_pass{};
  obs::clear_spans();
  for (std::size_t i = 0; i < 2 * kPasses; ++i) {
    const bool traced = (i / 2 + i) % 2 == 0;
    obs::set_tracing_enabled(traced);
    const obs::CounterSnapshot c0 = obs::snapshot();
    if (traced) {
      traced_us.push_back(
          pass(batch, args.seed, tally, &saves, &bytes).wall_us);
      per_pass = obs::snapshot() - c0;
    } else {
      untraced_us.push_back(pass(batch, args.seed, tally).wall_us);
    }
  }
  obs::set_tracing_enabled(false);
  std::map<std::string, std::vector<double>> by_name = spans_by_name();
  obs::clear_spans();

  // The chain again without checkpoints (the guarded compute alone), and
  // its A_C assembly on its own.
  std::vector<double> bare_us, assemble_us;
  double steps = 0;
  for (std::size_t i = 0; i < kPasses; ++i) {
    for (const ReductionTask& task : batch.chains) {
      Clock::time_point t0 = Clock::now();
      const robustness::RunReport rep = run_chain(task, 0);
      bare_us.push_back(us_between(t0, Clock::now()));
      score_chain(tally, args.seed, task, rep);
      steps += static_cast<double>(rep.steps_used);
      t0 = Clock::now();
      core::build_gem_reduction_sparse(task.instance);
      assemble_us.push_back(us_between(t0, Clock::now()));
    }
  }

  const double chains = static_cast<double>(kPasses * batch.chains.size());
  auto p50_ms = [&](const char* name) { return median(by_name[name]) / 1000; };
  L["nc.gems_nc_p50_ms"] = p50_ms("nc.gems_nc");
  L["nc.prefix_ranks_p50_ms"] = p50_ms("nc.prefix_ranks");
  L["parallel.ge_rows_p50_ms"] = p50_ms("parallel.ge_rows");
  L["parallel.gqr_stages_p50_ms"] = p50_ms("parallel.gqr_stages");
  L["parallel.overhead_ratio"] =
      (L["parallel.ge_rows_p50_ms"] + L["parallel.gqr_stages_p50_ms"]) /
      (p50_ms("sequential.ge") + p50_ms("sequential.gqr"));
  L["parallel.pool_tasks"] =
      static_cast<double>(per_pass[obs::Counter::kPoolTasksSubmitted]);
  L["matrix.sparse_chain_p50_ms"] = p50_ms("matrix.sparse_chain");
  L["matrix.sparse_fill_ins"] =
      static_cast<double>(per_pass[obs::Counter::kSparseFillIns]);
  L["numeric.bigint_allocs"] =
      static_cast<double>(per_pass[obs::Counter::kBigIntAllocs]);
  L["numeric.bigint_limbs"] =
      static_cast<double>(per_pass[obs::Counter::kBigIntLimbsAllocated]);
  L["guarded_run.p50_us"] = median(bare_us);
  L["guarded_run.steps_per_job"] = steps / chains;
  L["core.assemble_p50_us"] = median(assemble_us);
  L["checkpoint.self_p50_us"] =
      median(by_name["matrix.sparse_chain"]) - median(bare_us);
  L["checkpoint.saves_per_job"] = saves / chains;
  L["checkpoint.bytes_per_job"] = bytes / chains;
  L["trace.overhead_ratio"] = median(traced_us) / median(untraced_us);
  emit_layers(L, out);

  out.detail("ladder",
             "[{\"rung\":\"in-process batch pass (no serving layer)\","
             "\"p50_us\":" +
                 json_num(median(traced_us)) + "}]");
  out.detail("trace_overhead",
             "{\"traced_p50_us\":" + json_num(median(traced_us)) +
                 ",\"untraced_p50_us\":" + json_num(median(untraced_us)) +
                 ",\"rung\":\"batch pass\"}");
}

}  // namespace

int run_batch(const Args& args, Result& out) {
  if (args.trace) {
    traced_run(args, out);
  } else {
    timed_run(args, out);
  }
  return 0;
}

}  // namespace perfbench
