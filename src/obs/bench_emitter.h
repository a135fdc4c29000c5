#pragma once
// Shared bench harness: runs registered workloads with warmup + repeats,
// attaches an op-counter snapshot and a span-derived critical-path depth to
// each, and serializes everything as schema-versioned JSON
// (BENCH_pr2.json; schema string kBenchSchema below).
//
// Unlike the per-figure google-benchmark binaries (bench_*.cpp), which are
// interactive exploration tools, this harness exists to produce a *stable,
// diffable artifact*: the perf + op-count baseline the CI uploads and later
// PRs compare against. Timing and instrumentation are separated — wall
// times come from un-traced repeats, while counters and spans come from one
// additional instrumented run — so tracing overhead never pollutes the
// reported numbers.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/counters.h"

namespace pfact::obs {

inline constexpr const char* kBenchSchema = "pfact-bench/2";

struct BenchSpec {
  std::string name;        // e.g. "table1/gem-xor-suite"
  std::string experiment;  // EXPERIMENTS.md anchor, e.g. "table1"
  std::function<void()> fn;
};

struct BenchMeasurement {
  std::string name;
  std::string experiment;
  std::size_t warmup = 0;
  std::size_t repeats = 0;
  double ns_min = 0;
  double ns_mean = 0;
  double ns_median = 0;
  // One instrumented run of fn (deterministic given the workload):
  CounterDelta counters;
  std::size_t span_count = 0;
  std::size_t critical_path_depth = 0;  // longest chain of disjoint spans
};

class BenchSuite {
 public:
  void add(std::string name, std::string experiment,
           std::function<void()> fn);

  const std::vector<BenchSpec>& specs() const { return specs_; }

  // Runs one spec: `warmup` untimed runs, `repeats` timed runs, then one
  // instrumented run for counters + spans.
  BenchMeasurement measure(const BenchSpec& spec, std::size_t warmup,
                           std::size_t repeats) const;

  // Runs every spec whose name contains `filter` (empty = all), logging a
  // one-line summary per bench to `log` (may be null).
  std::vector<BenchMeasurement> run(std::size_t warmup, std::size_t repeats,
                                    const std::string& filter,
                                    std::ostream* log) const;

  // The schema-versioned JSON document (see DESIGN.md section 8 for the
  // field-by-field description). `crc32_kernel` names the CRC-32 kernel
  // the host ran every integrity check on; it joins the host descriptor.
  static std::string to_json(const std::vector<BenchMeasurement>& results,
                             std::size_t warmup, std::size_t repeats,
                             const char* crc32_kernel);

 private:
  std::vector<BenchSpec> specs_;
};

}  // namespace pfact::obs
