// pfbench: one seeded workload of the pfact benchmark per invocation.
//
//   pfbench --workload serve-hot|serve-fresh|batch-exact --seed N
//           --seconds S --trace 0|1 [--sock-dir DIR]
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed, metrics (name -> {value, unit}) and details (host descriptor,
// per-outcome counts, p99 with its sample count, the ladder used). With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. perfbench/run.py wraps this binary with the build, the
// process-group hygiene and the socket directory; run it through that.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pfbench --workload serve-hot|serve-fresh|batch-exact "
               "--seed N --seconds S --trace 0|1 [--sock-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--sock-dir") {
      args.sock_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return usage();

  perfbench::Result result;
  const perfbench::Parallelism host_start = perfbench::measure_parallelism();
  int rc;
  if (args.workload == "serve-hot" || args.workload == "serve-fresh") {
    rc = perfbench::run_serve(args, result);
  } else if (args.workload == "batch-exact") {
    rc = perfbench::run_batch(args, result);
  } else {
    return usage();
  }
  if (rc != 0) return rc;
  result.detail("host", perfbench::host_json(host_start,
                                             perfbench::measure_parallelism()));
  result.detail("workload", perfbench::json_str(args.workload));
  result.detail("seed", std::to_string(args.seed));
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
