#include "tasks.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "circuit/builders.h"
#include "core/assembler.h"
#include "serve/result_cache.h"

namespace perfbench {

namespace {

using robustness::Algorithm;
using robustness::Backend;

// serve-hot's circuit keys all reduce to an order in this band, so a cache
// hit costs about the same whichever circuit the seed drew.
constexpr std::size_t kHotOrderMin = 92;
constexpr std::size_t kHotOrderMax = 108;

// serve-fresh's band. A narrow band keeps the checkpoints the shards cache
// of similar size: over the unfiltered spread of orders (~20-220) the rare
// large ones decided each run's peak memory.
constexpr std::size_t kFreshOrderMin = 88;
constexpr std::size_t kFreshOrderMax = 120;

std::size_t uniform(std::mt19937_64& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
}

ReductionTask circuit_task(std::mt19937_64& rng, Algorithm algorithm,
                           Backend backend, std::size_t gates) {
  const std::size_t inputs = uniform(rng, 2, 4);
  std::vector<bool> bits(inputs);
  for (std::size_t i = 0; i < inputs; ++i) bits[i] = (rng() & 1) != 0;
  ReductionTask task;
  task.algorithm = algorithm;
  task.backend = backend;
  task.instance =
      circuit::CvpInstance{circuit::random_circuit(inputs, gates, rng()), bits};
  return task;
}

std::string key_of(const ReductionTask& task) {
  return serve::ResultCache::key_for(task, robustness::Substrate::kDouble);
}

}  // namespace

std::vector<ReductionTask> hot_keys(std::uint64_t seed) {
  std::mt19937_64 rng(caller_seed(seed, 1000));
  std::unordered_set<std::string> seen;
  std::vector<ReductionTask> keys;
  for (std::size_t rank = 0; rank < kHotKeys; ++rank) {
    const std::size_t block = rank / 16;
    const std::size_t slot = rank % 16;
    for (;;) {
      ReductionTask task;
      if (slot < 10) {
        task = circuit_task(rng, slot % 2 ? Algorithm::kGems : Algorithm::kGem,
                            slot < 8 ? Backend::kDense : Backend::kSparse,
                            uniform(rng, 4, 5));
        const std::size_t order =
            core::build_gem_reduction(task.instance).matrix.rows();
        if (order < kHotOrderMin || order > kHotOrderMax) continue;
      } else {
        // Inputs are encoded in {1, 2} for GEP and in {-1, +1} for GQR. GEP
        // stays at depth <= 8, inside double pivoting's decode band.
        const bool gep = slot < 13;
        const int hi = gep ? 2 : 1;
        const int lo = gep ? 1 : -1;
        task.algorithm = gep ? Algorithm::kGep : Algorithm::kGqr;
        task.u = (rng() & 1) ? hi : lo;
        task.w = (rng() & 1) ? hi : lo;
        task.depth = gep ? 1 + block + 2 * (slot - 10)
                         : 2 + block + 2 * (slot - 13);
      }
      if (seen.insert(key_of(task)).second) {
        keys.push_back(std::move(task));
        break;
      }
    }
  }
  return keys;
}

ZipfDraw::ZipfDraw(std::size_t n) {
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfDraw::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const std::size_t rank = static_cast<std::size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(rank, cdf_.size() - 1);
}

ReductionTask FreshStream::next() {
  for (;;) {
    const std::size_t pick = uniform(rng_, 0, 2);
    const Algorithm alg = pick == 0   ? Algorithm::kGem
                          : pick == 1 ? Algorithm::kGems
                                      : Algorithm::kGemNonsingular;
    const Backend backend = (rng_() & 1) ? Backend::kSparse : Backend::kDense;
    // GEM-nonsingular borders the matrix to about twice the order, so it
    // gets fewer gates and half the band.
    const bool bordered = alg == Algorithm::kGemNonsingular;
    const std::size_t gates =
        bordered ? uniform(rng_, 2, 3) : uniform(rng_, 3, 5);
    ReductionTask task = circuit_task(rng_, alg, backend, gates);
    const std::size_t order =
        core::build_gem_reduction(task.instance).matrix.rows() *
        (bordered ? 2 : 1);
    if (order < kFreshOrderMin || order > kFreshOrderMax) continue;
    const std::uint64_t h = std::hash<std::string>{}(key_of(task));
    const std::size_t live = std::min(issued_, kRecent);
    if (std::find(recent_.begin(), recent_.begin() + live, h) !=
        recent_.begin() + live) {
      continue;
    }
    recent_[issued_++ % kRecent] = h;
    return task;
  }
}

std::vector<ReductionTask> first_requests(bool hot, std::uint64_t seed,
                                          std::size_t n) {
  std::vector<ReductionTask> out;
  if (hot) {
    const std::vector<ReductionTask> keys = hot_keys(seed);
    const ZipfDraw zipf(keys.size());
    std::mt19937_64 rng(caller_seed(seed, 0));
    for (std::size_t i = 0; i < n; ++i) out.push_back(keys[zipf(rng)]);
  } else {
    FreshStream stream(seed);
    for (std::size_t i = 0; i < n; ++i) out.push_back(stream.next());
  }
  return out;
}

}  // namespace perfbench
