#include "nc/lfmis.h"

#include "nc/bareiss.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace pfact::nc {

std::vector<std::size_t> prefix_row_ranks(
    const Matrix<numeric::Rational>& a) {
  return prefix_row_ranks(
      a, [](std::size_t, const Matrix<numeric::Rational>& prefix) {
        return rank_exact(prefix);
      });
}

std::vector<std::size_t> prefix_row_ranks(const Matrix<numeric::Rational>& a,
                                          const PrefixRankFn& rank) {
  std::vector<std::size_t> ranks(a.rows());
  par::parallel_for(0, a.rows(), [&](std::size_t i) {
    PFACT_SPAN("lfmis.rank");
    PFACT_COUNT(kRankQueries);
    ranks[i] = rank(i, a.submatrix(0, 0, i + 1, a.cols()));
  });
  return ranks;
}

std::vector<std::size_t> lfmis_rows(const Matrix<numeric::Rational>& a) {
  std::vector<std::size_t> ranks = prefix_row_ranks(a);
  std::vector<std::size_t> out;
  std::size_t prev = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (ranks[i] > prev) out.push_back(i);
    prev = ranks[i];
  }
  return out;
}

}  // namespace pfact::nc
