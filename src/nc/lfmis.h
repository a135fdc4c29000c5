#pragma once
// Lexicographically First Maximal Independent Subset of rows (LFMIS) —
// the combinatorial core of the NC upper bounds in Theorem 3.3 and of
// Eberly's NC PLU algorithm [5], via the rank-based characterization of
// Borodin / von zur Gathen / Hopcroft [2]:
//
//     row i is in the LFMIS  <=>  rank(rows 0..i) > rank(rows 0..i-1).
//
// All prefix ranks are independent rank computations, evaluated here over a
// thread pool (each rank is itself NC by [2]; the prefix scan gives the NC^2
// bound the paper cites).

#include <cstddef>
#include <functional>
#include <vector>

#include "matrix/matrix.h"
#include "numeric/rational.h"

namespace pfact::nc {

// Indices (increasing) of the LFMIS of the rows of `a`.
std::vector<std::size_t> lfmis_rows(const Matrix<numeric::Rational>& a);

// Prefix ranks: result[i] = rank of rows 0..i (all computed concurrently).
std::vector<std::size_t> prefix_row_ranks(const Matrix<numeric::Rational>& a);

// The same sweep with the rank query supplied by the caller: result[i] =
// rank(i, rows 0..i). The overload above passes the exact Bareiss rank;
// tests pass an instrumented one to observe the queries' independence.
using PrefixRankFn =
    std::function<std::size_t(std::size_t, const Matrix<numeric::Rational>&)>;
std::vector<std::size_t> prefix_row_ranks(const Matrix<numeric::Rational>& a,
                                          const PrefixRankFn& rank);

}  // namespace pfact::nc
