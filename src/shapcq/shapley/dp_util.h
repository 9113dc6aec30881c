// Shared helpers for the subset-counting dynamic programs.

#ifndef SHAPCQ_SHAPLEY_DP_UTIL_H_
#define SHAPCQ_SHAPLEY_DP_UTIL_H_

#include <vector>

#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

// Polynomial (convolution) product of two count vectors:
// out[k] = Σ_j a[j]·b[k−j]. Empty inputs are treated as the zero polynomial.
// Entries may be negative. One schoolbook kernel on raw 64-bit words: each
// input is flattened once at its widest entry's width, every coefficient
// accumulates in a two's-complement buffer of |a| + |b| + 1 words (widths
// in words) with 128-bit limb products, and each output BigInt is built
// once. There is no width cap, so the result is exact at any size; nothing
// is allocated per term.
std::vector<BigInt> Convolve(const std::vector<BigInt>& a,
                             const std::vector<BigInt>& b);

// [C(m,0), C(m,1), ..., C(m,m)].
std::vector<BigInt> BinomialVector(int m, Combinatorics* comb);

// Counts after adding `pad` endogenous facts that never affect the query:
// out[k] = Σ_j c[j]·C(pad, k−j).
std::vector<BigInt> PadCounts(const std::vector<BigInt>& counts, int pad,
                              Combinatorics* comb);

// Element-wise difference a − b (same length).
std::vector<BigInt> SubtractCounts(const std::vector<BigInt>& a,
                                   const std::vector<BigInt>& b);

// *acc += counts, element-wise (same length).
void AddInto(std::vector<BigInt>* acc, const std::vector<BigInt>& counts);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_DP_UTIL_H_
