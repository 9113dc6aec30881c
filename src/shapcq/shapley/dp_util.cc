#include "shapcq/shapley/dp_util.h"

#include <algorithm>
#include <cstdint>

#include "shapcq/util/check.h"

namespace shapcq {

namespace {

// Coefficient vector flattened once: entry i's magnitude occupies words
// [i·width, (i+1)·width) little-endian, of which the low used[i] are
// significant; sign[i] is -1, 0 or +1.
struct Words {
  int width = 0;
  std::vector<uint64_t> words;
  std::vector<int> used;
  std::vector<int> sign;
};

Words Flatten(const std::vector<BigInt>& v) {
  Words out;
  for (const BigInt& x : v) {
    out.width = std::max(out.width, (x.num_limbs32() + 1) / 2);
  }
  out.words.assign(v.size() * static_cast<size_t>(out.width), 0);
  out.used.resize(v.size());
  out.sign.resize(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const BigInt& x = v[i];
    uint64_t* w = out.words.data() + i * static_cast<size_t>(out.width);
    for (int l = 0; l < x.num_limbs32(); ++l) {
      w[l / 2] |= static_cast<uint64_t>(x.limb32(l)) << (32 * (l % 2));
    }
    out.used[i] = (x.num_limbs32() + 1) / 2;
    out.sign[i] = x.sign();
  }
  return out;
}

// acc[0, size) ± x[0, nx)·y[0, ny) modulo 2^(64·size); size > nx + ny − 1.
// Each carry or borrow runs only as far as it changes a word, which is
// exact in two's complement.
template <bool kSubtract>
void AddProduct(const uint64_t* x, int nx, const uint64_t* y, int ny,
                uint64_t* acc, int size) {
  for (int p = 0; p < nx; ++p) {
    uint64_t carry = 0;
    uint64_t* row = acc + p;
    for (int q = 0; q < ny; ++q) {
      const unsigned __int128 product =
          static_cast<unsigned __int128>(x[p]) * y[q] + carry;
      const uint64_t low = static_cast<uint64_t>(product);
      carry = static_cast<uint64_t>(product >> 64);
      if constexpr (kSubtract) {
        carry += row[q] < low ? 1 : 0;
        row[q] -= low;
      } else {
        row[q] += low;
        carry += row[q] < low ? 1 : 0;
      }
    }
    for (int t = p + ny; carry != 0 && t < size; ++t) {
      if constexpr (kSubtract) {
        const uint64_t before = acc[t];
        acc[t] -= carry;
        carry = before < carry ? 1 : 0;
      } else {
        acc[t] += carry;
        carry = acc[t] < carry ? 1 : 0;
      }
    }
  }
}

// The two's-complement value acc[0, size) as a BigInt.
BigInt FromTwosComplement(uint64_t* acc, int size) {
  if ((acc[size - 1] >> 63) == 0) {
    return BigInt::FromMagnitude64(acc, size, 1);
  }
  uint64_t carry = 1;  // magnitude = ~acc + 1
  for (int t = 0; t < size; ++t) {
    acc[t] = ~acc[t] + carry;
    carry = carry != 0 && acc[t] == 0 ? 1 : 0;
  }
  return BigInt::FromMagnitude64(acc, size, -1);
}

}  // namespace

std::vector<BigInt> Convolve(const std::vector<BigInt>& a,
                             const std::vector<BigInt>& b) {
  if (a.empty() || b.empty()) return {};
  const Words wa = Flatten(a);
  const Words wb = Flatten(b);
  // A product needs wa.width + wb.width words; one more word holds the
  // sign and the carries of up to 2^63 summed products.
  const int size = wa.width + wb.width + 1;
  const size_t length = a.size() + b.size() - 1;
  std::vector<uint64_t> acc(length * static_cast<size_t>(size), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    if (wa.sign[i] == 0) continue;
    const uint64_t* x = wa.words.data() + i * static_cast<size_t>(wa.width);
    for (size_t j = 0; j < b.size(); ++j) {
      if (wb.sign[j] == 0) continue;
      const uint64_t* y = wb.words.data() + j * static_cast<size_t>(wb.width);
      uint64_t* out = acc.data() + (i + j) * static_cast<size_t>(size);
      if (wa.sign[i] == wb.sign[j]) {
        AddProduct<false>(x, wa.used[i], y, wb.used[j], out, size);
      } else {
        AddProduct<true>(x, wa.used[i], y, wb.used[j], out, size);
      }
    }
  }
  std::vector<BigInt> out(length);
  for (size_t k = 0; k < length; ++k) {
    out[k] = FromTwosComplement(&acc[k * static_cast<size_t>(size)], size);
  }
  return out;
}

std::vector<BigInt> BinomialVector(int m, Combinatorics* comb) {
  SHAPCQ_CHECK(m >= 0);
  return comb->BinomialRow(m);
}

std::vector<BigInt> PadCounts(const std::vector<BigInt>& counts, int pad,
                              Combinatorics* comb) {
  if (pad == 0) return counts;
  return Convolve(counts, comb->BinomialRow(pad));
}

std::vector<BigInt> SubtractCounts(const std::vector<BigInt>& a,
                                   const std::vector<BigInt>& b) {
  SHAPCQ_CHECK(a.size() == b.size());
  std::vector<BigInt> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

void AddInto(std::vector<BigInt>* acc, const std::vector<BigInt>& counts) {
  SHAPCQ_CHECK(acc->size() == counts.size());
  for (size_t k = 0; k < counts.size(); ++k) (*acc)[k] += counts[k];
}

}  // namespace shapcq
