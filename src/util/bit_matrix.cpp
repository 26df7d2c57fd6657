#include "util/bit_matrix.h"

#include <cassert>
#include <cstring>

#include "util/check.h"

namespace treenum {

namespace {

#ifndef NDEBUG
// Debug check for the ComposeIntoWords aliasing precondition: the blocked
// kernel re-reads operand rows after writing `out`, so an overlapping
// destination silently corrupts the composition. Empty ranges never overlap.
bool WordRangesOverlap(const uint64_t* a, size_t a_words, const uint64_t* b,
                       size_t b_words) {
  if (a_words == 0 || b_words == 0) return false;
  return a < b + b_words && b < a + a_words;
}
#endif

/// Compose specialization for b_wpr == 1 (destination columns fit one
/// word — the common case: relations over a box's ∪-gates with w ≤ 64).
/// The whole destination row lives in one register, so b's single-word
/// rows are gathered straight into it.
void ComposeNarrow(const uint64_t* a, size_t a_rows, size_t a_wpr,
                   const uint64_t* b, uint64_t* out) {
  for (size_t r = 0; r < a_rows; ++r) {
    const uint64_t* row = a + r * a_wpr;
    uint64_t acc = 0;
    for (size_t w = 0; w < a_wpr; ++w) {
      uint64_t bits = row[w];
      const uint64_t* brows = b + w * 64;
      while (bits) {
        acc |= brows[__builtin_ctzll(bits)];
        bits &= bits - 1;
      }
    }
    out[r] = acc;
  }
}

/// Register-blocked compose tile: kBlockRows destination rows by NT
/// destination words, accumulated in registers so each touched b row is
/// loaded once per row block instead of once per set bit. Rows past `nr`
/// are padded duplicates of row 0 (their accumulators are computed and
/// dropped), which keeps the inner loops at compile-time trip counts.
constexpr size_t kBlockRows = 4;

template <size_t NT>
void ComposeTile(const uint64_t* const (&arow)[kBlockRows], size_t nr,
                 size_t a_wpr, const uint64_t* b, size_t b_wpr, size_t t0,
                 uint64_t* out, size_t r0) {
  uint64_t acc[kBlockRows][NT] = {};
  for (size_t w = 0; w < a_wpr; ++w) {
    const uint64_t w0 = arow[0][w], w1 = arow[1][w];
    const uint64_t w2 = arow[2][w], w3 = arow[3][w];
    uint64_t live = w0 | w1 | w2 | w3;
    const uint64_t* bbase = b + (w * 64) * b_wpr + t0;
    while (live) {
      const size_t j = static_cast<size_t>(__builtin_ctzll(live));
      live &= live - 1;
      const uint64_t* brow = bbase + j * b_wpr;
      uint64_t bv[NT];
      for (size_t t = 0; t < NT; ++t) bv[t] = brow[t];
      const uint64_t m0 = -((w0 >> j) & 1);
      const uint64_t m1 = -((w1 >> j) & 1);
      const uint64_t m2 = -((w2 >> j) & 1);
      const uint64_t m3 = -((w3 >> j) & 1);
      for (size_t t = 0; t < NT; ++t) {
        acc[0][t] |= bv[t] & m0;
        acc[1][t] |= bv[t] & m1;
        acc[2][t] |= bv[t] & m2;
        acc[3][t] |= bv[t] & m3;
      }
    }
  }
  for (size_t k = 0; k < nr; ++k) {
    for (size_t t = 0; t < NT; ++t) out[(r0 + k) * b_wpr + t0 + t] = acc[k][t];
  }
}

/// `a` is a_rows rows of a_wpr words; `b` has one row of b_wpr words per
/// column index of `a` that can be set; `out` is a_rows * b_wpr words.
void Compose(const uint64_t* a, size_t a_rows, size_t a_wpr,
             const uint64_t* b, size_t b_wpr, uint64_t* out) {
  if (a_rows == 0 || b_wpr == 0) return;
  if (a_wpr == 0) {
    std::memset(out, 0, a_rows * b_wpr * sizeof(uint64_t));
    return;
  }
  if (b_wpr == 1) {
    ComposeNarrow(a, a_rows, a_wpr, b, out);
    return;
  }
  constexpr size_t kTile = 4;
  for (size_t r0 = 0; r0 < a_rows; r0 += kBlockRows) {
    const size_t nr = a_rows - r0 < kBlockRows ? a_rows - r0 : kBlockRows;
    const uint64_t* arow[kBlockRows];
    for (size_t k = 0; k < kBlockRows; ++k) {
      arow[k] = a + (r0 + (k < nr ? k : 0)) * a_wpr;
    }
    for (size_t t0 = 0; t0 < b_wpr; t0 += kTile) {
      const size_t nt = b_wpr - t0 < kTile ? b_wpr - t0 : kTile;
      switch (nt) {
        case 1:
          ComposeTile<1>(arow, nr, a_wpr, b, b_wpr, t0, out, r0);
          break;
        case 2:
          ComposeTile<2>(arow, nr, a_wpr, b, b_wpr, t0, out, r0);
          break;
        case 3:
          ComposeTile<3>(arow, nr, a_wpr, b, b_wpr, t0, out, r0);
          break;
        default:
          ComposeTile<4>(arow, nr, a_wpr, b, b_wpr, t0, out, r0);
          break;
      }
    }
  }
}

}  // namespace

void BitMatrixView::ComposeIntoWords(const BitMatrixView& a,
                                     const BitMatrixView& b, uint64_t* out) {
  assert(a.cols() == b.rows());
#ifndef NDEBUG
  const size_t out_words = a.rows_ * b.words_per_row();
  TREENUM_CHECK(
      !WordRangesOverlap(out, out_words, a.words_, a.rows_ * a.words_per_row_),
      "ComposeIntoWords destination overlaps the left operand");
  TREENUM_CHECK(
      !WordRangesOverlap(out, out_words, b.words_,
                         b.rows_ * b.words_per_row_),
      "ComposeIntoWords destination overlaps the right operand");
#endif
  Compose(a.words_, a.rows_, a.words_per_row_, b.words_, b.words_per_row(),
          out);
}

void BitMatrixView::ComposeNaiveIntoWords(const BitMatrixView& a,
                                          const BitMatrixView& b,
                                          uint64_t* out) {
  assert(a.cols() == b.rows());
  const size_t wpr = b.words_per_row();
  if (a.rows() * wpr != 0) {
    std::memset(out, 0, a.rows() * wpr * sizeof(uint64_t));
  }
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t m = 0; m < a.cols(); ++m) {
      if (!a.Get(r, m)) continue;
      for (size_t c = 0; c < b.cols(); ++c) {
        if (b.Get(m, c)) out[r * wpr + c / 64] |= uint64_t{1} << (c % 64);
      }
    }
  }
}

}  // namespace treenum
