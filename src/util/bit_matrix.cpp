#include "util/bit_matrix.h"

#include <cassert>

#include "util/check.h"
#include "util/simd_kernels.h"

namespace treenum {

namespace {

// One guarded static lookup per call site; the table itself is resolved
// once per process (cpuid + TREENUM_SIMD, see util/simd_kernels.h).
const BitKernels& K() {
  static const BitKernels& k = ActiveKernels();
  return k;
}

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

}  // namespace

// ---------------------------------------------------------------- View

bool BitMatrixView::RowAny(size_t r) const {
  return K().any(Row(r), words_per_row_);
}

bool BitMatrixView::Any() const {
  return K().any(words_, rows_ * words_per_row_);
}

size_t BitMatrixView::Count() const {
  return K().popcount(words_, rows_ * words_per_row_);
}

void BitMatrixView::NonEmptyRowsInto(std::vector<uint32_t>* out) const {
  out->clear();
  for (size_t r = 0; r < rows_; ++r) {
    if (RowAny(r)) out->push_back(static_cast<uint32_t>(r));
  }
}

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
  K().compose(a.words_, a.rows_, a.words_per_row_, b.words_, b.words_per_row(),
              out);
}

void BitMatrixView::ComposeInto(const BitMatrixView& other,
                                BitMatrix* result) const {
  // The kernel overwrites the whole destination block, so the reshape can
  // skip the zero-fill the old code paid through Assign.
  result->ReshapeUninit(rows_, other.cols());
  if (rows_ == 0 || other.cols() == 0) return;
  ComposeIntoWords(*this, other, result->MutableRow(0));
}

// -------------------------------------------------------------- Matrix

BitMatrix BitMatrix::Identity(size_t n) {
  BitMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.Set(i, i);
  return m;
}

void BitMatrix::Assign(size_t rows, size_t cols) {
  ReshapeUninit(rows, cols);
  K().zero(bits_.data(), bits_.size());
}

void BitMatrix::ReshapeUninit(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  words_per_row_ = (cols + 63) / 64;
  const size_t n = rows * words_per_row_;
  // Exact-capacity growth (reserve, not resize's geometric policy): cursor
  // buffers circulate between stack slots of different sizes, and the
  // steady-state allocation-freeness tests rely on capacities converging to
  // the per-slot maxima in a bounded number of passes. Retained words keep
  // stale values — callers overwrite or zero every word.
  if (n > bits_.capacity()) bits_.reserve(n);
  bits_.resize(n);
}

bool BitMatrix::RowAny(size_t r) const {
  return K().any(Row(r), words_per_row_);
}

bool BitMatrix::Any() const { return K().any(bits_.data(), bits_.size()); }

size_t BitMatrix::Count() const {
  return K().popcount(bits_.data(), bits_.size());
}

BitMatrix BitMatrix::Compose(const BitMatrixView& other) const {
  BitMatrix result;
  BitMatrixView(*this).ComposeInto(other, &result);
  return result;
}

void BitMatrix::ComposeInto(const BitMatrixView& other,
                            BitMatrix* result) const {
  assert(result != this);
  BitMatrixView(*this).ComposeInto(other, result);
}

std::vector<uint32_t> BitMatrix::NonEmptyRows() const {
  std::vector<uint32_t> out;
  for (size_t r = 0; r < rows_; ++r) {
    if (RowAny(r)) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

void BitMatrix::NonEmptyRowsInto(std::vector<uint32_t>* out) const {
  BitMatrixView(*this).NonEmptyRowsInto(out);
}

std::string BitMatrix::ToString() const {
  std::string s;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) s += Get(r, c) ? '1' : '0';
    s += '\n';
  }
  return s;
}

BitMatrix ComposeNaive(const BitMatrix& a, const BitMatrix& b) {
  assert(a.cols() == b.rows());
  BitMatrix result(a.rows(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t m = 0; m < a.cols(); ++m) {
      if (!a.Get(r, m)) continue;
      for (size_t c = 0; c < b.cols(); ++c) {
        if (b.Get(m, c)) result.Set(r, c);
      }
    }
  }
  return result;
}

}  // namespace treenum
