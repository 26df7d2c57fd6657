// Bit-packed Boolean matrices used to represent the ∪-reachability relations
// R(B', B) of Section 6 of the paper. Composition of relations (the
// complexity kernel the paper bounds by O(w^ω)) is implemented word-parallel,
// i.e. in O(rows * cols / 64) per row pair.
//
// Two representations share the kernels:
//  * BitMatrix — owning (vector-backed, 64-byte-aligned), used for the
//    relations that cursors thread through their stacks;
//  * BitMatrixView — a borrowed (words, rows, cols) view over word-aligned
//    storage, used for the relations inside the jump index's pooled blocks
//    (enumeration/index.h) and to run the kernels without copying. A
//    BitMatrix converts implicitly.
//
// Every scan/union/zero/compose below bottoms out in the runtime-dispatched
// word-block kernels of util/simd_kernels.h (scalar / AVX2 / AVX-512, picked
// once per process), so both representations share one implementation per
// primitive.
#ifndef TREENUM_UTIL_BIT_MATRIX_H_
#define TREENUM_UTIL_BIT_MATRIX_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "util/aligned_alloc.h"

namespace treenum {

class BitMatrix;

/// A borrowed rows x cols view over 64-bit packed rows (each row occupies
/// ceil(cols / 64) words; bits past `cols` are zero). Never owns memory;
/// invalidated by whatever invalidates the underlying storage.
class BitMatrixView {
 public:
  BitMatrixView() = default;
  BitMatrixView(const uint64_t* words, size_t rows, size_t cols)
      : words_(words),
        rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64) {}
  BitMatrixView(const BitMatrix& m);  // NOLINT: implicit by design

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t words_per_row() const { return words_per_row_; }
  const uint64_t* Row(size_t r) const { return words_ + r * words_per_row_; }

  bool Get(size_t r, size_t c) const {
    return (Row(r)[c / 64] >> (c % 64)) & 1u;
  }
  /// True iff some entry in row r is set.
  bool RowAny(size_t r) const;
  /// True iff any entry is set.
  bool Any() const;
  /// Number of set entries.
  size_t Count() const;

  /// Appends-free variant of NonEmptyRows: clears `out` and fills it with
  /// the indices of rows having at least one set entry.
  void NonEmptyRowsInto(std::vector<uint32_t>* out) const;

  /// Relational composition into a reused owning matrix: reshapes `result`
  /// to rows() x other.cols() (keeping its capacity) and writes
  /// result(a, c) = ∃b this(a, b) && other(b, c). Requires cols() ==
  /// other.rows() and `result` distinct from both operands' storage.
  void ComposeInto(const BitMatrixView& other, BitMatrix* result) const;

  /// Low-level composition kernel: `out` must point at
  /// a.rows() * b.words_per_row() words that do NOT alias either operand's
  /// storage (the blocked kernel re-reads operand rows after writing `out`;
  /// the precondition is TREENUM_CHECKed in debug builds).
  /// OVERWRITE semantics: every word of `out` is written — accumulators
  /// start at zero inside the kernel — so callers need not pre-zero the
  /// block. Used by the jump index to compose directly into its blocks.
  static void ComposeIntoWords(const BitMatrixView& a, const BitMatrixView& b,
                               uint64_t* out);

 private:
  const uint64_t* words_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_row_ = 0;
};

/// A dense rows x cols Boolean matrix with 64-bit packed rows.
///
/// Semantics throughout the enumeration module: entry (r, c) of the matrix
/// standing for relation R(B', B) is true iff the r-th ∪-gate of box B' has a
/// path of ∪-gates to the c-th ∪-gate of box B (the relation "g' ∪⇝ g").
class BitMatrix {
 public:
  BitMatrix() : rows_(0), cols_(0), words_per_row_(0) {}
  BitMatrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64),
        bits_(rows * words_per_row_, 0) {}

  /// The identity relation over n elements.
  static BitMatrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Reshapes to rows x cols and zeroes every entry, reusing the existing
  /// heap buffer whenever its capacity suffices (the cursors' steady-state
  /// allocation-free path).
  void Assign(size_t rows, size_t cols);

  void swap(BitMatrix& other) {
    std::swap(rows_, other.rows_);
    std::swap(cols_, other.cols_);
    std::swap(words_per_row_, other.words_per_row_);
    bits_.swap(other.bits_);
  }

  bool Get(size_t r, size_t c) const {
    return (bits_[r * words_per_row_ + c / 64] >> (c % 64)) & 1u;
  }
  void Set(size_t r, size_t c, bool v = true) {
    uint64_t& w = bits_[r * words_per_row_ + c / 64];
    if (v) {
      w |= (uint64_t{1} << (c % 64));
    } else {
      w &= ~(uint64_t{1} << (c % 64));
    }
  }

  /// True iff some entry in row r is set.
  bool RowAny(size_t r) const;
  /// True iff any entry is set.
  bool Any() const;
  /// Number of set entries.
  size_t Count() const;

  /// Relational composition: result(a, c) = ∃b this(a, b) && other(b, c).
  /// Requires cols() == other.rows().
  BitMatrix Compose(const BitMatrixView& other) const;
  /// Allocation-reusing variant; see BitMatrixView::ComposeInto.
  void ComposeInto(const BitMatrixView& other, BitMatrix* result) const;

  /// The set of row indices with at least one set entry ("π1" of the
  /// relation, as used in Algorithms 2 and 3).
  std::vector<uint32_t> NonEmptyRows() const;
  /// Reuse variant: clears `out` and fills it with the non-empty rows.
  void NonEmptyRowsInto(std::vector<uint32_t>* out) const;

  /// Row r as a bitset over column indices (words_per_row() words).
  const uint64_t* Row(size_t r) const { return &bits_[r * words_per_row_]; }
  uint64_t* MutableRow(size_t r) { return &bits_[r * words_per_row_]; }
  size_t words_per_row() const { return words_per_row_; }

  bool operator==(const BitMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           bits_ == other.bits_;
  }

  /// Debug rendering as '0'/'1' rows.
  std::string ToString() const;

 private:
  friend class BitMatrixView;

  /// Reshapes to rows x cols WITHOUT zeroing: entry values are unspecified
  /// afterwards. Only for callers about to overwrite every word (the
  /// compose path — see ComposeIntoWords' overwrite semantics).
  void ReshapeUninit(size_t rows, size_t cols);

  size_t rows_;
  size_t cols_;
  size_t words_per_row_;
  AlignedWordVector bits_;
};

inline BitMatrixView::BitMatrixView(const BitMatrix& m)
    : words_(m.rows() == 0 ? nullptr : m.Row(0)),
      rows_(m.rows()),
      cols_(m.cols()),
      words_per_row_(m.words_per_row()) {}

/// Naive cubic composition used as a test oracle for BitMatrix::Compose.
BitMatrix ComposeNaive(const BitMatrix& a, const BitMatrix& b);

}  // namespace treenum

#endif  // TREENUM_UTIL_BIT_MATRIX_H_
