// Bit-packed Boolean matrices used to represent the ∪-reachability relations
// R(B', B) of Section 6 of the paper. Composition of relations (the
// complexity kernel the paper bounds by O(w^ω)) is implemented word-parallel,
// i.e. in O(rows * cols / 64) per row pair.
//
// A relation is a BitMatrixView: a borrowed (words, rows, cols) view over
// word-aligned storage — the jump index's pooled blocks
// (enumeration/index.h) and the cursors' word stacks
// (enumeration/box_enum.h). Composition writes straight into such storage.
#ifndef TREENUM_UTIL_BIT_MATRIX_H_
#define TREENUM_UTIL_BIT_MATRIX_H_

#include <cstdint>
#include <cstddef>

namespace treenum {

/// A borrowed rows x cols view over 64-bit packed rows (each row occupies
/// ceil(cols / 64) words; bits past `cols` are zero). Never owns memory;
/// invalidated by whatever invalidates the underlying storage.
///
/// Semantics throughout the enumeration module: entry (r, c) of the view
/// standing for relation R(B', B) is true iff the r-th ∪-gate of box B' has
/// a path of ∪-gates to the c-th ∪-gate of box B (the relation "g' ∪⇝ g").
class BitMatrixView {
 public:
  BitMatrixView() = default;
  BitMatrixView(const uint64_t* words, size_t rows, size_t cols)
      : words_(words),
        rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t words_per_row() const { return words_per_row_; }
  const uint64_t* Row(size_t r) const { return words_ + r * words_per_row_; }

  bool Get(size_t r, size_t c) const {
    return (Row(r)[c / 64] >> (c % 64)) & 1u;
  }

  /// Relational composition out(r, c) = ∃m a(r, m) && b(m, c), written as
  /// a.rows() * b.words_per_row() words. Requires a.cols() == b.rows().
  /// `out` must NOT alias either operand's storage (the blocked path
  /// re-reads operand rows after writing `out`; the precondition is
  /// TREENUM_CHECKed in debug builds).
  /// OVERWRITE semantics: every word of `out` is written — accumulators
  /// start at zero — so callers need not pre-zero the block. Tail bits of
  /// `out` rows stay zero because b's tail bits are zero. Used by the jump
  /// index and the box-enum steps to compose directly into their storage.
  static void ComposeIntoWords(const BitMatrixView& a, const BitMatrixView& b,
                               uint64_t* out);

  /// The same product by a cubic bit-by-bit loop, with the same shape and
  /// overwrite contract: the oracle ComposeIntoWords is tested and
  /// benchmarked against.
  static void ComposeNaiveIntoWords(const BitMatrixView& a,
                                    const BitMatrixView& b, uint64_t* out);

 private:
  const uint64_t* words_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_row_ = 0;
};

}  // namespace treenum

#endif  // TREENUM_UTIL_BIT_MATRIX_H_
