// box-enum (§5/§6): enumerate, for a boxed set Γ, every interesting box B'
// (those containing var- or ×-gates ∪-reachable from Γ) together with the
// complete ∪-reachability relation R(B', Γ), each box exactly once, either
// by Algorithm 3 (kIndexed: jumps via the fib/span index, delay O(poly(w))
// independent of the circuit depth, Lemma 6.4) or by plain descent
// (kNaive: delay O(depth × poly(w)), the correctness oracle).
//
// A BoxEnum owns no memory: its frames live in the EnumStack of the cursor
// running it, shared by the box-enums of all the cursor's levels
// (enumeration/enumerate.h). A frame keeps R(box, Γ) by its non-empty rows
// (⌈|Γ|/64⌉ words each) and a bitmap of which ∪-gates they belong to, then
// one word for the box, the kind and a walk frame's cached span candidate.
// A step unpacks the popped relation on top of the stack and composes with
// BitMatrixView::ComposeIntoWords in place; it ends with its output
// R(B', Γ), dense, right above the frames, and Next() first pops
// everything above them.
#ifndef TREENUM_ENUMERATION_BOX_ENUM_H_
#define TREENUM_ENUMERATION_BOX_ENUM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "enumeration/index.h"
#include "util/bit_matrix.h"

namespace treenum {

/// True iff one of the `n` words at `w` is non-zero.
inline bool AnyWord(const uint64_t* w, size_t n) {
  return std::any_of(w, w + n, [](uint64_t x) { return x != 0; });
}

/// A position-map entry for a ∪-gate outside Γ.
inline constexpr uint64_t kNoPosition = ~uint64_t{0};

/// Which box-enum strategy a cursor uses.
enum class BoxEnumMode { kIndexed, kNaive };

/// A cursor's word stack, with the circuit, index (null in kNaive mode),
/// mode and step counter its box-enums read. Push hands out offsets; a
/// pointer from at() lives until the next Push. The first push allocates
/// kLevelBlockWords per level a first-order answer of k variables keeps
/// live (2k − 1); the stack then doubles when full and never shrinks.
class EnumStack {
 public:
  /// 960 bytes: on glibc a request of 1,024 bytes or more takes the
  /// large-chunk path, which first consolidates the fastbins.
  static constexpr size_t kLevelBlockWords = 120;

  EnumStack(const AssignmentCircuit* circuit, const EnumIndex* index,
            BoxEnumMode mode)
      : circuit_(circuit),
        index_(index),
        mode_(mode),
        first_block_(kLevelBlockWords *
                     std::max<size_t>(1, 2 * circuit->tva().num_vars() - 1)) {}

  const AssignmentCircuit& circuit() const { return *circuit_; }
  const EnumIndex& index() const { return *index_; }
  BoxEnumMode mode() const { return mode_; }

  /// Elementary steps (compositions, box visits, agenda rows, answers).
  size_t steps() const { return steps_; }
  void Step() { ++steps_; }
  void ClearSteps() { steps_ = 0; }

  uint32_t top() const { return top_; }
  /// Pushes `n` uninitialized words; returns their offset.
  uint32_t Push(size_t n) {
    if (top_ + n > words_.size()) {
      words_.resize(std::max({2 * words_.size(), top_ + n, first_block_}));
    }
    const uint32_t off = top_;
    top_ += static_cast<uint32_t>(n);
    return off;
  }
  /// Pops every word at or above `mark`.
  void Rewind(uint32_t mark) { top_ = mark; }
  uint64_t* at(uint32_t off) { return words_.data() + off; }
  const uint64_t* at(uint32_t off) const { return words_.data() + off; }

 private:
  const AssignmentCircuit* circuit_;
  const EnumIndex* index_;
  BoxEnumMode mode_;
  size_t first_block_;
  uint32_t top_ = 0;
  size_t steps_ = 0;
  std::vector<uint64_t> words_;
};

/// One box-enumeration over an EnumStack; a trivial type, set by Start.
class BoxEnum {
 public:
  /// Starts on a non-empty Γ of `cols` positions at `box`, given by the
  /// position map at `pos`: one word per ∪-gate of the box, its position
  /// in Γ or kNoPosition.
  void Start(EnumStack* st, TermNodeId box, uint32_t pos, size_t cols);

  /// Produces the next interesting box; false when exhausted.
  bool Next(EnumStack* st);

  /// The current interesting box.
  TermNodeId box() const { return cur_box_; }
  /// R(box(), Γ): rows = its ∪-gates, cols = Γ positions.
  BitMatrixView rel(const EnumStack& st) const {
    return BitMatrixView(st.at(top_), cur_rows_, cols_);
  }
  /// One past rel(): where the caller's per-box words start.
  uint32_t end() const {
    return static_cast<uint32_t>(top_ + cur_rows_ * ((cols_ + 63) / 64));
  }

 private:
  bool NextIndexed(EnumStack* st);
  bool NextNaive(EnumStack* st);
  /// Ends a step: the frames pushed after the `rel_words` words at `rel`
  /// move down to `frames_top`, those words right above them.
  void Settle(EnumStack* st, uint32_t frames_top, uint32_t rel,
              size_t rel_words);

  uint32_t base_;  ///< First frame word.
  uint32_t top_;   ///< One past the last frame word.
  uint32_t cols_;
  TermNodeId cur_box_;
  uint32_t cur_rows_;
};

}  // namespace treenum

#endif  // TREENUM_ENUMERATION_BOX_ENUM_H_
