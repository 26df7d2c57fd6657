// Duplicate-free enumeration of S(Γ) with provenance (Algorithm 2,
// Theorem 5.3), as a pull-style cursor: for each interesting box produced
// by box-enum, emit the assignments of related var-gates, then enumerate
// the left and right factors of the related ×-gates, combining them and
// computing the provenance Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)} that drives the
// recursive filtering (lines 8-16 of Algorithm 2).
//
// The recursion runs over an explicit stack of levels in the cursor's one
// EnumStack (box_enum.h). A level enumerates S(Γ') at one box: a header
// (copied in and out with memcpy), its output provenance, its box-enum
// frames, then the current box's agenda. A ×-recursion pushes a left
// level; for each left output it pushes G×' and a right level in the same
// place. The live levels form a binary tree in preorder, at most the
// term's height deep, whose leaves are the var-gates of the current
// answer; the level being run is always the last. Reset() rewinds the
// stack and keeps its capacity; a fresh cursor allocates its first block
// (960 bytes for a unary query) at its first push, and again only if the
// enumeration outgrows it. Answers go into caller-owned buffers.
#ifndef TREENUM_ENUMERATION_ENUMERATE_H_
#define TREENUM_ENUMERATION_ENUMERATE_H_

#include <cstring>
#include <type_traits>
#include <vector>

#include "circuit/circuit.h"
#include "enumeration/box_enum.h"
#include "enumeration/index.h"
#include "trees/assignment.h"

namespace treenum {

/// One enumerated element of S(Γ): the assignment as per-leaf variable-mask
/// contributions, plus its provenance as a bitset over Γ positions.
struct EnumOutput {
  std::vector<std::pair<VarMask, NodeId>> contributions;
  std::vector<uint64_t> provenance;

  Assignment ToAssignment() const;
};

/// Cursor enumerating S(Γ) without duplicates for a boxed set Γ (dense
/// ∪-gate indices at a box). `index` may be null in kNaive mode.
class AssignmentCursor {
 public:
  /// An exhausted cursor, holding no storage until a Reset.
  AssignmentCursor(const AssignmentCircuit* circuit, const EnumIndex* index,
                   BoxEnumMode mode)
      : stack_(circuit, index, mode) {}
  AssignmentCursor(const AssignmentCircuit* circuit, const EnumIndex* index,
                   BoxEnumMode mode, TermNodeId box,
                   const std::vector<uint32_t>& gamma);

  /// Restarts on Γ = `gamma` at `box` (empty: no answers), keeping the
  /// storage.
  void Reset(TermNodeId box, const std::vector<uint32_t>& gamma);
  /// Same, with Γ = the ∪-gates at `box` of the states set in `states`.
  void ResetToStates(TermNodeId box, const uint64_t* states);

  /// Advances to the next assignment; false when exhausted.
  bool Next();
  /// Advances and writes the answer into `out`, reusing its vectors.
  bool Next(EnumOutput* out);
  /// Writes the current answer into `out` in place, normalized.
  void ReadInto(Assignment* out) const;

  /// Elementary-step counter (delay accounting) since the last Reset.
  size_t steps() const { return stack_.steps(); }

 private:
  enum Stage : uint32_t { kNextBox, kEmitVars, kPullLeft, kPullRight };
  static constexpr uint32_t kNoLevel = ~uint32_t{0};

  /// A level's header, followed by its provenance (pw words). At
  /// boxes.end(): var and ×-gate accumulators (pw words each), the related
  /// ×-gate ids, the left child's position map. At `right`, after the left
  /// factor's levels: G×' and the right child's position map.
  struct Level {
    uint32_t prev;    ///< The level pushed just before (kNoLevel: root).
    uint32_t parent;  ///< kNoLevel for the root.
    Stage stage;
    uint32_t pw;  ///< Provenance words, ⌈|Γ'|/64⌉.
    BoxEnum boxes;
    uint32_t nvar, ncross, var_pos, ncrosses, right, nright;
  };
  static_assert(std::is_trivial_v<Level>, "levels are copied as words");
  static constexpr uint32_t kLevelWords = (sizeof(Level) + 7) / 8;

  Level LoadLevel(uint32_t at) const {
    Level lv;
    std::memcpy(&lv, stack_.at(at), sizeof lv);
    return lv;
  }
  void StoreLevel(uint32_t at, const Level& lv) {
    std::memcpy(stack_.at(at), &lv, sizeof lv);
  }
  static uint32_t Crosses(const Level& lv) {
    return lv.boxes.end() + (lv.nvar + lv.ncross) * lv.pw;
  }
  template <typename F>
  void ForEachContribution(F f) const;

  /// Rewinds and pushes an empty position map (∪-gate → Γ position).
  uint32_t Clear(TermNodeId box);
  /// Pushes the `side` factor's level, whose Γ' is the child ∪-gates the n
  /// ×-gate ids at `ids` read, numbered in order of first use.
  void PushFactor(uint32_t at, Level* lv, int side, uint32_t ids, uint32_t n);
  /// Pushes the last level, at `box`, for the Γ' mapped at `pos`.
  void PushLevel(uint32_t parent, TermNodeId box, uint32_t pos, size_t cols);
  void PrepareBox(Level* lv);
  bool EmitVar(uint32_t at, Level* lv);
  void PushRight(uint32_t at, Level* lv, uint32_t child);
  void CombineRight(uint32_t at, const Level& lv, uint32_t child);

  EnumStack stack_;
  uint32_t root_ = kNoLevel;
  uint32_t last_ = kNoLevel;  ///< The level being run: the last one pushed.
};

}  // namespace treenum

#endif  // TREENUM_ENUMERATION_ENUMERATE_H_
