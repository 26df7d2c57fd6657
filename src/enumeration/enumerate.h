// Duplicate-free enumeration of S(Γ) with provenance (Algorithm 2,
// Theorem 5.3), as a pull-style cursor.
//
// For each interesting box produced by box-enum, the cursor first emits the
// assignments of related var-gates, then recursively enumerates the left
// and right factors of the related ×-gates, combining them and computing
// the provenance Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)} that drives the recursive
// filtering (lines 8-16 of Algorithm 2).
#ifndef TREENUM_ENUMERATION_ENUMERATE_H_
#define TREENUM_ENUMERATION_ENUMERATE_H_

#include <memory>
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

/// Which box-enum implementation the cursor uses.
enum class BoxEnumMode { kIndexed, kNaive };

/// Cursor enumerating S(Γ) without duplicates for a boxed set Γ (dense
/// ∪-gate indices at `box`). `index` may be null in kNaive mode.
class AssignmentCursor {
 public:
  AssignmentCursor(const AssignmentCircuit* circuit, const EnumIndex* index,
                   BoxEnumMode mode, TermNodeId box,
                   std::vector<uint32_t> gamma);

  /// Produces the next assignment; false when exhausted.
  bool Next(EnumOutput* out);

  /// Elementary-step counter (delay accounting).
  size_t steps() const;

 private:
  enum class Stage { kNextBox, kEmitVars, kPullLeft, kPullRight, kDone };

  std::unique_ptr<BoxEnumCursor> MakeBoxEnum(TermNodeId box,
                                             const std::vector<uint32_t>& g);
  void PrepareBox();
  void SetupLeft();
  bool SetupRight();

  const AssignmentCircuit* circuit_;
  const EnumIndex* index_;
  BoxEnumMode mode_;
  TermNodeId box_;
  std::vector<uint32_t> gamma_;
  size_t prov_words_;

  std::unique_ptr<BoxEnumCursor> box_enum_;
  Stage stage_ = Stage::kNextBox;

  // Current interesting box.
  BoxRelation cur_;
  // Non-empty-row scratch for PrepareBox (reused across boxes).
  std::vector<uint32_t> rows_scratch_;
  // Var agenda: (mask index, provenance) in deterministic order.
  std::vector<std::pair<uint32_t, std::vector<uint64_t>>> var_agenda_;
  size_t var_pos_ = 0;
  // Cross agenda: local ×-gate id → provenance base; involved gate list.
  std::vector<uint32_t> crosses_;
  std::vector<std::vector<uint64_t>> cross_prov_;
  // Left recursion.
  std::vector<uint32_t> gamma_left_;
  std::vector<int32_t> left_pos_;  // left child dense ∪-gate -> ΓL position
  std::unique_ptr<AssignmentCursor> left_cursor_;
  EnumOutput left_out_;
  // Right recursion (depends on the current left output).
  std::vector<uint32_t> crosses_left_;  // G×': crosses compatible with SL
  std::vector<uint32_t> gamma_right_;
  std::vector<int32_t> right_pos_;
  std::unique_ptr<AssignmentCursor> right_cursor_;

  size_t local_steps_ = 0;
};

/// Convenience: run a cursor to completion and return all assignments
/// (sorted). Used by tests.
std::vector<Assignment> CollectAll(AssignmentCursor& cursor);

}  // namespace treenum

#endif  // TREENUM_ENUMERATION_ENUMERATE_H_
