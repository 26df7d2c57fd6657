// box-enum (§5/§6): enumerate, for a boxed set Γ, every interesting box B'
// (those containing var- or ×-gates ∪-reachable from Γ) together with the
// complete ∪-reachability relation R(B', Γ), each box exactly once.
//
// Two implementations share an interface:
//  * IndexedBoxEnum — Algorithm 3, jumping via the fib/span index with delay
//    O(poly(w)) independent of the circuit depth (Lemma 6.4);
//  * NaiveBoxEnum — plain descent through the tree of boxes maintaining the
//    relation, delay O(depth × poly(w)); the stand-in for the pre-index
//    state of the art and the correctness oracle for the indexed version.
//
// Both cursors recycle their stack frames' relation matrices: a pop swaps
// the relation into a scratch slot and a push composes into the retained
// buffer of a previously vacated slot, so after a warm-up traversal the
// per-result delay work performs no heap allocations (asserted with the
// allocation gauge in tests/flat_storage_test.cpp). Reset() rewinds a
// cursor for a fresh enumeration while keeping all warm storage.
#ifndef TREENUM_ENUMERATION_BOX_ENUM_H_
#define TREENUM_ENUMERATION_BOX_ENUM_H_

#include <vector>

#include "circuit/circuit.h"
#include "enumeration/index.h"
#include "util/bit_matrix.h"

namespace treenum {

/// One output of box-enum: an interesting box and R(box, Γ)
/// (rows = the box's dense ∪-gates, cols = positions in the original Γ).
struct BoxRelation {
  TermNodeId box;
  BitMatrix rel;
};

/// Pull-style cursor interface.
class BoxEnumCursor {
 public:
  virtual ~BoxEnumCursor() = default;
  /// Produces the next interesting box; false when exhausted.
  virtual bool Next(BoxRelation* out) = 0;
  /// Rewinds to a fresh enumeration of Γ (dense ∪-gate indices at `box`,
  /// non-empty), reusing all warm storage.
  virtual void Reset(TermNodeId box, const std::vector<uint32_t>& gamma) = 0;
  /// Number of elementary steps taken so far (delay accounting for tests
  /// and benchmarks; one step = one relation composition or box visit).
  size_t steps() const { return steps_; }

 protected:
  size_t steps_ = 0;
};

/// Algorithm 3 with an explicit stack (tail-call-free by construction).
class IndexedBoxEnum : public BoxEnumCursor {
 public:
  /// Starts the enumeration for the boxed set Γ given as dense ∪-gate
  /// indices in `box` (non-empty).
  IndexedBoxEnum(const EnumIndex* index, TermNodeId box,
                 const std::vector<uint32_t>& gamma);

  bool Next(BoxRelation* out) override;
  void Reset(TermNodeId box, const std::vector<uint32_t>& gamma) override;

 private:
  struct Frame {
    enum Kind { kEnter, kWalk } kind;
    TermNodeId box;
    BitMatrix rel;  // R(box, Γ)
  };

  /// Vacates-or-grows the next stack slot; the returned frame keeps the
  /// warm relation buffer of whatever occupied the slot before.
  Frame& PushSlot();

  const EnumIndex* index_;
  std::vector<Frame> stack_;  ///< Slots [0, top_) are live.
  size_t top_ = 0;
  BitMatrix frel_;  ///< The popped frame's relation (swap target).
  BitMatrix rj_;    ///< Walk-step scratch relation.
  std::vector<uint32_t> gates_;
  std::vector<uint32_t> walk_gates_;
};

/// Reference implementation without the index: preorder descent.
class NaiveBoxEnum : public BoxEnumCursor {
 public:
  NaiveBoxEnum(const AssignmentCircuit* circuit, TermNodeId box,
               const std::vector<uint32_t>& gamma);

  bool Next(BoxRelation* out) override;
  void Reset(TermNodeId box, const std::vector<uint32_t>& gamma) override;

 private:
  struct Frame {
    TermNodeId box;
    BitMatrix rel;
  };

  Frame& PushSlot();

  const AssignmentCircuit* circuit_;
  std::vector<Frame> stack_;  ///< Slots [0, top_) are live.
  size_t top_ = 0;
  BitMatrix frel_;
  BitMatrix wire_;  ///< WireRelationInto scratch.
  std::vector<uint32_t> gates_;
};

/// Writes the initial relation {(g, g) | g ∈ Γ} (rows = box ∪-gates, cols =
/// Γ positions) into `out`.
void InitialRelationInto(size_t num_unions, const std::vector<uint32_t>& gamma,
                         BitMatrix* out);

/// Writes the wire relation R(child, box) computed from the circuit (for
/// NaiveBoxEnum) into `out`; side 0 = left.
void WireRelationInto(const AssignmentCircuit& circuit, TermNodeId box,
                      int side, BitMatrix* out);

}  // namespace treenum

#endif  // TREENUM_ENUMERATION_BOX_ENUM_H_
