// Set circuits (§3 of the paper), specialized to the shape produced by the
// construction of Lemma 3.7: a complete structured DNNF whose v-tree is the
// input term, with one box per term node.
//
// Gate inventory per box B_n (n a term node, A = (Q, ι, δ, F) homogenized):
//   * for each state q, γ(n, q) is ⊥, ⊤, or a ∪-gate (at most |Q| ∪-gates);
//   * ×-gates д^{q1,q2} with left input γ(left(n), q1) and right input
//     γ(right(n), q2), shared across result states (≤ w² per box);
//   * var-gates ⟨Y : n⟩ in leaf boxes, shared across states (Svar injective).
//
// Wires therefore go only (same box) var/×-gate → ∪-gate, child-box ∪-gate →
// ×-gate, and — through the ⊤-collapse rule that keeps ⊤-gates from being
// inputs — child-box ∪-gate → ∪-gate. The last kind forms the long ∪-chains
// that the jump index of §6 exists to skip.
//
// Storage layout: boxes own no heap memory. A box's whole content is one
// block of the circuit's BoxStore (circuit/arena.h), so a refresh makes one
// Ensure and a free one Free. The block holds, back to back:
//   * the ⊤ and ∪ state bitmasks, ⌈w/64⌉ words each: γ(n, q) is two bit
//     tests, and the dense index of γ(n, q) among the box's ∪-gates is the
//     rank of q in the ∪ mask, so dense indices follow ascending state order;
//   * 32-bit lanes sized by the box's gates rather than by w: the ∪-gate →
//     state table, two CSR end offsets per ∪-gate, the ×-gates, the var
//     masks, the local inputs (×-gate ids in an internal box, var-mask
//     indices in a leaf — never both) and the child-∪ inputs.
// A per-box directory entry keeps the block's span and the five counts that
// fix the section offsets (AssignmentCircuit::Layout). The lane sections are
// written with memcpy and read as the types they were written as. A refresh
// thus costs O(|δ_l| + ∪-gates + w/64), not Θ(w).
// `box(id)` returns a cheap Box *view* — invalidated by the next rebuild.
#ifndef TREENUM_CIRCUIT_CIRCUIT_H_
#define TREENUM_CIRCUIT_CIRCUIT_H_

#include <cstdint>
#include <vector>

#include "automata/binary_tva.h"
#include "circuit/arena.h"
#include "falgebra/term.h"

namespace treenum {

enum class GateKind : uint8_t { kBot = 0, kTop = 1, kUnion = 2 };

/// A ×-gate: left input γ(left child, left_state), right input
/// γ(right child, right_state); both are ∪-gates (never ⊤/⊥ by collapse).
struct CrossGate {
  State left_state;
  State right_state;
};

/// A ∪→∪ wire created by ⊤-collapse: side 0 = left child box, 1 = right.
struct ChildUnionInput {
  uint8_t side;
  State state;
};

inline constexpr int32_t kNoGate = -1;

/// True iff state q is set in a state mask.
inline bool HasState(const uint64_t* mask, State q) {
  return (mask[q >> 6] >> (q & 63)) & 1;
}

/// The number of states set in a state mask below q: q's dense index among
/// them when q is set.
inline uint32_t RankBelow(const uint64_t* mask, State q) {
  const uint64_t below = (uint64_t{1} << (q & 63)) - 1;
  uint32_t rank = __builtin_popcountll(mask[q >> 6] & below);
  for (uint32_t i = 0; i < (q >> 6); ++i) rank += __builtin_popcountll(mask[i]);
  return rank;
}

/// Calls f(q) for every state q set in a `words`-word state mask, in
/// ascending order.
template <typename F>
void ForEachState(const uint64_t* mask, uint32_t words, F f) {
  for (uint32_t wi = 0; wi < words; ++wi) {
    for (uint64_t m = mask[wi]; m != 0; m &= m - 1) {
      f(static_cast<State>(wi * 64 + __builtin_ctzll(m)));
    }
  }
}

/// Widest automaton the 32-bit arena offsets support: w² ×-gate ids per box
/// must fit in uint32_t. Enforced by TREENUM_CHECK at circuit construction
/// (the old int16_t/uint16_t layout overflowed silently long before this).
inline constexpr size_t kMaxCircuitWidth = 65535;

/// Per-∪-gate CSR end offsets into the owning box's local-input and child-∪
/// input sections; gate u's inputs occupy [ends[u-1].x_end, ends[u].x_end)
/// with gate -1 ending at 0.
struct GateEnds {
  uint32_t local_end;
  uint32_t child_end;
};

/// A read-only view of one box (= one term node), resolving its block's
/// sections to raw pointers once. Invalidated by the next RebuildBox/FreeBox.
class Box {
 public:
  /// γ(n, q) kind (size of the state axis = automaton state count).
  GateKind gamma(State q) const {
    const uint64_t bit = uint64_t{1} << (q & 63);
    if (union_mask_[q >> 6] & bit) return GateKind::kUnion;
    return (top_mask_[q >> 6] & bit) ? GateKind::kTop : GateKind::kBot;
  }
  /// Dense index of γ(n, q) among this box's ∪-gates, or kNoGate: the
  /// number of ∪-states below q.
  int32_t union_idx(State q) const {
    return HasState(union_mask_, q)
               ? static_cast<int32_t>(RankBelow(union_mask_, q))
               : kNoGate;
  }
  /// The ⊤ and ∪ state bitmasks: ⌈w/64⌉ words each, bit q = state q.
  const uint64_t* top_mask() const { return top_mask_; }
  const uint64_t* union_mask() const { return union_mask_; }
  /// Dense ∪-gate index -> state.
  State union_state(size_t u) const { return union_states_[u]; }
  size_t num_unions() const { return num_unions_; }

  /// Local ×-gates (internal boxes only), deduplicated by (q1, q2).
  Span<CrossGate> cross_gates() const {
    return Span<CrossGate>(cross_gates_, num_cross_gates_);
  }
  const CrossGate& cross_gate(size_t c) const { return cross_gates_[c]; }
  size_t num_cross_gates() const { return num_cross_gates_; }

  /// Per ∪-gate: local ×-gate ids feeding it.
  Span<uint32_t> cross_inputs(size_t u) const {
    return num_var_masks_ == 0 ? LocalInputs(u) : Span<uint32_t>();
  }
  /// Per ∪-gate: child-box ∪-gate inputs created by ⊤-collapse.
  Span<ChildUnionInput> child_union_inputs(size_t u) const {
    uint32_t b = u == 0 ? 0 : ends_[u - 1].child_end;
    return Span<ChildUnionInput>(child_in_ + b, ends_[u].child_end - b);
  }
  /// Per ∪-gate: indices into var_masks().
  Span<uint32_t> var_inputs(size_t u) const {
    return num_var_masks_ != 0 ? LocalInputs(u) : Span<uint32_t>();
  }

  /// Distinct variable masks of this (leaf) box's var-gates.
  Span<VarMask> var_masks() const {
    return Span<VarMask>(var_masks_, num_var_masks_);
  }
  VarMask var_mask(size_t v) const { return var_masks_[v]; }
  size_t num_var_masks() const { return num_var_masks_; }

  bool HasNonUnionInput(size_t u) const { return !LocalInputs(u).empty(); }

 private:
  friend class AssignmentCircuit;

  /// Gate u's local inputs. They are var-mask indices exactly when the box
  /// has var masks (a leaf whose ∪-gates have inputs), else ×-gate ids.
  Span<uint32_t> LocalInputs(size_t u) const {
    uint32_t b = u == 0 ? 0 : ends_[u - 1].local_end;
    return Span<uint32_t>(local_in_ + b, ends_[u].local_end - b);
  }

  const uint64_t* top_mask_ = nullptr;
  const uint64_t* union_mask_ = nullptr;
  const State* union_states_ = nullptr;
  const GateEnds* ends_ = nullptr;
  const CrossGate* cross_gates_ = nullptr;
  const VarMask* var_masks_ = nullptr;
  const uint32_t* local_in_ = nullptr;
  const ChildUnionInput* child_in_ = nullptr;
  uint32_t num_unions_ = 0;
  uint32_t num_cross_gates_ = 0;
  uint32_t num_var_masks_ = 0;
};

/// The assignment circuit of a homogenized binary TVA on a term, maintained
/// incrementally: boxes are (re)computed per term node, bottom-up, into
/// arena-backed flat storage.
class AssignmentCircuit {
 public:
  /// `term`, `tva` and `kind` must outlive the circuit. `kind[q]` says
  /// whether state q is a 1-state (see HomogenizedTva).
  AssignmentCircuit(const Term* term, const BinaryTva* tva,
                    const std::vector<uint8_t>* kind);

  const Term& term() const { return *term_; }
  const BinaryTva& tva() const { return *tva_; }
  /// Width bound w: the automaton's state count.
  size_t width() const { return w_; }

  /// Builds all boxes bottom-up (preprocessing, O(|T| * |A|)), then frees
  /// the buffers its growth retired (no reader can reach it yet).
  void BuildAll();

  /// Recomputes the box of `id` from its children's boxes (Lemma 7.3 step).
  /// Steady-state refreshes reuse the box's block in place.
  void RebuildBox(TermNodeId id);

  /// Drops the box of a freed term node, recycling its block.
  void FreeBox(TermNodeId id) { store_.Free(id); }

  /// Batch hint: pre-grows the pool for ~`boxes` upcoming rebuilds (sized
  /// from the running per-box average), so one transaction's refresh loop
  /// does not re-grow the pool tail repeatedly.
  void ReserveForRebuild(size_t boxes) {
    store_.ReserveForBoxes(boxes, term_->num_alive());
  }

  /// Cheap view of a box; invalidated by the next RebuildBox/FreeBox.
  Box box(TermNodeId id) const;

  /// Total number of gates (for accounting tests/benches).
  size_t CountGates() const;

  /// BoxStore::ReleaseRetired and retired_bytes.
  void ReleaseRetired() { store_.ReleaseRetired(); }
  size_t retired_bytes() const { return store_.retired_bytes(); }

  /// Validates the block invariants: every alive box owns one block whose
  /// length matches its layout, the ⊤ and ∪ masks are disjoint and clear at
  /// and above w, the ∪-state table lists exactly the ∪ mask's bits, the
  /// CSR ends are monotone and cover their sections, no dead box owns a
  /// block, and no two blocks overlap. Returns an empty string if
  /// consistent, else a description of the first violation. (Test hook.)
  std::string ValidateStorage() const;

 private:
  /// Counts that fix the section offsets of one box's block. Lane offsets
  /// count 32-bit lanes from the end of the two masks.
  struct Layout {
    uint32_t nu = 0;      ///< ∪-gates
    uint32_t ncross = 0;  ///< ×-gates (internal boxes)
    uint32_t nvar = 0;    ///< var masks (leaf boxes)
    uint32_t nlocal = 0;  ///< local inputs over all ∪-gates
    uint32_t nchild = 0;  ///< child-∪ inputs over all ∪-gates

    static size_t states_lane() { return 0; }
    size_t ends_lane() const { return nu; }
    size_t cross_lane() const { return 3 * size_t{nu}; }
    size_t var_lane() const { return cross_lane() + 2 * size_t{ncross}; }
    size_t local_lane() const { return var_lane() + nvar; }
    size_t child_lane() const { return local_lane() + nlocal; }
    /// Block length: the two masks, then the lanes rounded up to words.
    size_t words(uint32_t mask_words) const {
      const size_t lanes = child_lane() + 2 * size_t{nchild};
      return 2 * size_t{mask_words} + (lanes + 1) / 2;
    }
  };

  using Entry = BoxEntry<Layout>;

  void BuildLeafBox(TermNodeId id);
  void BuildInternalBox(TermNodeId id);
  /// Sizes the box's block from the staged scratch, (re)acquires it with
  /// one Ensure, and fills it, emptying the scratch lists it consumed.
  void CommitBox(TermNodeId id);

  const Term* term_;
  const BinaryTva* tva_;
  const std::vector<uint8_t>* kind_;
  uint32_t w_;
  uint32_t mask_words_;  ///< ⌈w/64⌉: words per state bitmask.

  BoxStore<Entry> store_;

  // Pooled build scratch, reused across rebuilds (clear() keeps capacity),
  // so steady-state refreshes never touch the heap. local_in holds ×-gate
  // ids (internal boxes) or var-mask indices (leaf boxes) per result state.
  // A state's lists are non-empty only while its bit is set in
  // union_scratch_, and CommitBox empties exactly those lists.
  std::vector<std::vector<uint32_t>> local_in_scratch_;         // per state
  std::vector<std::vector<ChildUnionInput>> child_in_scratch_;  // per state
  std::vector<uint64_t> top_scratch_;    // ⊤ mask being built
  std::vector<uint64_t> union_scratch_;  // ∪ mask being built
  std::vector<CrossGate> cross_gates_scratch_;
  std::vector<VarMask> var_masks_scratch_;
};

}  // namespace treenum

#endif  // TREENUM_CIRCUIT_CIRCUIT_H_
