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
// Storage layout (arena/CSR): boxes own no heap memory. The per-state data
// is two bitmasks over Q, ⊤ and ∪, of ⌈w/64⌉ words each, in one fixed-stride
// array indexed by box id: γ(n, q) is two bit tests, and the dense index of
// γ(n, q) among the box's ∪-gates is the rank of q in the ∪ mask, so dense
// indices follow ascending state order. Everything sized by the box's gates
// rather than by w — the ∪-gate → state table, the CSR end offsets and the
// wire lists — lives in flat SpanPools with per-box (offset, len) spans that
// are recycled across box refreshes (see circuit/arena.h). A refresh thus
// costs O(|δ_l| + ∪-gates + w/64), not Θ(w).
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

/// Widest automaton the 32-bit arena offsets support: w² ×-gate ids per box
/// must fit in uint32_t. Enforced by TREENUM_CHECK at circuit construction
/// (the old int16_t/uint16_t layout overflowed silently long before this).
inline constexpr size_t kMaxCircuitWidth = 65535;

/// Per-∪-gate CSR end offsets into the owning box's pool spans; gate u's
/// inputs occupy [ends[u-1].x_end, ends[u].x_end) with gate -1 ending at 0.
struct GateEnds {
  uint32_t cross_end;
  uint32_t child_end;
  uint32_t var_end;
};

/// A read-only view of one box (= one term node), resolving the arena
/// spans to raw pointers once. Invalidated by the next RebuildBox/FreeBox.
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
    const uint32_t word = q >> 6;
    const uint64_t bit = uint64_t{1} << (q & 63);
    if (!(union_mask_[word] & bit)) return kNoGate;
    int32_t rank = __builtin_popcountll(union_mask_[word] & (bit - 1));
    for (uint32_t i = 0; i < word; ++i) {
      rank += __builtin_popcountll(union_mask_[i]);
    }
    return rank;
  }
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
    uint32_t b = u == 0 ? 0 : ends_[u - 1].cross_end;
    return Span<uint32_t>(cross_in_ + b, ends_[u].cross_end - b);
  }
  /// Per ∪-gate: child-box ∪-gate inputs created by ⊤-collapse.
  Span<ChildUnionInput> child_union_inputs(size_t u) const {
    uint32_t b = u == 0 ? 0 : ends_[u - 1].child_end;
    return Span<ChildUnionInput>(child_in_ + b, ends_[u].child_end - b);
  }
  /// Per ∪-gate: indices into var_masks().
  Span<uint32_t> var_inputs(size_t u) const {
    uint32_t b = u == 0 ? 0 : ends_[u - 1].var_end;
    return Span<uint32_t>(var_in_ + b, ends_[u].var_end - b);
  }

  /// Distinct variable masks of this (leaf) box's var-gates.
  Span<VarMask> var_masks() const {
    return Span<VarMask>(var_masks_, num_var_masks_);
  }
  VarMask var_mask(size_t v) const { return var_masks_[v]; }
  size_t num_var_masks() const { return num_var_masks_; }

  bool HasNonUnionInput(size_t u) const {
    return !cross_inputs(u).empty() || !var_inputs(u).empty();
  }

 private:
  friend class AssignmentCircuit;

  const uint64_t* top_mask_ = nullptr;
  const uint64_t* union_mask_ = nullptr;
  const State* union_states_ = nullptr;
  const GateEnds* ends_ = nullptr;
  const CrossGate* cross_gates_ = nullptr;
  const uint32_t* cross_in_ = nullptr;
  const ChildUnionInput* child_in_ = nullptr;
  const uint32_t* var_in_ = nullptr;
  const VarMask* var_masks_ = nullptr;
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

  /// Builds all boxes bottom-up (preprocessing, O(|T| * |A|)).
  void BuildAll();

  /// Recomputes the box of `id` from its children's boxes (Lemma 7.3 step).
  /// Steady-state refreshes reuse the box's arena spans in place.
  void RebuildBox(TermNodeId id);

  /// Drops the box of a freed term node, recycling its spans.
  void FreeBox(TermNodeId id);

  /// Batch hint: pre-grows the arena pools for ~`boxes` upcoming rebuilds
  /// (sized from the running per-box averages), so one transaction's
  /// refresh loop does not re-grow pool tails repeatedly.
  void ReserveForRebuild(size_t boxes);

  /// Cheap view of a box; invalidated by the next RebuildBox/FreeBox.
  Box box(TermNodeId id) const;

  /// Total number of gates (for accounting tests/benches).
  size_t CountGates() const;

  /// Validates the arena invariants: span bounds, CSR monotonicity, and
  /// that live spans never overlap within a pool. Returns an empty string
  /// if consistent, else a description of the first violation. (Test hook.)
  std::string ValidateStorage() const;

 private:
  /// Per-box span directory into the pools. `union_states` and `ends`
  /// both hold one entry per ∪-gate, so their length is the ∪-gate count.
  struct BoxSpans {
    SpanRef cross_gates;
    SpanRef cross_in;
    SpanRef child_in;
    SpanRef var_in;
    SpanRef var_masks;
    SpanRef union_states;
    SpanRef ends;
  };

  /// Box id's ⊤ mask; its ∪ mask follows `mask_words_` words later.
  uint64_t* MaskRow(TermNodeId id) {
    return masks_.data() + static_cast<size_t>(id) * 2 * mask_words_;
  }
  const uint64_t* MaskRow(TermNodeId id) const {
    return masks_.data() + static_cast<size_t>(id) * 2 * mask_words_;
  }

  void BuildLeafBox(TermNodeId id);
  void BuildInternalBox(TermNodeId id);
  void EnsureSlot(TermNodeId id);
  /// Writes the per-∪-gate scratch accumulators of `id` into the arena.
  /// For leaves the local inputs are var-mask indices, for internal boxes
  /// ×-gate ids; the two kinds route to different pools.
  void CommitUnions(TermNodeId id, bool is_leaf);

  const Term* term_;
  const BinaryTva* tva_;
  const std::vector<uint8_t>* kind_;
  uint32_t w_;
  uint32_t mask_words_;  ///< ⌈w/64⌉: words per state bitmask.

  // Fixed-stride per-box state: box id's ⊤ mask at masks_[id * 2 *
  // mask_words_], its ∪ mask right after. CowStore-backed so concurrent
  // snapshot readers survive writer growth (util/cow_store.h).
  CowStore<uint64_t> masks_;
  CowStore<BoxSpans> spans_;

  // Flat pools: the per-∪-gate tables, then one pool per wire kind.
  SpanPool<State> union_state_pool_;
  SpanPool<GateEnds> ends_pool_;
  SpanPool<CrossGate> cross_gate_pool_;
  SpanPool<uint32_t> cross_in_pool_;
  SpanPool<ChildUnionInput> child_in_pool_;
  SpanPool<uint32_t> var_in_pool_;
  SpanPool<VarMask> var_mask_pool_;

  // Pooled build scratch, reused across rebuilds (clear() keeps capacity),
  // so steady-state refreshes never touch the heap. local_in holds ×-gate
  // ids (internal boxes) or var-mask indices (leaf boxes) per result state.
  // A state's lists are non-empty only while its bit is set in
  // union_scratch_, and CommitUnions empties exactly those lists.
  std::vector<std::vector<uint32_t>> local_in_scratch_;         // per state
  std::vector<std::vector<ChildUnionInput>> child_in_scratch_;  // per state
  std::vector<uint64_t> top_scratch_;    // ⊤ mask being built
  std::vector<uint64_t> union_scratch_;  // ∪ mask being built
  std::vector<CrossGate> cross_gates_scratch_;
  std::vector<VarMask> var_masks_scratch_;
};

}  // namespace treenum

#endif  // TREENUM_CIRCUIT_CIRCUIT_H_
