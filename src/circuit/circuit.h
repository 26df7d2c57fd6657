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
// Sharing: a box's content is a pure function of its *key* — leaf or not,
// the label, and for an internal node both children's ⊤ and ∪ masks (δ and
// the state kinds are fixed per circuit). Boxes repeat, so equal keys share
// one *block*: a per-term-id 32-bit reference in a CowStore names the id's
// block, and a refresh builds its key from the children's (shared, hot)
// blocks and builds a block only on a miss. The writer alone keeps each
// block's use count, key and hash-chain link; a block is freed with its
// last use, never changed while an id names it, and a frozen id is never
// rebuilt or freed, so no pinned reader can reach a freed or reused block.
//
// Storage layout: blocks own no heap memory. A block is one span of the
// circuit's BoxStore (circuit/arena.h), keyed by block id, holding back to
// back:
//   * the ⊤ and ∪ state bitmasks, ⌈w/64⌉ words each: γ(n, q) is two bit
//     tests, and the dense index of γ(n, q) among the box's ∪-gates is the
//     rank of q in the ∪ mask, so dense indices follow ascending state order;
//   * the ⊤-collapse wires as two bit matrices, R(left child, B) then
//     R(right child, B): one row per ∪-gate of the child, ⌈nu/64⌉ words
//     each, bit u set when that child gate feeds the box's ∪-gate u. They
//     are the one copy the jump index and both box-enum modes compose with;
//   * 32-bit lanes sized by the box's gates rather than by w: the ∪-gate →
//     state table, one CSR end offset per ∪-gate, the ×-gates, the var
//     masks and the local inputs (×-gate ids in an internal box, var-mask
//     indices in a leaf — never both).
// A per-block directory entry keeps the block's span and the six counts
// that fix the section offsets (AssignmentCircuit::Layout); the children's
// ∪-gate counts are popcounts of their ∪ masks, which are in the key. The
// lane sections are written with memcpy and read as the types they were
// written as. A miss thus costs O(|δ_l| + wire words + w/64), not Θ(w); a
// hit O(w/64). `box(id)` returns a cheap Box *view* — invalidated by the
// next rebuild.
#ifndef TREENUM_CIRCUIT_CIRCUIT_H_
#define TREENUM_CIRCUIT_CIRCUIT_H_

#include <cstdint>
#include <vector>

#include "automata/binary_tva.h"
#include "circuit/arena.h"
#include "falgebra/term.h"
#include "util/bit_matrix.h"

namespace treenum {

enum class GateKind : uint8_t { kBot = 0, kTop = 1, kUnion = 2 };

/// A ×-gate: left input γ(left child, left_state), right input
/// γ(right child, right_state); both are ∪-gates (never ⊤/⊥ by collapse).
struct CrossGate {
  State left_state;
  State right_state;
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

  /// The ∪→∪ wires that ⊤-collapse creates, as R(child box, B): rows = the
  /// left (right) child's ∪-gates, cols = this box's ∪-gates, bit (d, u)
  /// set iff child gate d is an input of gate u. No rows in a leaf box.
  BitMatrixView wire_left() const {
    return BitMatrixView(wires_, num_left_unions_, num_unions_);
  }
  BitMatrixView wire_right() const {
    return BitMatrixView(
        wires_ + size_t{num_left_unions_} * ((num_unions_ + 63) / 64),
        num_right_unions_, num_unions_);
  }

 private:
  friend class AssignmentCircuit;

  /// Gate u's local inputs, the CSR slice ending at ends_[u] (gate -1
  /// ends at 0). They are var-mask indices exactly when the box has var
  /// masks (a leaf whose ∪-gates have inputs), else ×-gate ids.
  Span<uint32_t> LocalInputs(size_t u) const {
    uint32_t b = u == 0 ? 0 : ends_[u - 1];
    return Span<uint32_t>(local_in_ + b, ends_[u] - b);
  }

  const uint64_t* top_mask_ = nullptr;
  const uint64_t* union_mask_ = nullptr;
  const uint64_t* wires_ = nullptr;
  const State* union_states_ = nullptr;
  const uint32_t* ends_ = nullptr;
  const CrossGate* cross_gates_ = nullptr;
  const VarMask* var_masks_ = nullptr;
  const uint32_t* local_in_ = nullptr;
  uint32_t num_unions_ = 0;
  uint32_t num_left_unions_ = 0;
  uint32_t num_right_unions_ = 0;
  uint32_t num_cross_gates_ = 0;
  uint32_t num_var_masks_ = 0;
};

/// The assignment circuit of a homogenized binary TVA on a term, maintained
/// incrementally: boxes are (re)computed per term node, bottom-up, into
/// hash-consed blocks of arena-backed flat storage (see the file comment).
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

  /// Recomputes the box of `id` from its children's boxes (Lemma 7.3 step):
  /// points `id` at its key's block, building that block on a miss.
  void RebuildBox(TermNodeId id);

  /// Drops a freed term node's use of its block, freeing the block with its
  /// last use. Nothing happens for an id never built or already freed.
  void FreeBox(TermNodeId id);

  /// Batch hint: grows the reference store to the term's id bound, so a
  /// refresh loop does not re-grow it. Most refreshes find their block, so
  /// the pool is not reserved for `boxes` new ones.
  void ReserveForRebuild(size_t /*boxes*/) {
    refs_.reserve(term_->id_bound());
  }

  /// Cheap view of a box; invalidated by the next RebuildBox/FreeBox.
  Box box(TermNodeId id) const;

  /// Total number of gates (for accounting tests/benches).
  size_t CountGates() const;

  /// Distinct blocks alive: one per distinct key among the alive ids.
  size_t num_blocks() const { return meta_.size() - free_blocks_.size(); }
  /// The number of alive ids sharing `id`'s block. Writer thread.
  uint32_t block_uses(TermNodeId id) const { return meta_[refs_[id]].uses; }

  /// ReleaseRetired and retired_bytes of the reference and block stores.
  void ReleaseRetired() {
    refs_.ReleaseRetired();
    store_.ReleaseRetired();
  }
  size_t retired_bytes() const {
    return refs_.retired_bytes() + store_.retired_bytes();
  }

  /// Validates sharing — alive ids name live blocks and dead ids none, use
  /// counts count the naming ids, each derives its block's key, the hash
  /// chains hold each live block once under its key, and a block built
  /// afresh from its key matches — and every block's layout invariants.
  /// Returns "" if consistent, else the first violation. (Test hook.)
  std::string ValidateStorage() const;

 private:
  /// Counts that fix the section offsets of one box's block. Wire rows
  /// count from the end of the two masks, lanes (32 bits each) from the
  /// end of the wires.
  struct Layout {
    uint32_t nu = 0;      ///< ∪-gates
    uint32_t lnu = 0;     ///< left child's ∪-gates (0 for a leaf)
    uint32_t rnu = 0;     ///< right child's ∪-gates (0 for a leaf)
    uint32_t ncross = 0;  ///< ×-gates (internal boxes)
    uint32_t nvar = 0;    ///< var masks (leaf boxes)
    uint32_t nlocal = 0;  ///< local inputs over all ∪-gates

    /// Words per wire row: one bit per ∪-gate of the box.
    size_t wire_wpr() const { return (size_t{nu} + 63) / 64; }
    size_t wire_words() const { return (size_t{lnu} + rnu) * wire_wpr(); }
    static size_t states_lane() { return 0; }
    size_t ends_lane() const { return nu; }
    size_t cross_lane() const { return 2 * size_t{nu}; }
    size_t var_lane() const { return cross_lane() + 2 * size_t{ncross}; }
    size_t local_lane() const { return var_lane() + nvar; }
    /// Block length: the two masks, the wires, then the lanes rounded up
    /// to words.
    size_t words(uint32_t mask_words) const {
      const size_t lanes = local_lane() + nlocal;
      return 2 * size_t{mask_words} + wire_words() + (lanes + 1) / 2;
    }
  };

  using Entry = BoxEntry<Layout>;

  static constexpr uint32_t kNoBlock = UINT32_MAX;

  /// Writer-only bookkeeping of one block id; uses == 0 marks it free.
  struct BlockMeta {
    uint64_t hash = 0;
    uint32_t uses = 0;
    uint32_t next = kNoBlock;  ///< Next block on its hash chain.
  };

  Box BlockView(uint32_t block_id) const;
  /// Writes the key of `id` (key_words_ words): label << 1 | leaf bit, then
  /// the left child's ⊤ and ∪ masks and the right child's (zeros for a leaf).
  void KeyOf(TermNodeId id, uint64_t* key) const;
  const uint64_t* KeyAt(uint32_t b) const {
    return keys_.data() + size_t{b} * key_words_;
  }
  /// The live block filed under `key`, or kNoBlock.
  uint32_t Lookup(const uint64_t* key, uint64_t hash) const;
  /// Builds and files a block with one use for the key in key_scratch_.
  uint32_t AddBlock(uint64_t hash);
  /// Drops one use of block `b`, freeing it with its last use.
  void Release(uint32_t b);

  /// Stages the box of `key` into the scratch.
  void StageBox(const uint64_t* key);
  /// Sizes block `b` from the staged scratch, (re)acquires it with one
  /// Ensure, and fills it, emptying the scratch lists it consumed.
  void CommitBox(uint32_t b);

  const Term* term_;
  const BinaryTva* tva_;
  const std::vector<uint8_t>* kind_;
  uint32_t w_;
  uint32_t mask_words_;  ///< ⌈w/64⌉: words per state bitmask.
  uint32_t key_words_;   ///< 1 + 4 mask_words_: words per key.

  CowStore<uint32_t> refs_;  ///< Per term id: its block, or kNoBlock.
  BoxStore<Entry> store_;    ///< Per block id: its span and layout.
  // Writer-only, per block id: bookkeeping and key; then the free block
  // ids and the hash-chain heads (a power of two ≥ num_blocks()).
  std::vector<BlockMeta> meta_;
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> free_blocks_;
  std::vector<uint32_t> buckets_;

  // Pooled build scratch, reused across rebuilds (clear() keeps capacity),
  // so steady-state refreshes never touch the heap. local_in holds ×-gate
  // ids (internal boxes) or var-mask indices (leaf boxes) per result state;
  // wire_in holds its ⊤-collapse inputs as wire rows: the input's rank in
  // the left child's ∪ mask, or lnu plus its rank in the right child's. A
  // state's lists are non-empty only while its bit is set in
  // union_scratch_, and CommitBox empties exactly those lists.
  std::vector<std::vector<uint32_t>> local_in_scratch_;  // per state
  std::vector<std::vector<uint32_t>> wire_in_scratch_;   // per state
  std::vector<uint64_t> top_scratch_;    // ⊤ mask being built
  std::vector<uint64_t> union_scratch_;  // ∪ mask being built
  std::vector<CrossGate> cross_gates_scratch_;
  std::vector<VarMask> var_masks_scratch_;
  std::vector<uint64_t> key_scratch_;  // key of the box being rebuilt
  uint32_t lnu_scratch_ = 0;  // the staged box's children's ∪-gates
  uint32_t rnu_scratch_ = 0;
};

}  // namespace treenum

#endif  // TREENUM_CIRCUIT_CIRCUIT_H_
