// Dynamic run aggregation on assignment circuits (the multiset semantics
// noted as a side remark in §4 of the paper: "each assignment in S(γ(n,q))
// is enumerated exactly as many times as there are runs...").
//
// For every term node n and state q we maintain
//     runs(n, q) = Σ_ν  #runs of A on the subtree encoded below n that
//                        reach q at n under ν,
// i.e. the number of (valuation, run) pairs, which equals the multiset size
// of S(γ(n,q)) under the multiset reading of Definition 3.1. Summed over
// the final states at the root this counts accepting (valuation, run)
// pairs of the whole tree.
//
// Exact *assignment* counting (set semantics) is not tractable on
// nondeterministic circuits — that would require a d-DNNF — but run counts
// are: one bottom-up pass, O(|Q|³) per box, and under updates only the
// O(log n) changed boxes are recomputed, giving a dynamic aggregate in the
// same O(log n) update bound as Theorem 8.1. For unambiguous automata
// (at most one run per valuation), runs(root) is exactly the number of
// satisfying valuations.
//
// Counts are maintained modulo 2^64 (wrap-around), which preserves equality
// checks used by the tests and keeps updates O(1) per arithmetic operation.
//
// Storage: a box's counts are one block of a BoxStore (circuit/arena.h),
// sized by its non-⊥ states, not by w: the ⌈w/64⌉-word mask of the states
// some run reaches (for a homogenized automaton, the circuit box's ⊤|∪
// states), then one count per set bit in state order, so runs(n, q) is a
// rank in the mask and a ⊥ state costs nothing. The block carries its own
// mask because a counter also runs over raw automata whose circuit is never
// built. A pinned version's rows are never rewritten in place, so reads are
// safe on any thread at a pinned snapshot.
#ifndef TREENUM_COUNTING_RUN_COUNT_H_
#define TREENUM_COUNTING_RUN_COUNT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace treenum {

/// Per-box run-count rows, maintained incrementally like the circuit and
/// the enumeration index.
class RunCounter {
 public:
  explicit RunCounter(const AssignmentCircuit* circuit);

  /// Builds all count rows bottom-up, then frees the buffers its growth
  /// retired (no reader can reach it yet).
  void BuildAll();

  /// Recomputes one box's counts from its children's (Lemma 7.3 pattern).
  void RebuildBoxCounts(TermNodeId id);
  void FreeBoxCounts(TermNodeId id) { store_.Free(id); }

  /// runs(n, q) mod 2^64 (0 for ⊥; ⊤ counts as 1, the empty valuation).
  uint64_t Count(TermNodeId id, State q) const;

  /// Total accepting (valuation, run) pairs at `root` (the term root or a
  /// pinned snapshot root): Σ over final states of runs(root, q).
  uint64_t TotalAcceptingRuns(TermNodeId root) const;

  /// BoxStore::ReleaseRetired and retired_bytes.
  void ReleaseRetired() { store_.ReleaseRetired(); }
  size_t retired_bytes() const { return store_.retired_bytes(); }

  /// Validates the blocks: every alive box owns one whose mask is its
  /// circuit box's ⊤|∪ states and whose row holds one count per set bit,
  /// no dead box owns one, and no two overlap. Requires a built circuit.
  /// Returns "" if consistent. (Test hook.)
  std::string ValidateStorage() const;

 private:
  struct Entry {
    SpanRef block;
  };

  const AssignmentCircuit* circuit_;
  uint32_t mask_words_;  ///< ⌈w/64⌉: words per state mask.
  BoxStore<Entry> store_;

  // Rebuild scratch, reused across boxes: the mask being built and, by
  // state, the sums and the children's counts, each meaningful only where
  // its mask has the state (so only the mask is ever zeroed).
  std::vector<uint64_t> mask_scratch_;
  std::vector<uint64_t> sum_scratch_;
  std::vector<uint64_t> left_scratch_;
  std::vector<uint64_t> right_scratch_;
};

}  // namespace treenum

#endif  // TREENUM_COUNTING_RUN_COUNT_H_
