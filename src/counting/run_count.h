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
#ifndef TREENUM_COUNTING_RUN_COUNT_H_
#define TREENUM_COUNTING_RUN_COUNT_H_

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"

namespace treenum {

/// Per-box run-count vectors, maintained incrementally like the circuit and
/// the enumeration index.
class RunCounter {
 public:
  explicit RunCounter(const AssignmentCircuit* circuit) : circuit_(circuit) {}

  /// Builds all count vectors bottom-up.
  void BuildAll();

  /// Recomputes one box's counts from its children's (Lemma 7.3 pattern).
  void RebuildBoxCounts(TermNodeId id);
  void FreeBoxCounts(TermNodeId id);

  /// runs(n, q) mod 2^64 (0 for ⊥; ⊤ counts as 1, the empty valuation).
  uint64_t Count(TermNodeId id, State q) const;

  /// Total accepting (valuation, run) pairs at `root` (the term root or a
  /// pinned snapshot root): Σ over final states of runs(root, q).
  uint64_t TotalAcceptingRuns(TermNodeId root) const;

 private:
  void EnsureSlot(TermNodeId id);

  const AssignmentCircuit* circuit_;
  // Flat stride-w rows (counts_[id * w + q]), matching the circuit's arena
  // layout: a box-count refresh overwrites its row in place and never
  // touches the heap.
  std::vector<uint64_t> counts_;
};

}  // namespace treenum

#endif  // TREENUM_COUNTING_RUN_COUNT_H_
