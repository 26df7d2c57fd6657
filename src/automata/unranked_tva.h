// Stepwise tree variable automata on unranked trees (§7 of the paper).
//
// A Λ,X-TVA on unranked trees is A = (Q, ι, δ, F) where ι ⊆ Λ × 2^X × Q
// assigns possible initial states to every node (annotations are read at all
// nodes), and δ ⊆ Q × Q × Q consumes the states of the children one by one,
// like a word automaton: (q, p, q') ∈ δ means "in intermediate state q,
// reading a child that finished in state p, move to intermediate state q'".
// The state of a node is the intermediate state after all children are read.
#ifndef TREENUM_AUTOMATA_UNRANKED_TVA_H_
#define TREENUM_AUTOMATA_UNRANKED_TVA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automata/binary_tva.h"
#include "trees/unranked_tree.h"

namespace treenum {

/// A stepwise transition (q, p, q') ∈ δ.
struct StepTransition {
  State from;
  State child;
  State to;
  friend bool operator==(const StepTransition& a, const StepTransition& b) {
    return a.from == b.from && a.child == b.child && a.to == b.to;
  }
};

/// A nondeterministic stepwise TVA on unranked Λ-trees.
class UnrankedTva {
 public:
  UnrankedTva(size_t num_states, size_t num_labels, size_t num_vars)
      : num_states_(num_states),
        num_labels_(num_labels),
        num_vars_(num_vars) {}

  size_t num_states() const { return num_states_; }
  size_t num_labels() const { return num_labels_; }
  size_t num_vars() const { return num_vars_; }

  /// Declares (l, Y, q) ∈ ι.
  void AddInit(Label l, VarMask vars, State q);
  /// Declares (q, p, q') ∈ δ.
  void AddTransition(State from, State child, State to);
  void AddFinal(State q);

  const std::vector<LeafInit>& inits() const { return inits_; }
  const std::vector<StepTransition>& transitions() const {
    return transitions_;
  }
  const std::vector<State>& final_states() const { return final_states_; }
  bool IsFinal(State q) const;

  /// ι(l, Y): set of initial states for label l under annotation Y.
  const std::vector<State>& InitsFor(Label l, VarMask vars) const;
  /// All (Y, q) pairs for label l.
  const std::vector<std::pair<VarMask, State>>& InitsForLabel(Label l) const;
  /// δ(q, p): successor states when reading child state p in state q.
  const std::vector<State>& Step(State from, State child) const;

  /// Boolean evaluation: does A accept `tree` under valuation ν given as a
  /// per-node VarMask (indexed by NodeId)? Runs the standard bottom-up
  /// reachable-state-set computation in O(|T| * |δ|).
  bool Accepts(const UnrankedTree& tree,
               const std::vector<VarMask>& valuation) const;

  /// Reachable states of the subtree rooted at `node` under `valuation`.
  std::vector<State> ReachableStates(
      const UnrankedTree& tree, NodeId node,
      const std::vector<VarMask>& valuation) const;

  /// Brute-force computation of all satisfying assignments by trying all
  /// 2^(|X| * |T|) valuations. Only usable on tiny instances; this is the
  /// ground-truth oracle for correctness tests.
  std::vector<Assignment> BruteForceAssignments(
      const UnrankedTree& tree) const;

  std::string ToString() const;

 private:
  size_t num_states_;
  size_t num_labels_;
  size_t num_vars_;

  std::vector<LeafInit> inits_;
  std::vector<StepTransition> transitions_;
  std::vector<State> final_states_;
  std::vector<bool> is_final_;

  // inits_by_label_mask_[l][mask] = states.
  std::vector<std::vector<std::vector<State>>> inits_by_label_mask_;
  std::vector<std::vector<std::pair<VarMask, State>>> inits_by_label_;
  // step_[from * num_states + child] = states.
  std::vector<std::vector<State>> step_;

  static const std::vector<State> kEmptyStates;
  static const std::vector<std::pair<VarMask, State>> kEmptyInits;
};

}  // namespace treenum

#endif  // TREENUM_AUTOMATA_UNRANKED_TVA_H_
