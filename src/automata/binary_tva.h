// Tree variable automata on binary trees (§2 of the paper).
//
// A Λ,X-TVA is A = (Q, ι, δ, F) where ι ⊆ Λ × 2^X × Q is the initial
// (leaf) relation and δ ⊆ Λ × Q × Q × Q the transition relation for internal
// nodes. Annotations (sets of variables) are read on leaves only.
//
// These automata run on the binary forest-algebra terms produced by the
// encoding of §7, but are defined for arbitrary binary trees, so they can be
// built and tested independently of the forest-algebra layer.
#ifndef TREENUM_AUTOMATA_BINARY_TVA_H_
#define TREENUM_AUTOMATA_BINARY_TVA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trees/assignment.h"

namespace treenum {

using State = uint32_t;

/// A set of variables encoded as a bitmask over VarIds (at most 31 vars).
using VarMask = uint32_t;

/// A leaf initializer (l, Y, q) ∈ ι: on a leaf labeled l annotated with the
/// variable set Y, the automaton may assume state q.
struct LeafInit {
  Label label;
  VarMask vars;
  State state;
  friend bool operator==(const LeafInit& a, const LeafInit& b) {
    return a.label == b.label && a.vars == b.vars && a.state == b.state;
  }
};

/// An internal transition (l, q1, q2, q) ∈ δ: on an internal node labeled l
/// whose children carry states q1 (left) and q2 (right), the automaton may
/// assume state q.
struct Transition {
  Label label;
  State left;
  State right;
  State state;
  friend bool operator==(const Transition& a, const Transition& b) {
    return a.label == b.label && a.left == b.left && a.right == b.right &&
           a.state == b.state;
  }
};

/// One live (left, right) child-state pair of δ restricted to a label; its
/// result states are delta_results()[begin..end) in insertion order.
struct DeltaGroup {
  State left;
  State right;
  uint32_t begin;
  uint32_t end;
};

/// A nondeterministic tree variable automaton on binary Λ-trees.
class BinaryTva {
 public:
  BinaryTva(size_t num_states, size_t num_labels, size_t num_vars)
      : num_states_(num_states),
        num_labels_(num_labels),
        num_vars_(num_vars) {}
  /// An empty automaton (no states, labels or variables) — the staging
  /// value deserialization (automata/serialize.h) parses into.
  BinaryTva() : BinaryTva(0, 0, 0) {}

  size_t num_states() const { return num_states_; }
  size_t num_labels() const { return num_labels_; }
  size_t num_vars() const { return num_vars_; }

  /// |A| = |Q| + |ι| + |δ| as in the paper.
  size_t size() const {
    return num_states_ + leaf_inits_.size() + transitions_.size();
  }

  void AddLeafInit(Label l, VarMask vars, State q);
  void AddTransition(Label l, State left, State right, State q);
  void AddFinal(State q);

  const std::vector<LeafInit>& leaf_inits() const { return leaf_inits_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::vector<State>& final_states() const { return final_states_; }
  bool IsFinal(State q) const;

  /// All (vars, state) pairs of ι entries for leaf label l.
  const std::vector<std::pair<VarMask, State>>& LeafInitsFor(Label l) const;

  /// All result states q with (l, q1, q2, q) ∈ δ.
  const std::vector<State>& TransitionsFor(Label l, State q1, State q2) const;

  /// Grouped-CSR view of δ restricted to label l: one DeltaGroup per live
  /// (left, right) pair, sorted by (left, right), with result states flat in
  /// delta_results(). Iterating groups in order and results within each group
  /// visits exactly the triples the nested TransitionsFor scan would, in the
  /// same order — consumers replacing that scan stay bit-identical.
  const std::vector<DeltaGroup>& DeltaGroupsFor(Label l) const;
  const std::vector<State>& delta_results() const {
    EnsureDeltaGroups();
    return delta_results_;
  }

  /// Builds the grouped-CSR cache if any AddTransition invalidated it. Called
  /// lazily by DeltaGroupsFor; call it eagerly before handing the automaton
  /// to concurrent readers (the cache mutates on first access).
  void EnsureDeltaGroups() const;

  std::string ToString() const;

 private:
  size_t num_states_;
  size_t num_labels_;
  size_t num_vars_;

  std::vector<LeafInit> leaf_inits_;
  std::vector<Transition> transitions_;
  std::vector<State> final_states_;
  std::vector<bool> is_final_;

  // Lookup structures.
  std::vector<std::vector<std::pair<VarMask, State>>> leaf_inits_by_label_;
  std::vector<std::vector<Transition>> transitions_by_label_;
  // Key: (label * num_states + q1) * num_states + q2.
  std::unordered_map<uint64_t, std::vector<State>> delta_lookup_;

  // Grouped-CSR cache over δ (see DeltaGroupsFor); rebuilt on demand after
  // AddTransition marks it dirty.
  mutable std::vector<std::vector<DeltaGroup>> delta_groups_by_label_;
  mutable std::vector<State> delta_results_;
  mutable bool delta_groups_dirty_ = true;

  static const std::vector<std::pair<VarMask, State>> kEmptyLeafInits;
  static const std::vector<State> kEmptyStates;
  static const std::vector<DeltaGroup> kEmptyGroups;
};

}  // namespace treenum

#endif  // TREENUM_AUTOMATA_BINARY_TVA_H_
