// Word variable automata (WVA, §8 of the paper) — the analogue of extended
// sequential variable-set automata from the document-spanner literature.
//
// A Λ,X-WVA is A = (Q, δ, I, F) with δ ⊆ Q × Λ × 2^X × Q: in state q,
// reading letter l annotated with variable set Y, the automaton may move to
// state q'. Satisfying assignments pair variables with word positions.
#ifndef TREENUM_AUTOMATA_WVA_H_
#define TREENUM_AUTOMATA_WVA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automata/binary_tva.h"
#include "trees/assignment.h"

namespace treenum {

/// A word is a sequence of labels; positions are 0-based.
using Word = std::vector<Label>;

/// A WVA transition (q, l, Y, q') ∈ δ.
struct WvaTransition {
  State from;
  Label label;
  VarMask vars;
  State to;
  friend bool operator==(const WvaTransition& a, const WvaTransition& b) {
    return a.from == b.from && a.label == b.label && a.vars == b.vars &&
           a.to == b.to;
  }
};

/// A nondeterministic word variable automaton.
class Wva {
 public:
  Wva(size_t num_states, size_t num_labels, size_t num_vars)
      : num_states_(num_states),
        num_labels_(num_labels),
        num_vars_(num_vars) {}

  size_t num_states() const { return num_states_; }
  size_t num_labels() const { return num_labels_; }
  size_t num_vars() const { return num_vars_; }

  void AddTransition(State from, Label l, VarMask vars, State to);
  void AddInitial(State q);
  void AddFinal(State q);

  const std::vector<WvaTransition>& transitions() const {
    return transitions_;
  }
  const std::vector<State>& initial_states() const { return initial_states_; }
  const std::vector<State>& final_states() const { return final_states_; }
  bool IsFinal(State q) const;

  /// All (Y, q') reachable from q reading letter l.
  const std::vector<std::pair<VarMask, State>>& Step(State q, Label l) const;

  /// Boolean evaluation under a fixed per-position valuation.
  bool Accepts(const Word& w, const std::vector<VarMask>& valuation) const;

  /// Ground-truth oracle: all satisfying assignments by brute force over all
  /// valuations; only for tiny instances (|w| * |X| <= ~22 bits).
  std::vector<Assignment> BruteForceAssignments(const Word& w) const;

  std::string ToString() const;

 private:
  size_t num_states_;
  size_t num_labels_;
  size_t num_vars_;

  std::vector<WvaTransition> transitions_;
  std::vector<State> initial_states_;
  std::vector<State> final_states_;
  std::vector<bool> is_initial_;
  std::vector<bool> is_final_;

  // step_[q * num_labels + l] = list of (vars, to).
  std::vector<std::vector<std::pair<VarMask, State>>> step_;

  static const std::vector<std::pair<VarMask, State>> kEmptySteps;
};

}  // namespace treenum

#endif  // TREENUM_AUTOMATA_WVA_H_
