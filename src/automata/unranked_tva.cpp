#include "automata/unranked_tva.h"

#include <algorithm>
#include <cassert>

namespace treenum {

const std::vector<State> UnrankedTva::kEmptyStates;
const std::vector<std::pair<VarMask, State>> UnrankedTva::kEmptyInits;

void UnrankedTva::AddInit(Label l, VarMask vars, State q) {
  assert(l < num_labels_ && q < num_states_);
  assert(vars < (VarMask{1} << num_vars_));
  inits_.push_back(LeafInit{l, vars, q});
  if (inits_by_label_mask_.size() <= l) {
    inits_by_label_mask_.resize(l + 1);
    inits_by_label_.resize(l + 1);
  }
  auto& by_mask = inits_by_label_mask_[l];
  if (by_mask.size() < (size_t{1} << num_vars_)) {
    by_mask.resize(size_t{1} << num_vars_);
  }
  by_mask[vars].push_back(q);
  inits_by_label_[l].emplace_back(vars, q);
}

void UnrankedTva::AddTransition(State from, State child, State to) {
  assert(from < num_states_ && child < num_states_ && to < num_states_);
  transitions_.push_back(StepTransition{from, child, to});
  if (step_.empty()) step_.resize(num_states_ * num_states_);
  step_[from * num_states_ + child].push_back(to);
}

void UnrankedTva::AddFinal(State q) {
  assert(q < num_states_);
  if (is_final_.size() < num_states_) is_final_.resize(num_states_, false);
  if (!is_final_[q]) {
    is_final_[q] = true;
    final_states_.push_back(q);
  }
}

bool UnrankedTva::IsFinal(State q) const {
  return q < is_final_.size() && is_final_[q];
}

const std::vector<State>& UnrankedTva::InitsFor(Label l, VarMask vars) const {
  if (l >= inits_by_label_mask_.size()) return kEmptyStates;
  const auto& by_mask = inits_by_label_mask_[l];
  if (vars >= by_mask.size()) return kEmptyStates;
  return by_mask[vars];
}

const std::vector<std::pair<VarMask, State>>& UnrankedTva::InitsForLabel(
    Label l) const {
  if (l >= inits_by_label_.size()) return kEmptyInits;
  return inits_by_label_[l];
}

const std::vector<State>& UnrankedTva::Step(State from, State child) const {
  if (step_.empty()) return kEmptyStates;
  return step_[from * num_states_ + child];
}

std::vector<State> UnrankedTva::ReachableStates(
    const UnrankedTree& tree, NodeId node,
    const std::vector<VarMask>& valuation) const {
  // Bottom-up over the subtree; at each node, fold the children's state sets
  // through δ starting from ι(label, annotation).
  struct Rec {
    const UnrankedTva& a;
    const UnrankedTree& t;
    const std::vector<VarMask>& nu;
    std::vector<State> Run(NodeId n) const {
      VarMask mask = n < nu.size() ? nu[n] : 0;
      std::vector<bool> cur(a.num_states_, false);
      for (State q : a.InitsFor(t.label(n), mask)) cur[q] = true;
      for (NodeId c : t.children(n)) {
        std::vector<State> child_states = Run(c);
        std::vector<bool> next(a.num_states_, false);
        for (State q = 0; q < a.num_states_; ++q) {
          if (!cur[q]) continue;
          for (State p : child_states) {
            for (State q2 : a.Step(q, p)) next[q2] = true;
          }
        }
        cur = std::move(next);
      }
      std::vector<State> out;
      for (State q = 0; q < a.num_states_; ++q) {
        if (cur[q]) out.push_back(q);
      }
      return out;
    }
  };
  return Rec{*this, tree, valuation}.Run(node);
}

bool UnrankedTva::Accepts(const UnrankedTree& tree,
                          const std::vector<VarMask>& valuation) const {
  for (State q : ReachableStates(tree, tree.root(), valuation)) {
    if (IsFinal(q)) return true;
  }
  return false;
}

std::vector<Assignment> UnrankedTva::BruteForceAssignments(
    const UnrankedTree& tree) const {
  std::vector<NodeId> nodes = tree.PreorderNodes();
  size_t bits = nodes.size() * num_vars_;
  assert(bits <= 24 && "brute force only supports tiny instances");
  std::vector<Assignment> out;
  size_t max_id = 0;
  for (NodeId n : nodes) max_id = std::max<size_t>(max_id, n);
  for (uint64_t code = 0; code < (uint64_t{1} << bits); ++code) {
    std::vector<VarMask> nu(max_id + 1, 0);
    uint64_t c = code;
    for (NodeId n : nodes) {
      nu[n] = static_cast<VarMask>(c & ((VarMask{1} << num_vars_) - 1));
      c >>= num_vars_;
    }
    if (Accepts(tree, nu)) {
      Assignment a;
      for (NodeId n : nodes) {
        for (VarId v = 0; v < num_vars_; ++v) {
          if (nu[n] & (VarMask{1} << v)) a.Add(Singleton{v, n});
        }
      }
      a.Normalize();
      out.push_back(std::move(a));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string UnrankedTva::ToString() const {
  return "UnrankedTva(Q=" + std::to_string(num_states_) +
         ", iota=" + std::to_string(inits_.size()) +
         ", delta=" + std::to_string(transitions_.size()) + ")";
}

}  // namespace treenum
