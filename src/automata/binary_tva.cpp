#include "automata/binary_tva.h"

#include <algorithm>
#include <cassert>

namespace treenum {

const std::vector<std::pair<VarMask, State>> BinaryTva::kEmptyLeafInits;
const std::vector<State> BinaryTva::kEmptyStates;
const std::vector<DeltaGroup> BinaryTva::kEmptyGroups;

void BinaryTva::AddLeafInit(Label l, VarMask vars, State q) {
  assert(l < num_labels_ && q < num_states_);
  // Deduplicate: a repeated ι entry would create duplicate var-gates and
  // break the no-duplicates guarantee of the enumeration algorithms.
  if (l < leaf_inits_by_label_.size()) {
    for (const auto& [m, s] : leaf_inits_by_label_[l]) {
      if (m == vars && s == q) return;
    }
  }
  leaf_inits_.push_back(LeafInit{l, vars, q});
  if (leaf_inits_by_label_.size() <= l) leaf_inits_by_label_.resize(l + 1);
  leaf_inits_by_label_[l].emplace_back(vars, q);
}

void BinaryTva::AddTransition(Label l, State left, State right, State q) {
  assert(l < num_labels_ && left < num_states_ && right < num_states_ &&
         q < num_states_);
  {
    uint64_t key = (static_cast<uint64_t>(l) * num_states_ + left) *
                       num_states_ +
                   right;
    auto it = delta_lookup_.find(key);
    if (it != delta_lookup_.end()) {
      for (State s : it->second) {
        if (s == q) return;  // duplicate transition
      }
    }
  }
  transitions_.push_back(Transition{l, left, right, q});
  if (transitions_by_label_.size() <= l) transitions_by_label_.resize(l + 1);
  transitions_by_label_[l].push_back(transitions_.back());
  uint64_t key = (static_cast<uint64_t>(l) * num_states_ + left) *
                     num_states_ +
                 right;
  delta_lookup_[key].push_back(q);
  delta_groups_dirty_ = true;
}

void BinaryTva::AddFinal(State q) {
  assert(q < num_states_);
  if (is_final_.size() < num_states_) is_final_.resize(num_states_, false);
  if (!is_final_[q]) {
    is_final_[q] = true;
    final_states_.push_back(q);
  }
}

bool BinaryTva::IsFinal(State q) const {
  return q < is_final_.size() && is_final_[q];
}

const std::vector<std::pair<VarMask, State>>& BinaryTva::LeafInitsFor(
    Label l) const {
  if (l >= leaf_inits_by_label_.size()) return kEmptyLeafInits;
  return leaf_inits_by_label_[l];
}

const std::vector<State>& BinaryTva::TransitionsFor(Label l, State q1,
                                                    State q2) const {
  uint64_t key =
      (static_cast<uint64_t>(l) * num_states_ + q1) * num_states_ + q2;
  auto it = delta_lookup_.find(key);
  if (it == delta_lookup_.end()) return kEmptyStates;
  return it->second;
}

const std::vector<DeltaGroup>& BinaryTva::DeltaGroupsFor(Label l) const {
  EnsureDeltaGroups();
  if (l >= delta_groups_by_label_.size()) return kEmptyGroups;
  return delta_groups_by_label_[l];
}

void BinaryTva::EnsureDeltaGroups() const {
  if (!delta_groups_dirty_) return;
  delta_groups_dirty_ = false;
  delta_groups_by_label_.assign(transitions_by_label_.size(), {});
  delta_results_.clear();
  delta_results_.reserve(transitions_.size());
  std::vector<std::pair<State, State>> pairs;
  for (Label l = 0; l < transitions_by_label_.size(); ++l) {
    pairs.clear();
    for (const Transition& t : transitions_by_label_[l]) {
      pairs.emplace_back(t.left, t.right);
    }
    // Sorted (left, right) order matches the nested q1/q2 scan the groups
    // replace; within a group the delta_lookup_ vector preserves insertion
    // order, so downstream circuits come out bit-identical.
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<DeltaGroup>& groups = delta_groups_by_label_[l];
    groups.reserve(pairs.size());
    for (const auto& [q1, q2] : pairs) {
      uint64_t key =
          (static_cast<uint64_t>(l) * num_states_ + q1) * num_states_ + q2;
      const std::vector<State>& results = delta_lookup_.at(key);
      DeltaGroup g{q1, q2, static_cast<uint32_t>(delta_results_.size()), 0};
      delta_results_.insert(delta_results_.end(), results.begin(),
                            results.end());
      g.end = static_cast<uint32_t>(delta_results_.size());
      groups.push_back(g);
    }
  }
}

std::string BinaryTva::ToString() const {
  std::string s = "BinaryTva(Q=" + std::to_string(num_states_) +
                  ", iota=" + std::to_string(leaf_inits_.size()) +
                  ", delta=" + std::to_string(transitions_.size()) +
                  ", F={";
  for (size_t i = 0; i < final_states_.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(final_states_[i]);
  }
  s += "})";
  return s;
}

}  // namespace treenum
