#include "automata/wva.h"

#include <algorithm>
#include <cassert>

namespace treenum {

const std::vector<std::pair<VarMask, State>> Wva::kEmptySteps;

void Wva::AddTransition(State from, Label l, VarMask vars, State to) {
  assert(from < num_states_ && to < num_states_ && l < num_labels_);
  assert(vars < (VarMask{1} << num_vars_));
  transitions_.push_back(WvaTransition{from, l, vars, to});
  if (step_.empty()) step_.resize(num_states_ * num_labels_);
  step_[from * num_labels_ + l].emplace_back(vars, to);
}

void Wva::AddInitial(State q) {
  assert(q < num_states_);
  if (is_initial_.size() < num_states_) is_initial_.resize(num_states_, false);
  if (!is_initial_[q]) {
    is_initial_[q] = true;
    initial_states_.push_back(q);
  }
}

void Wva::AddFinal(State q) {
  assert(q < num_states_);
  if (is_final_.size() < num_states_) is_final_.resize(num_states_, false);
  if (!is_final_[q]) {
    is_final_[q] = true;
    final_states_.push_back(q);
  }
}

bool Wva::IsFinal(State q) const {
  return q < is_final_.size() && is_final_[q];
}

const std::vector<std::pair<VarMask, State>>& Wva::Step(State q,
                                                        Label l) const {
  if (step_.empty()) return kEmptySteps;
  return step_[q * num_labels_ + l];
}

bool Wva::Accepts(const Word& w, const std::vector<VarMask>& valuation) const {
  std::vector<bool> cur(num_states_, false);
  for (State q : initial_states_) cur[q] = true;
  for (size_t i = 0; i < w.size(); ++i) {
    std::vector<bool> next(num_states_, false);
    VarMask mask = i < valuation.size() ? valuation[i] : 0;
    for (State q = 0; q < num_states_; ++q) {
      if (!cur[q]) continue;
      for (const auto& [vars, to] : Step(q, w[i])) {
        if (vars == mask) next[to] = true;
      }
    }
    cur = std::move(next);
  }
  for (State q = 0; q < num_states_; ++q) {
    if (cur[q] && IsFinal(q)) return true;
  }
  return false;
}

std::vector<Assignment> Wva::BruteForceAssignments(const Word& w) const {
  size_t bits = w.size() * num_vars_;
  assert(bits <= 24 && "brute force only supports tiny instances");
  std::vector<Assignment> out;
  for (uint64_t code = 0; code < (uint64_t{1} << bits); ++code) {
    std::vector<VarMask> nu(w.size(), 0);
    uint64_t c = code;
    for (size_t i = 0; i < w.size(); ++i) {
      nu[i] = static_cast<VarMask>(c & ((VarMask{1} << num_vars_) - 1));
      c >>= num_vars_;
    }
    if (Accepts(w, nu)) {
      Assignment a;
      for (size_t i = 0; i < w.size(); ++i) {
        for (VarId v = 0; v < num_vars_; ++v) {
          if (nu[i] & (VarMask{1} << v)) {
            a.Add(Singleton{v, static_cast<NodeId>(i)});
          }
        }
      }
      a.Normalize();
      out.push_back(std::move(a));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Wva::ToString() const {
  return "Wva(Q=" + std::to_string(num_states_) +
         ", delta=" + std::to_string(transitions_.size()) + ")";
}

}  // namespace treenum
