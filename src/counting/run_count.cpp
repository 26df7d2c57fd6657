#include "counting/run_count.h"

#include <algorithm>

namespace treenum {

void RunCounter::EnsureSlot(TermNodeId id) {
  size_t need = (static_cast<size_t>(id) + 1) * circuit_->width();
  if (counts_.size() < need) counts_.resize(need, 0);
}

void RunCounter::BuildAll() {
  circuit_->term().ForEachPostOrder(
      [this](TermNodeId id) { RebuildBoxCounts(id); });
}

void RunCounter::RebuildBoxCounts(TermNodeId id) {
  EnsureSlot(id);
  const Term& term = circuit_->term();
  const BinaryTva& tva = circuit_->tva();
  const size_t w = tva.num_states();
  uint64_t* counts = counts_.data() + static_cast<size_t>(id) * w;
  std::fill_n(counts, w, 0);
  const TermNode& t = term.node(id);

  if (t.left == kNoTerm) {
    // One run start per matching ι entry (each annotation choice of this
    // leaf contributes its entries).
    for (const auto& [vars, q] : tva.LeafInitsFor(t.label)) {
      (void)vars;
      counts[q] += 1;
    }
  } else {
    const uint64_t* lc = counts_.data() + static_cast<size_t>(t.left) * w;
    const uint64_t* rc = counts_.data() + static_cast<size_t>(t.right) * w;
    // Grouped-CSR δ: only live (q1, q2) pairs, no hash probe per pair.
    const std::vector<DeltaGroup>& groups = tva.DeltaGroupsFor(t.label);
    const State* results = tva.delta_results().data();
    for (const DeltaGroup& g : groups) {
      const uint64_t cl = lc[g.left];
      if (cl == 0) continue;
      const uint64_t cr = rc[g.right];
      if (cr == 0) continue;
      const uint64_t prod = cl * cr;
      for (uint32_t i = g.begin; i < g.end; ++i) counts[results[i]] += prod;
    }
  }
}

void RunCounter::FreeBoxCounts(TermNodeId id) {
  const size_t w = circuit_->width();
  size_t base = static_cast<size_t>(id) * w;
  if (base + w <= counts_.size()) {
    std::fill_n(counts_.begin() + base, w, 0);
  }
}

uint64_t RunCounter::Count(TermNodeId id, State q) const {
  const size_t w = circuit_->width();
  size_t base = static_cast<size_t>(id) * w;
  if (base + w > counts_.size()) return 0;
  return counts_[base + q];
}

uint64_t RunCounter::TotalAcceptingRuns(TermNodeId root) const {
  const BinaryTva& tva = circuit_->tva();
  uint64_t total = 0;
  for (State q : tva.final_states()) {
    total += Count(root, q);
  }
  return total;
}

}  // namespace treenum
