#include "counting/run_count.h"

#include <algorithm>

namespace treenum {

RunCounter::RunCounter(const AssignmentCircuit* circuit)
    : circuit_(circuit),
      mask_words_(static_cast<uint32_t>((circuit->width() + 63) / 64)),
      mask_scratch_(mask_words_),
      sum_scratch_(circuit->width()),
      left_scratch_(circuit->width()),
      right_scratch_(circuit->width()) {}

void RunCounter::BuildAll() {
  circuit_->term().ForEachPostOrder(
      [this](TermNodeId id) { RebuildBoxCounts(id); });
  store_.ReleaseRetired();
}

void RunCounter::RebuildBoxCounts(TermNodeId id) {
  const BinaryTva& tva = circuit_->tva();
  const TermNode& t = circuit_->term().node(id);
  uint64_t* mask = mask_scratch_.data();
  uint64_t* sum = sum_scratch_.data();
  std::fill_n(mask, mask_words_, uint64_t{0});
  // n more runs reach q: the first sets q's bit and its sum.
  auto add = [&](State q, uint64_t n) {
    const uint64_t bit = uint64_t{1} << (q & 63);
    sum[q] = (mask[q >> 6] & bit) ? sum[q] + n : n;
    mask[q >> 6] |= bit;
  };

  if (t.left == kNoTerm) {
    // One run start per matching ι entry (each annotation choice of this
    // leaf contributes its entries).
    for (const auto& [vars, q] : tva.LeafInitsFor(t.label)) {
      (void)vars;
      add(q, 1);
    }
  } else {
    // Each child's counts, spread out by state, and its mask; read before
    // this box's Ensure moves the pool.
    auto spread = [&](TermNodeId child, uint64_t* dense) {
      const uint64_t* m = store_.block(store_.entry(child));
      const uint64_t* row = m + mask_words_;
      ForEachState(m, mask_words_, [&](State q) { dense[q] = *row++; });
      return m;
    };
    const uint64_t* lc = left_scratch_.data();
    const uint64_t* rc = right_scratch_.data();
    const uint64_t* lm = spread(t.left, left_scratch_.data());
    const uint64_t* rm = spread(t.right, right_scratch_.data());
    // Grouped-CSR δ: only live (q1, q2) pairs, no hash probe per pair.
    const State* results = tva.delta_results().data();
    for (const DeltaGroup& g : tva.DeltaGroupsFor(t.label)) {
      if (!HasState(lm, g.left) || !HasState(rm, g.right)) continue;  // ⊥
      const uint64_t prod = lc[g.left] * rc[g.right];
      for (uint32_t i = g.begin; i < g.end; ++i) add(results[i], prod);
    }
  }

  uint32_t n = 0;
  for (uint32_t i = 0; i < mask_words_; ++i) n += __builtin_popcountll(mask[i]);
  uint64_t* block = store_.block(store_.Ensure(id, mask_words_ + n));
  std::copy_n(mask, mask_words_, block);
  uint64_t* row = block + mask_words_;
  ForEachState(mask, mask_words_, [&](State q) { *row++ = sum[q]; });
}

uint64_t RunCounter::Count(TermNodeId id, State q) const {
  if (id >= store_.id_bound() || store_.entry(id).block.cap == 0) return 0;
  const uint64_t* mask = store_.block(store_.entry(id));
  return HasState(mask, q) ? mask[mask_words_ + RankBelow(mask, q)] : 0;
}

uint64_t RunCounter::TotalAcceptingRuns(TermNodeId root) const {
  uint64_t total = 0;
  for (State q : circuit_->tva().final_states()) total += Count(root, q);
  return total;
}

std::string RunCounter::ValidateStorage() const {
  return store_.Validate("counts", circuit_->term(), [&](TermNodeId id,
                                                         const Entry& e)
                                                         -> const char* {
    if (e.block.cap == 0) return "has no count block";
    const uint64_t* mask = store_.block(e);
    const Box b = circuit_->box(id);
    size_t n = mask_words_;
    for (uint32_t i = 0; i < mask_words_; ++i) {
      if (mask[i] != (b.top_mask()[i] | b.union_mask()[i])) {
        return "count mask is not its top|union states";
      }
      n += __builtin_popcountll(mask[i]);
    }
    return e.block.len != n ? "count row length is not its state count"
                            : nullptr;
  });
}

}  // namespace treenum
