#include "circuit/circuit.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/check.h"

namespace treenum {

namespace {

/// Calls f(q) for every state q set in a `words`-word state mask, in
/// ascending order.
template <typename F>
void ForEachState(const uint64_t* mask, uint32_t words, F f) {
  for (uint32_t wi = 0; wi < words; ++wi) {
    for (uint64_t m = mask[wi]; m != 0; m &= m - 1) {
      f(static_cast<State>(wi * 64 + __builtin_ctzll(m)));
    }
  }
}

}  // namespace

AssignmentCircuit::AssignmentCircuit(const Term* term, const BinaryTva* tva,
                                     const std::vector<uint8_t>* kind)
    : term_(term),
      tva_(tva),
      kind_(kind),
      w_(static_cast<uint32_t>(tva->num_states())),
      mask_words_((w_ + 63) / 64) {
  TREENUM_CHECK(tva->num_states() <= kMaxCircuitWidth,
                "automaton too wide for 32-bit gate ids (w^2 must fit)");
  local_in_scratch_.resize(w_);
  child_in_scratch_.resize(w_);
  top_scratch_.resize(mask_words_, 0);
  union_scratch_.resize(mask_words_, 0);
  // Build the grouped-CSR δ cache now, while this thread owns the automaton:
  // circuits on other threads may share it, and the cache mutates on first
  // access.
  tva->EnsureDeltaGroups();
}

void AssignmentCircuit::EnsureSlot(TermNodeId id) {
  if (spans_.size() > id) return;
  size_t n = static_cast<size_t>(id) + 1;
  spans_.resize(n);
  masks_.resize(n * 2 * mask_words_, 0);
}

Box AssignmentCircuit::box(TermNodeId id) const {
  assert(id < spans_.size());
  Box b;
  b.top_mask_ = MaskRow(id);
  b.union_mask_ = b.top_mask_ + mask_words_;
  const BoxSpans& s = spans_[id];
  b.union_states_ = union_state_pool_.at(s.union_states.off);
  b.ends_ = ends_pool_.at(s.ends.off);
  b.cross_gates_ = cross_gate_pool_.at(s.cross_gates.off);
  b.cross_in_ = cross_in_pool_.at(s.cross_in.off);
  b.child_in_ = child_in_pool_.at(s.child_in.off);
  b.var_in_ = var_in_pool_.at(s.var_in.off);
  b.var_masks_ = var_mask_pool_.at(s.var_masks.off);
  b.num_unions_ = s.union_states.len;
  b.num_cross_gates_ = s.cross_gates.len;
  b.num_var_masks_ = s.var_masks.len;
  return b;
}

void AssignmentCircuit::BuildAll() {
  // Post-order over the term with an explicit stack.
  struct F {
    TermNodeId id;
    bool expanded;
  };
  std::vector<F> stack{{term_->root(), false}};
  while (!stack.empty()) {
    F f = stack.back();
    stack.pop_back();
    const TermNode& t = term_->node(f.id);
    if (!f.expanded && t.left != kNoTerm) {
      stack.push_back({f.id, true});
      stack.push_back({t.right, false});
      stack.push_back({t.left, false});
      continue;
    }
    RebuildBox(f.id);
  }
}

void AssignmentCircuit::RebuildBox(TermNodeId id) {
  EnsureSlot(id);
  if (term_->IsLeaf(id)) {
    BuildLeafBox(id);
  } else {
    BuildInternalBox(id);
  }
}

void AssignmentCircuit::FreeBox(TermNodeId id) {
  if (id >= spans_.size()) return;
  BoxSpans& s = spans_[id];
  union_state_pool_.Release(s.union_states);
  ends_pool_.Release(s.ends);
  cross_gate_pool_.Release(s.cross_gates);
  cross_in_pool_.Release(s.cross_in);
  child_in_pool_.Release(s.child_in);
  var_in_pool_.Release(s.var_in);
  var_mask_pool_.Release(s.var_masks);
  std::fill_n(MaskRow(id), 2 * mask_words_, uint64_t{0});
}

void AssignmentCircuit::ReserveForRebuild(size_t boxes) {
  size_t alive = term_->num_alive();
  if (alive == 0 || boxes == 0) return;
  // Per-box running averages (rounded up) scale the tail headroom.
  union_state_pool_.ReserveAdditional(boxes *
                                      (union_state_pool_.size() / alive + 1));
  ends_pool_.ReserveAdditional(boxes * (ends_pool_.size() / alive + 1));
  cross_gate_pool_.ReserveAdditional(boxes *
                                     (cross_gate_pool_.size() / alive + 1));
  cross_in_pool_.ReserveAdditional(boxes * (cross_in_pool_.size() / alive + 1));
  child_in_pool_.ReserveAdditional(boxes * (child_in_pool_.size() / alive + 1));
  var_in_pool_.ReserveAdditional(boxes * (var_in_pool_.size() / alive + 1));
  var_mask_pool_.ReserveAdditional(boxes * (var_mask_pool_.size() / alive + 1));
}

void AssignmentCircuit::BuildLeafBox(TermNodeId id) {
  std::fill(top_scratch_.begin(), top_scratch_.end(), uint64_t{0});
  std::fill(union_scratch_.begin(), union_scratch_.end(), uint64_t{0});
  var_masks_scratch_.clear();
  cross_gates_scratch_.clear();

  Label l = term_->node(id).label;
  for (const auto& [vars, q] : tva_->LeafInitsFor(l)) {
    const uint64_t bit = uint64_t{1} << (q & 63);
    if (vars == 0) {
      assert((*kind_)[q] == 0);
      top_scratch_[q >> 6] |= bit;
    } else {
      assert((*kind_)[q] == 1);
      // Dedup masks by first appearance; leaf alphabets keep this list tiny,
      // so a linear scan beats any map.
      uint32_t vi = 0;
      while (vi < var_masks_scratch_.size() && var_masks_scratch_[vi] != vars) {
        ++vi;
      }
      if (vi == var_masks_scratch_.size()) var_masks_scratch_.push_back(vars);
      union_scratch_[q >> 6] |= bit;
      local_in_scratch_[q].push_back(vi);
    }
  }
  CommitUnions(id, /*is_leaf=*/true);
}

void AssignmentCircuit::BuildInternalBox(TermNodeId id) {
  const uint32_t mw = mask_words_;
  const TermNode& t = term_->node(id);
  // The children's masks live in masks_, which cannot move during this
  // rebuild (EnsureSlot ran already and CommitUnions grows only the pools),
  // so raw child pointers are safe to hold.
  const uint64_t* lt = MaskRow(t.left);
  const uint64_t* lu = lt + mw;
  const uint64_t* rt = MaskRow(t.right);
  const uint64_t* ru = rt + mw;
  Label l = t.label;

  std::fill(top_scratch_.begin(), top_scratch_.end(), uint64_t{0});
  std::fill(union_scratch_.begin(), union_scratch_.end(), uint64_t{0});
  uint64_t* top = top_scratch_.data();
  uint64_t* uni = union_scratch_.data();
  cross_gates_scratch_.clear();
  var_masks_scratch_.clear();

  // Iterate the grouped-CSR form of δ|l: one group per live (q1, q2) pair
  // instead of a w x w scan with a hash probe per pair — sparse automata
  // touch only |δ|l| groups, and the flat result array replaces 2.8e7-scale
  // hash lookups on large relabel batches.
  const std::vector<DeltaGroup>& groups = tva_->DeltaGroupsFor(l);
  const State* results = tva_->delta_results().data();
  for (const DeltaGroup& g : groups) {
    const uint64_t lbit = uint64_t{1} << (g.left & 63);
    const bool l_top = (lt[g.left >> 6] & lbit) != 0;
    if (!l_top && !(lu[g.left >> 6] & lbit)) continue;  // γ(left, q1) = ⊥
    const uint64_t rbit = uint64_t{1} << (g.right & 63);
    const bool r_top = (rt[g.right >> 6] & rbit) != 0;
    if (!r_top && !(ru[g.right >> 6] & rbit)) continue;  // γ(right, q2) = ⊥
    // Each (q1, q2) pair owns exactly one group, so the shared ×-gate
    // д^{q1,q2} is created lazily on its first live result state.
    int32_t cross_id = -1;
    for (uint32_t i = g.begin; i < g.end; ++i) {
      State q = results[i];
      const uint64_t bit = uint64_t{1} << (q & 63);
      if (l_top && r_top) {
        assert((*kind_)[q] == 0 && "homogenization violated");
        top[q >> 6] |= bit;
        continue;
      }
      uni[q >> 6] |= bit;
      if (l_top) {
        // д^{q1,q2} collapses to γ(right, q2).
        child_in_scratch_[q].push_back(ChildUnionInput{uint8_t{1}, g.right});
      } else if (r_top) {
        child_in_scratch_[q].push_back(ChildUnionInput{uint8_t{0}, g.left});
      } else {
        if (cross_id < 0) {
          cross_id = static_cast<int32_t>(cross_gates_scratch_.size());
          cross_gates_scratch_.push_back(CrossGate{g.left, g.right});
        }
        local_in_scratch_[q].push_back(static_cast<uint32_t>(cross_id));
      }
    }
  }
  CommitUnions(id, /*is_leaf=*/false);
}

void AssignmentCircuit::CommitUnions(TermNodeId id, bool is_leaf) {
  const uint32_t mw = mask_words_;
  const uint64_t* top = top_scratch_.data();
  const uint64_t* uni = union_scratch_.data();
  BoxSpans& s = spans_[id];

  uint32_t nu = 0;
  // 64-bit accumulators: a box can hold up to w^3 input entries (one per
  // (q1, q2, result) triple), which overflows uint32_t long before the
  // kMaxCircuitWidth bound does — check loudly instead of wrapping.
  uint64_t nlocal = 0;
  uint64_t nchild = 0;
  ForEachState(uni, mw, [&](State q) {
    assert(!(top[q >> 6] & (uint64_t{1} << (q & 63))) &&
           "homogenization violated");
    nlocal += local_in_scratch_[q].size();
    nchild += child_in_scratch_[q].size();
    ++nu;
  });
  TREENUM_CHECK(nlocal <= (uint64_t{1} << 31) && nchild <= (uint64_t{1} << 31),
                "box wire lists exceed 32-bit CSR offsets");

  // Span turnover: each pool span is reused in place when its capacity
  // suffices (Ensure), so steady-state refreshes stay allocation-free.
  union_state_pool_.Ensure(s.union_states, nu);
  ends_pool_.Ensure(s.ends, nu);
  cross_gate_pool_.Ensure(s.cross_gates,
                          static_cast<uint32_t>(cross_gates_scratch_.size()));
  var_mask_pool_.Ensure(s.var_masks,
                        static_cast<uint32_t>(var_masks_scratch_.size()));
  uint32_t nlocal32 = static_cast<uint32_t>(nlocal);
  cross_in_pool_.Ensure(s.cross_in, is_leaf ? 0 : nlocal32);
  var_in_pool_.Ensure(s.var_in, is_leaf ? nlocal32 : 0);
  child_in_pool_.Ensure(s.child_in, static_cast<uint32_t>(nchild));

  std::copy_n(top, mw, MaskRow(id));
  std::copy_n(uni, mw, MaskRow(id) + mw);
  std::copy(cross_gates_scratch_.begin(), cross_gates_scratch_.end(),
            cross_gate_pool_.at(s.cross_gates.off));
  std::copy(var_masks_scratch_.begin(), var_masks_scratch_.end(),
            var_mask_pool_.at(s.var_masks.off));

  // ∪-gates in ascending state order, so a gate's dense index is the rank
  // of its state in the ∪ mask (Box::union_idx).
  State* ustates = union_state_pool_.at(s.union_states.off);
  GateEnds* ends = ends_pool_.at(s.ends.off);
  uint32_t* local_dst = is_leaf ? var_in_pool_.at(s.var_in.off)
                                : cross_in_pool_.at(s.cross_in.off);
  ChildUnionInput* child_dst = child_in_pool_.at(s.child_in.off);
  uint32_t u = 0;
  uint32_t lo = 0;
  uint32_t ch = 0;
  ForEachState(uni, mw, [&](State q) {
    ustates[u] = q;
    std::vector<uint32_t>& local = local_in_scratch_[q];
    std::vector<ChildUnionInput>& child = child_in_scratch_[q];
    std::copy(local.begin(), local.end(), local_dst + lo);
    std::copy(child.begin(), child.end(), child_dst + ch);
    lo += static_cast<uint32_t>(local.size());
    ch += static_cast<uint32_t>(child.size());
    local.clear();
    child.clear();
    ends[u].cross_end = is_leaf ? 0 : lo;
    ends[u].var_end = is_leaf ? lo : 0;
    ends[u].child_end = ch;
    ++u;
  });
}

size_t AssignmentCircuit::CountGates() const {
  size_t n = 0;
  for (TermNodeId id = 0; id < spans_.size(); ++id) {
    if (!term_->IsAlive(id)) continue;
    const BoxSpans& s = spans_[id];
    n += w_;  // γ gates (⊤/⊥/∪)
    n += s.cross_gates.len;
    n += s.var_masks.len;
  }
  return n;
}

std::string AssignmentCircuit::ValidateStorage() const {
  std::ostringstream err;
  std::vector<LiveSpan> us, en, cg, ci, ch, vi, vm;
  // Bits at or above w in the last mask word must stay clear.
  const uint64_t tail_mask =
      w_ % 64 == 0 ? 0 : ~((uint64_t{1} << (w_ % 64)) - 1);
  for (TermNodeId id = 0; id < spans_.size(); ++id) {
    if (!term_->IsAlive(id)) continue;
    const BoxSpans& s = spans_[id];
    const uint32_t nu = s.union_states.len;
    if (s.ends.len != nu) {
      err << "box " << id << " CSR end table does not match its union count";
      return err.str();
    }
    if (term_->IsLeaf(id)) {
      if (s.cross_gates.len != 0 || s.cross_in.len != 0 ||
          s.child_in.len != 0) {
        err << "leaf box " << id << " owns internal-box wires";
        return err.str();
      }
    } else if (s.var_in.len != 0 || s.var_masks.len != 0) {
      err << "internal box " << id << " owns var gates";
      return err.str();
    }
    for (const auto& [ref, out] :
         {std::make_pair(&s.union_states, &us), std::make_pair(&s.ends, &en),
          std::make_pair(&s.cross_gates, &cg), std::make_pair(&s.cross_in, &ci),
          std::make_pair(&s.child_in, &ch), std::make_pair(&s.var_in, &vi),
          std::make_pair(&s.var_masks, &vm)}) {
      if (ref->len > ref->cap) {
        err << "box " << id << " span length exceeds capacity";
        return err.str();
      }
      if (ref->cap != 0) out->push_back(LiveSpan{ref->off, ref->cap, id});
    }
    // The ⊤ and ∪ masks are disjoint, clear at and above w, and the ∪-state
    // table lists exactly the ∪ mask's set bits in ascending order.
    const uint64_t* top = MaskRow(id);
    const uint64_t* uni = top + mask_words_;
    for (uint32_t wi = 0; wi < mask_words_; ++wi) {
      if ((top[wi] & uni[wi]) != 0) {
        err << "box " << id << " has a state that is both top and union";
        return err.str();
      }
      if (wi + 1 == mask_words_ && ((top[wi] | uni[wi]) & tail_mask) != 0) {
        err << "box " << id << " has a mask bit at or above the width";
        return err.str();
      }
    }
    const State* ustates = union_state_pool_.at(s.union_states.off);
    uint32_t seen = 0;
    bool table_ok = true;
    ForEachState(uni, mask_words_, [&](State q) {
      table_ok = table_ok && seen < nu && ustates[seen] == q;
      ++seen;
    });
    if (!table_ok || seen != nu) {
      err << "box " << id << " union state table does not list its union mask";
      return err.str();
    }
    // CSR ends must be monotone and bounded by the span lengths.
    const GateEnds* ends = ends_pool_.at(s.ends.off);
    uint32_t pc = 0, ph = 0, pv = 0;
    for (uint32_t u = 0; u < nu; ++u) {
      const GateEnds& e = ends[u];
      if (e.cross_end < pc || e.child_end < ph || e.var_end < pv ||
          e.cross_end > s.cross_in.len || e.child_end > s.child_in.len ||
          e.var_end > s.var_in.len) {
        err << "box " << id << " CSR offsets broken at gate " << u;
        return err.str();
      }
      pc = e.cross_end;
      ph = e.child_end;
      pv = e.var_end;
    }
    if (nu > 0 &&
        (pc != s.cross_in.len || ph != s.child_in.len || pv != s.var_in.len)) {
      err << "box " << id << " CSR tail does not cover its span";
      return err.str();
    }
  }
  std::string e;
  if (!(e = CheckPoolSpans("union_state", union_state_pool_.size(), us))
           .empty())
    return e;
  if (!(e = CheckPoolSpans("ends", ends_pool_.size(), en)).empty()) return e;
  if (!(e = CheckPoolSpans("cross_gate", cross_gate_pool_.size(), cg)).empty())
    return e;
  if (!(e = CheckPoolSpans("cross_in", cross_in_pool_.size(), ci)).empty())
    return e;
  if (!(e = CheckPoolSpans("child_in", child_in_pool_.size(), ch)).empty())
    return e;
  if (!(e = CheckPoolSpans("var_in", var_in_pool_.size(), vi)).empty())
    return e;
  if (!(e = CheckPoolSpans("var_mask", var_mask_pool_.size(), vm)).empty())
    return e;
  return std::string();
}

}  // namespace treenum
