#include "enumeration/index.h"

#include <algorithm>
#include <cassert>

namespace treenum {

namespace {

constexpr int32_t kNoCand = -1;

/// Writes 32-bit lane i of a block (see BoxIndex::Lane).
void SetLane(uint64_t* block, size_t i, uint32_t v) {
  std::memcpy(reinterpret_cast<char*>(block) + 4 * i, &v, sizeof v);
}

/// Sets the diagonal of a zeroed n x n matrix of packed rows.
void FillIdentityWords(uint64_t* words, uint32_t n) {
  const size_t wpr = (n + 63) / 64;
  for (uint32_t i = 0; i < n; ++i) {
    words[i * wpr + i / 64] |= uint64_t{1} << (i % 64);
  }
}

// Closes `items` (candidate indices of a child box) under the child's
// pairwise lca table. Candidate indices follow preorder, so, as in a
// virtual-tree construction, the closure of the sorted set adds exactly
// the lcas of adjacent members.
void LcaClose(const BoxIndex& child, std::vector<int32_t>& items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  const size_t n = items.size();
  for (size_t i = 0; i + 1 < n; ++i) {
    items.push_back(child.Lca(items[i], items[i + 1]));
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
}

}  // namespace

uint32_t EnumIndex::BlockWords(size_t words) {
  TREENUM_CHECK(words <= (size_t{1} << 31), "index block exceeds 2^31 words");
  return static_cast<uint32_t>(std::max<size_t>(words, 8));
}

void EnumIndex::BuildAll() {
  circuit_->term().ForEachPostOrder(
      [this](TermNodeId id) { RebuildBoxIndex(id); });
  store_.ReleaseRetired();
}

BoxIndex EnumIndex::at(TermNodeId id) const {
  BoxIndex v;
  if (id >= store_.id_bound()) return v;
  const Entry& e = store_.entry(id);
  v.block_ = store_.block(e);
  v.shape_ = e.shape;
  return v;
}

void EnumIndex::RebuildBoxIndex(TermNodeId id) {
  const Box box = circuit_->box(id);
  const uint32_t nu = static_cast<uint32_t>(box.num_unions());
  if (nu == 0) {
    FreeBoxIndex(id);
    return;
  }

  // A leaf box has no children: every ∪-gate has var-gate inputs, so the
  // phases below give fib = span = self and no wire relations.
  const Term& term = circuit_->term();
  const bool leaf = term.IsLeaf(id);
  const TermNodeId lid = leaf ? kNoTerm : term.node(id).left;
  const TermNodeId rid = leaf ? kNoTerm : term.node(id).right;
  const Box lbox = leaf ? Box() : circuit_->box(lid);
  const Box rbox = leaf ? Box() : circuit_->box(rid);

  // ---- Phase 1: read the children into scratch and stage the candidates.
  // No pool mutation here, so the child views stay valid throughout.
  {
    const BoxIndex lidx = at(lid);
    const BoxIndex ridx = at(rid);

    // Per-gate child input lists as dense child ∪-gate indices.
    if (in_left_scratch_.size() < nu) {
      in_left_scratch_.resize(nu);
      in_right_scratch_.resize(nu);
    }
    for (uint32_t u = 0; u < nu; ++u) {
      in_left_scratch_[u].clear();
      in_right_scratch_[u].clear();
    }
    for (uint32_t u = 0; u < nu; ++u) {
      for (const auto& [side, state] : box.child_union_inputs(u)) {
        if (side == 0) {
          int32_t d = lbox.union_idx(state);
          assert(d != kNoGate);
          in_left_scratch_[u].push_back(static_cast<uint32_t>(d));
        } else {
          int32_t d = rbox.union_idx(state);
          assert(d != kNoGate);
          in_right_scratch_[u].push_back(static_cast<uint32_t>(d));
        }
      }
    }

    // Raw fib/span per gate: (source, child candidate index).
    fib_pre_scratch_.assign(nu, Pre{0, kNoCand});
    span_pre_scratch_.assign(nu, Pre{0, kNoCand});
    for (uint32_t u = 0; u < nu; ++u) {
      const std::vector<uint32_t>& inl = in_left_scratch_[u];
      const std::vector<uint32_t>& inr = in_right_scratch_[u];
      bool local = box.HasNonUnionInput(u);
      bool has_l = !inl.empty();
      bool has_r = !inr.empty();
      assert(local || has_l || has_r);
      // fib: Equation (3).
      if (local) {
        fib_pre_scratch_[u] = {0, kNoCand};
      } else if (has_l) {
        fib_pre_scratch_[u] = {1, lidx.FibLocal(inl)};
      } else {
        fib_pre_scratch_[u] = {2, ridx.FibLocal(inr)};
      }
      // span: lca of the gate's interesting boxes.
      if (local || (has_l && has_r)) {
        span_pre_scratch_[u] = {0, kNoCand};
      } else if (has_l) {
        span_pre_scratch_[u] = {1, lidx.SpanLocal(inl)};
      } else {
        span_pre_scratch_[u] = {2, ridx.SpanLocal(inr)};
      }
    }

    // Candidate collection + lca closure per side.
    used_l_scratch_.clear();
    used_r_scratch_.clear();
    bool use_self = false;
    for (uint32_t u = 0; u < nu; ++u) {
      for (const Pre& p : {fib_pre_scratch_[u], span_pre_scratch_[u]}) {
        if (p.source == 0) {
          use_self = true;
        } else if (p.source == 1) {
          used_l_scratch_.push_back(p.cc);
        } else {
          used_r_scratch_.push_back(p.cc);
        }
      }
    }
    if (!used_l_scratch_.empty()) LcaClose(lidx, used_l_scratch_);
    if (!used_r_scratch_.empty()) LcaClose(ridx, used_r_scratch_);
    if (!used_l_scratch_.empty() && !used_r_scratch_.empty()) use_self = true;

    // Stage the upcoming candidates in preorder (self, left child's in its
    // order, right child's) and record the child→new index maps.
    cand_meta_scratch_.clear();
    map_l_scratch_.assign(lidx.num_cands(), kNoCand);
    map_r_scratch_.assign(ridx.num_cands(), kNoCand);
    if (use_self) cand_meta_scratch_.push_back(CandMeta{id, 0, kNoCand, nu});
    for (int32_t cc : used_l_scratch_) {
      map_l_scratch_[cc] = static_cast<int32_t>(cand_meta_scratch_.size());
      cand_meta_scratch_.push_back(
          CandMeta{lidx.cand_box(cc), 1, cc,
                   static_cast<uint32_t>(lidx.cand_rel(cc).rows())});
    }
    for (int32_t cc : used_r_scratch_) {
      map_r_scratch_[cc] = static_cast<int32_t>(cand_meta_scratch_.size());
      cand_meta_scratch_.push_back(
          CandMeta{ridx.cand_box(cc), 2, cc,
                   static_cast<uint32_t>(ridx.cand_rel(cc).rows())});
    }
  }
  const uint32_t nc = static_cast<uint32_t>(cand_meta_scratch_.size());
  assert(nc > 0);
  const int32_t self_idx =
      cand_meta_scratch_[0].source == 0 ? 0 : kNoCand;

  // ---- Phase 2: size this box's block from the staged shapes and
  // (re)acquire it. Child views from phase 1 are dead past this point;
  // phase 3 re-resolves them.
  const BoxIndex::Layout shape{nc, nu,
                               static_cast<uint32_t>(lbox.num_unions()),
                               static_cast<uint32_t>(rbox.num_unions())};
  const size_t wpr = shape.wpr();
  size_t words = shape.rels_word();
  for (const CandMeta& m : cand_meta_scratch_) words += m.rows * wpr;
  Entry& e = store_.Ensure(id, BlockWords(words));
  e.shape = shape;

  // ---- Phase 3: fill. Reads child blocks, writes this box's block; no pool
  // mutation, so every view resolved below stays valid.
  const BoxIndex lidx = at(lid);
  const BoxIndex ridx = at(rid);
  uint64_t* block = store_.block(e);

  // Wire relations R(child, B) over the ∪→∪ (⊤-collapse) wires.
  uint64_t* wl = block + shape.wire_left_word();
  uint64_t* wr = block + shape.wire_right_word();
  std::fill(wl, block + shape.rels_word(), uint64_t{0});
  for (uint32_t u = 0; u < nu; ++u) {
    const uint64_t bit = uint64_t{1} << (u % 64);
    for (uint32_t d : in_left_scratch_[u]) wl[d * wpr + u / 64] |= bit;
    for (uint32_t d : in_right_scratch_[u]) wr[d * wpr + u / 64] |= bit;
  }

  // Candidate records and relations: self = identity, inherited = child rel
  // composed with the wire relation of that side (written wholesale by the
  // overwrite-semantics compose kernel, so only the identity is zeroed).
  const BitMatrixView wlv(wl, shape.lnu, nu);
  const BitMatrixView wrv(wr, shape.rnu, nu);
  size_t rel_word = shape.rels_word();
  for (uint32_t c = 0; c < nc; ++c) {
    const CandMeta& m = cand_meta_scratch_[c];
    const size_t lane = BoxIndex::Layout::cand_lane(c);
    SetLane(block, lane, m.box);
    SetLane(block, lane + 1, static_cast<uint32_t>(rel_word));
    SetLane(block, lane + 2, m.rows);
    uint64_t* dst = block + rel_word;
    if (m.source == 0) {
      std::fill(dst, dst + m.rows * wpr, uint64_t{0});
      FillIdentityWords(dst, nu);
    } else if (m.source == 1) {
      BitMatrixView::ComposeIntoWords(lidx.cand_rel(m.cc), wlv, dst);
    } else {
      BitMatrixView::ComposeIntoWords(ridx.cand_rel(m.cc), wrv, dst);
    }
    rel_word += m.rows * wpr;
  }

  // fib/span per gate, resolved to the new candidate indices.
  auto resolve = [&](const Pre& p) -> uint32_t {
    int32_t c = p.source == 0   ? self_idx
                : p.source == 1 ? map_l_scratch_[p.cc]
                                : map_r_scratch_[p.cc];
    assert(c != kNoCand);
    return static_cast<uint32_t>(c);
  };
  for (uint32_t u = 0; u < nu; ++u) {
    SetLane(block, shape.fib_lane() + u, resolve(fib_pre_scratch_[u]));
    SetLane(block, shape.span_lane() + u, resolve(span_pre_scratch_[u]));
  }

  // Pairwise candidate lca table.
  for (uint32_t a = 0; a < nc; ++a) {
    const CandMeta& ma = cand_meta_scratch_[a];
    for (uint32_t b = 0; b < nc; ++b) {
      const CandMeta& mb = cand_meta_scratch_[b];
      int32_t v = kNoCand;
      if (a == b) {
        v = static_cast<int32_t>(a);
      } else if (ma.source == 0 || mb.source == 0 || ma.source != mb.source) {
        assert(self_idx != kNoCand);
        v = self_idx;
      } else if (ma.source == 1) {
        v = map_l_scratch_[lidx.Lca(ma.cc, mb.cc)];
      } else {
        v = map_r_scratch_[ridx.Lca(ma.cc, mb.cc)];
      }
      assert(v != kNoCand);
      SetLane(block, shape.lca_lane() + static_cast<size_t>(a) * nc + b,
              static_cast<uint32_t>(v));
    }
  }
}

std::string EnumIndex::ValidateStorage() const {
  const Term& term = circuit_->term();
  auto alive = [&](TermNodeId id) { return term.IsAlive(id); };
  return store_.Validate("index box", alive, [&](TermNodeId id,
                                                 const Entry& e)
                                                 -> const char* {
    const uint32_t nu =
        static_cast<uint32_t>(circuit_->box(id).num_unions());
    const BoxIndex::Layout& s = e.shape;
    if (nu == 0) {
      return e.block.cap != 0 || s.nc != 0 ? "is gate-free but owns a block"
                                           : nullptr;
    }
    if (e.block.off % 8 != 0) return "block is not cache-line-aligned";
    if (s.nu != nu || s.nc == 0 || s.rels_word() > e.block.len) {
      return "has gates but a wrong gate or candidate count";
    }
    const bool leaf = term.IsLeaf(id);
    if (s.lnu != (leaf ? 0 : circuit_->box(term.node(id).left).num_unions()) ||
        s.rnu != (leaf ? 0 : circuit_->box(term.node(id).right).num_unions())) {
      return "wire shape mismatch";
    }
    const BoxIndex bi = at(id);
    size_t words = s.rels_word();
    for (uint32_t c = 0; c < s.nc; ++c) {
      const int32_t ci = static_cast<int32_t>(c);
      const TermNodeId cbox = bi.cand_box(ci);
      if (!term.IsAlive(cbox)) return "has a candidate naming a dead box";
      // Relations tile the section after the wires in candidate order.
      const BitMatrixView rel = bi.cand_rel(ci);
      if (rel.rows() != circuit_->box(cbox).num_unions() ||
          rel.Row(0) != bi.block_ + words) {
        return "has a candidate rel shape or offset mismatch";
      }
      words += rel.rows() * s.wpr();
    }
    if (e.block.len != BlockWords(words)) {
      return "block length does not match its layout";
    }
    for (uint32_t u = 0; u < nu; ++u) {
      if (static_cast<uint32_t>(bi.fib(u)) >= s.nc ||
          static_cast<uint32_t>(bi.span(u)) >= s.nc) {
        return "has fib/span out of candidate range";
      }
    }
    for (uint32_t a = 0; a < s.nc; ++a) {
      for (uint32_t b = 0; b < s.nc; ++b) {
        if (static_cast<uint32_t>(bi.Lca(static_cast<int32_t>(a),
                                         static_cast<int32_t>(b))) >= s.nc) {
          return "has its lca table out of candidate range";
        }
      }
    }
    return nullptr;
  });
}

}  // namespace treenum
