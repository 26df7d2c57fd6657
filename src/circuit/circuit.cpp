#include "circuit/circuit.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "automata/homogenize.h"
#include "util/check.h"

namespace treenum {

namespace {

// A box's lane sections hold 32-bit values and pairs of them.
static_assert(sizeof(State) == 4 && sizeof(VarMask) == 4 &&
                  sizeof(CrossGate) == 8,
              "Layout counts 32-bit lanes");

/// Copies n values of T to `lane` of a block's lane section. memcpy
/// creates the T objects that Box then reads as T.
template <typename T>
void PutLanes(char* lanes, size_t lane, const T* src, size_t n) {
  if (n != 0) std::memcpy(lanes + 4 * lane, src, n * sizeof(T));
}

template <typename T>
const T* LanesAs(const char* lanes, size_t lane) {
  return reinterpret_cast<const T*>(lanes + 4 * lane);
}

uint64_t HashKey(const uint64_t* key, size_t words) {
  uint64_t h = 0;  // each step is a bijection of h
  for (size_t i = 0; i < words; ++i) h = (h ^ key[i]) * 0x9e3779b97f4a7c15ULL;
  return FingerprintMix(h);
}

}  // namespace

AssignmentCircuit::AssignmentCircuit(const Term* term, const BinaryTva* tva,
                                     const std::vector<uint8_t>* kind)
    : term_(term),
      tva_(tva),
      kind_(kind),
      w_(static_cast<uint32_t>(tva->num_states())),
      mask_words_((w_ + 63) / 64),
      key_words_(1 + 4 * mask_words_) {
  TREENUM_CHECK(tva->num_states() <= kMaxCircuitWidth,
                "automaton too wide for 32-bit gate ids (w^2 must fit)");
  local_in_scratch_.resize(w_);
  wire_in_scratch_.resize(w_);
  top_scratch_.resize(mask_words_, 0);
  union_scratch_.resize(mask_words_, 0);
  key_scratch_.resize(key_words_);
  buckets_.assign(64, kNoBlock);
  // Build the grouped-CSR δ cache now, while this thread owns the automaton:
  // circuits on other threads may share it, and the cache mutates on first
  // access.
  tva->EnsureDeltaGroups();
}

Box AssignmentCircuit::box(TermNodeId id) const {
  assert(id < refs_.size() && refs_[id] != kNoBlock);
  return BlockView(refs_[id]);
}

Box AssignmentCircuit::BlockView(uint32_t block_id) const {
  const Entry& e = store_.entry(block_id);
  const Layout& s = e.shape;
  const uint64_t* block = store_.block(e);
  const uint64_t* wires = block + 2 * mask_words_;
  const char* lanes = reinterpret_cast<const char*>(wires + s.wire_words());
  Box b;
  b.top_mask_ = block;
  b.union_mask_ = block + mask_words_;
  b.wires_ = wires;
  b.union_states_ = LanesAs<State>(lanes, Layout::states_lane());
  b.ends_ = LanesAs<uint32_t>(lanes, s.ends_lane());
  b.cross_gates_ = LanesAs<CrossGate>(lanes, s.cross_lane());
  b.var_masks_ = LanesAs<VarMask>(lanes, s.var_lane());
  b.local_in_ = LanesAs<uint32_t>(lanes, s.local_lane());
  b.num_unions_ = s.nu;
  b.num_left_unions_ = s.lnu;
  b.num_right_unions_ = s.rnu;
  b.num_cross_gates_ = s.ncross;
  b.num_var_masks_ = s.nvar;
  return b;
}

void AssignmentCircuit::BuildAll() {
  term_->ForEachPostOrder([this](TermNodeId id) { RebuildBox(id); });
  ReleaseRetired();
}

void AssignmentCircuit::RebuildBox(TermNodeId id) {
  uint64_t* key = key_scratch_.data();
  KeyOf(id, key);
  const uint64_t hash = HashKey(key, key_words_);
  uint32_t b = Lookup(key, hash);
  if (b == kNoBlock) {
    b = AddBlock(hash);
  } else {
    ++meta_[b].uses;
  }
  // The new use comes first: a refresh that keeps its key keeps its block.
  if (refs_.size() <= id) refs_.resize(size_t{id} + 1, kNoBlock);
  const uint32_t old = refs_[id];
  refs_[id] = b;
  if (old != kNoBlock) Release(old);
}

void AssignmentCircuit::FreeBox(TermNodeId id) {
  if (id >= refs_.size() || refs_[id] == kNoBlock) return;
  Release(refs_[id]);
  refs_[id] = kNoBlock;
}

void AssignmentCircuit::KeyOf(TermNodeId id, uint64_t* key) const {
  const TermNode& t = term_->node(id);
  key[0] = uint64_t{t.label} << 1 | (t.left == kNoTerm ? 1 : 0);
  const size_t mw2 = 2 * size_t{mask_words_};
  if (t.left == kNoTerm) {
    std::fill_n(key + 1, 2 * mw2, uint64_t{0});
    return;
  }
  // A block starts with its ⊤ mask and then its ∪ mask.
  std::copy_n(store_.block(store_.entry(refs_[t.left])), mw2, key + 1);
  std::copy_n(store_.block(store_.entry(refs_[t.right])), mw2, key + 1 + mw2);
}

uint32_t AssignmentCircuit::Lookup(const uint64_t* key, uint64_t hash) const {
  uint32_t b = buckets_[hash & (buckets_.size() - 1)];
  while (b != kNoBlock && (meta_[b].hash != hash ||
                           !std::equal(key, key + key_words_, KeyAt(b)))) {
    b = meta_[b].next;
  }
  return b;
}

uint32_t AssignmentCircuit::AddBlock(uint64_t hash) {
  uint32_t b = static_cast<uint32_t>(meta_.size());
  if (free_blocks_.empty()) {
    meta_.emplace_back();
    keys_.resize(keys_.size() + key_words_);
  } else {
    b = free_blocks_.back();
    free_blocks_.pop_back();
  }
  std::copy_n(key_scratch_.data(), key_words_,
              keys_.data() + size_t{b} * key_words_);
  StageBox(key_scratch_.data());
  CommitBox(b);
  meta_[b] = BlockMeta{hash, 1, kNoBlock};
  auto link = [this](uint32_t c) {
    uint32_t& head = buckets_[meta_[c].hash & (buckets_.size() - 1)];
    meta_[c].next = head;
    head = c;
  };
  if (num_blocks() <= buckets_.size()) {
    link(b);
  } else {  // keep chains short: double the heads and refile every block
    buckets_.assign(2 * buckets_.size(), kNoBlock);
    for (uint32_t c = 0; c < meta_.size(); ++c) {
      if (meta_[c].uses != 0) link(c);
    }
  }
  return b;
}

void AssignmentCircuit::Release(uint32_t b) {
  assert(meta_[b].uses != 0);
  if (--meta_[b].uses != 0) return;
  uint32_t* link = &buckets_[meta_[b].hash & (buckets_.size() - 1)];
  while (*link != b) link = &meta_[*link].next;
  *link = meta_[b].next;
  store_.Free(b);
  free_blocks_.push_back(b);
}

void AssignmentCircuit::StageBox(const uint64_t* key) {
  std::fill(top_scratch_.begin(), top_scratch_.end(), uint64_t{0});
  std::fill(union_scratch_.begin(), union_scratch_.end(), uint64_t{0});
  var_masks_scratch_.clear();
  cross_gates_scratch_.clear();
  uint64_t* top = top_scratch_.data();
  uint64_t* uni = union_scratch_.data();
  const Label l = static_cast<Label>(key[0] >> 1);
  lnu_scratch_ = rnu_scratch_ = 0;
  if (key[0] & 1) {  // a leaf
    for (const auto& [vars, q] : tva_->LeafInitsFor(l)) {
      const uint64_t bit = uint64_t{1} << (q & 63);
      if (vars == 0) {
        assert((*kind_)[q] == 0);
        top[q >> 6] |= bit;
        continue;
      }
      assert((*kind_)[q] == 1);
      // Dedup masks by first appearance; leaf alphabets keep this list
      // tiny, so a linear scan beats any map.
      uint32_t vi = 0;
      while (vi < var_masks_scratch_.size() && var_masks_scratch_[vi] != vars) {
        ++vi;
      }
      if (vi == var_masks_scratch_.size()) var_masks_scratch_.push_back(vars);
      uni[q >> 6] |= bit;
      local_in_scratch_[q].push_back(vi);
    }
    return;
  }
  // The key holds the children's masks: the box reads nothing else.
  const uint32_t mw = mask_words_;
  const uint64_t* lt = key + 1;
  const uint64_t* lu = lt + mw;
  const uint64_t* rt = lu + mw;
  const uint64_t* ru = rt + mw;
  for (uint32_t i = 0; i < mw; ++i) {
    lnu_scratch_ += __builtin_popcountll(lu[i]);
    rnu_scratch_ += __builtin_popcountll(ru[i]);
  }

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
        // д^{q1,q2} collapses to γ(right, q2): a row of the right wires.
        wire_in_scratch_[q].push_back(lnu_scratch_ + RankBelow(ru, g.right));
      } else if (r_top) {
        wire_in_scratch_[q].push_back(RankBelow(lu, g.left));
      } else {
        if (cross_id < 0) {
          cross_id = static_cast<int32_t>(cross_gates_scratch_.size());
          cross_gates_scratch_.push_back(CrossGate{g.left, g.right});
        }
        local_in_scratch_[q].push_back(static_cast<uint32_t>(cross_id));
      }
    }
  }
}

void AssignmentCircuit::CommitBox(uint32_t b) {
  const uint32_t mw = mask_words_;
  const uint64_t* top = top_scratch_.data();
  const uint64_t* uni = union_scratch_.data();

  Layout s;
  s.lnu = lnu_scratch_;
  s.rnu = rnu_scratch_;
  s.ncross = static_cast<uint32_t>(cross_gates_scratch_.size());
  s.nvar = static_cast<uint32_t>(var_masks_scratch_.size());
  // A 64-bit accumulator: a box can hold up to w^3 local inputs (one per
  // (q1, q2, result) triple), which overflows uint32_t long before the
  // kMaxCircuitWidth bound does — check loudly instead of wrapping.
  uint64_t nlocal = 0;
  ForEachState(uni, mw, [&](State q) {
    assert(!(top[q >> 6] & (uint64_t{1} << (q & 63))) &&
           "homogenization violated");
    nlocal += local_in_scratch_[q].size();
    ++s.nu;
  });
  TREENUM_CHECK(nlocal <= (uint64_t{1} << 31),
                "box input lists exceed 32-bit CSR offsets");
  s.nlocal = static_cast<uint32_t>(nlocal);
  const size_t words = s.words(mw);
  TREENUM_CHECK(words <= (size_t{1} << 31), "circuit box exceeds 2^31 words");

  // A freed block's span is recycled through the pool's free lists, so
  // steady-state misses stay allocation-free.
  Entry& e = store_.Ensure(b, static_cast<uint32_t>(words));
  e.shape = s;
  uint64_t* block = store_.block(e);
  // An odd lane count leaves half a word unwritten.
  if (words != 0) block[words - 1] = 0;
  std::copy_n(top, mw, block);
  std::copy_n(uni, mw, block + mw);
  uint64_t* wires = block + 2 * mw;
  std::fill_n(wires, s.wire_words(), uint64_t{0});
  char* lanes = reinterpret_cast<char*>(wires + s.wire_words());
  PutLanes(lanes, s.cross_lane(), cross_gates_scratch_.data(), s.ncross);
  PutLanes(lanes, s.var_lane(), var_masks_scratch_.data(), s.nvar);

  // ∪-gates in ascending state order, so a gate's dense index is the rank
  // of its state in the ∪ mask (Box::union_idx). Gate u sets bit u in the
  // row of each of its wire inputs; a repeated input sets it once.
  uint32_t u = 0;
  uint32_t end = 0;
  ForEachState(uni, mw, [&](State q) {
    std::vector<uint32_t>& local = local_in_scratch_[q];
    std::vector<uint32_t>& wired = wire_in_scratch_[q];
    PutLanes(lanes, Layout::states_lane() + u, &q, 1);
    PutLanes(lanes, s.local_lane() + end, local.data(), local.size());
    end += static_cast<uint32_t>(local.size());
    PutLanes(lanes, s.ends_lane() + u, &end, 1);
    const uint64_t bit = uint64_t{1} << (u % 64);
    for (uint32_t row : wired) wires[row * s.wire_wpr() + u / 64] |= bit;
    local.clear();
    wired.clear();
    ++u;
  });
}

size_t AssignmentCircuit::CountGates() const {
  size_t n = 0;
  for (TermNodeId id = 0; id < refs_.size(); ++id) {
    if (!term_->IsAlive(id)) continue;
    const Layout& s = store_.entry(refs_[id]).shape;
    n += w_;  // γ gates (⊤/⊥/∪)
    n += s.ncross;
    n += s.nvar;
  }
  return n;
}

std::string AssignmentCircuit::ValidateStorage() const {
  // Sharing: alive ids name live blocks and dead ids none, a block's uses
  // count the ids naming it, and each of them derives the block's key.
  auto bad_id = [](TermNodeId id, const char* what) {
    return "circuit box " + std::to_string(id) + " " + what;
  };
  std::vector<uint32_t> named(meta_.size(), 0);
  for (TermNodeId id = 0; id < term_->id_bound(); ++id) {
    const uint32_t b = id < refs_.size() ? refs_[id] : kNoBlock;
    if (!term_->IsAlive(id)) {
      if (b != kNoBlock) return bad_id(id, "is dead but names a block");
    } else if (b >= meta_.size() || meta_[b].uses == 0) {
      return bad_id(id, "names no live block");
    } else {
      ++named[b];
    }
  }
  std::vector<uint64_t> derived(key_words_);
  for (TermNodeId id = 0; id < refs_.size(); ++id) {
    if (!term_->IsAlive(id)) continue;
    KeyOf(id, derived.data());
    if (!std::equal(derived.begin(), derived.end(), KeyAt(refs_[id]))) {
      return bad_id(id, "names a block of another key");
    }
  }
  size_t chained = 0;  // Lookup below finds every live block on its chain
  for (uint32_t b : buckets_) {
    for (; b != kNoBlock; b = meta_[b].next) ++chained;
  }
  if (chained != num_blocks()) return "circuit hash chains hold a free block";

  // Bits at or above w in the last mask word must stay clear.
  const uint64_t tail_mask =
      w_ % 64 == 0 ? 0 : ~((uint64_t{1} << (w_ % 64)) - 1);
  AssignmentCircuit fresh(term_, tva_, kind_);  // builds blocks from keys
  auto alive = [&](uint32_t b) {
    return b < meta_.size() && meta_[b].uses != 0;
  };
  return store_.Validate("circuit block", alive, [&](uint32_t id,
                                                     const Entry& e)
                                                     -> const char* {
    const Layout& s = e.shape;
    const uint64_t* key = KeyAt(id);
    if (meta_[id].uses != named[id]) return "has uses other than its ids";
    if (meta_[id].hash != HashKey(key, key_words_) ||
        Lookup(key, meta_[id].hash) != id) {
      return "is not the one block its hash chain finds under its key";
    }
    if (e.block.cap == 0 || e.block.len != s.words(mask_words_)) {
      return "block length does not match its layout";
    }
    if (key[0] & 1 ? s.ncross != 0 : s.nvar != 0) {
      return "owns gates of the other box kind";
    }
    const Box b = BlockView(id);
    // The ⊤ and ∪ masks are disjoint, clear at and above w, and the ∪-state
    // table lists exactly the ∪ mask's set bits in ascending order.
    for (uint32_t wi = 0; wi < mask_words_; ++wi) {
      const uint64_t top = b.top_mask_[wi];
      const uint64_t uni = b.union_mask_[wi];
      if ((top & uni) != 0) return "has a state that is both top and union";
      if (wi + 1 == mask_words_ && ((top | uni) & tail_mask) != 0) {
        return "has a mask bit at or above the width";
      }
    }
    uint32_t seen = 0;
    bool table_ok = true;
    ForEachState(b.union_mask_, mask_words_, [&](State q) {
      table_ok = table_ok && seen < s.nu && b.union_state(seen) == q;
      ++seen;
    });
    if (!table_ok || seen != s.nu) {
      return "union state table does not list its union mask";
    }
    // CSR ends are monotone and end exactly at their section's end.
    uint32_t prev = 0;
    for (uint32_t u = 0; u < s.nu; ++u) {
      if (b.ends_[u] < prev || b.ends_[u] > s.nlocal) {
        return "has broken CSR offsets";
      }
      prev = b.ends_[u];
    }
    if (prev != s.nlocal) return "CSR tail does not cover its section";
    // Every ∪-gate has an input, local or wired, and no wire row has a bit
    // at or above the box's ∪-gate count.
    const size_t wpr = s.wire_wpr();
    std::vector<uint64_t> wired(wpr, 0);
    for (size_t i = 0; i < s.wire_words(); ++i) wired[i % wpr] |= b.wires_[i];
    for (uint32_t u = 0; u < s.nu; ++u) {
      if (!b.HasNonUnionInput(u) && !HasState(wired.data(), u)) {
        return "has a union gate without inputs";
      }
    }
    if (s.nu % 64 != 0 && (wired[wpr - 1] >> (s.nu % 64)) != 0) {
      return "has a wire bit at or above its union gate count";
    }
    // A block is a pure function of its key.
    fresh.StageBox(key);
    fresh.CommitBox(0);
    const Entry& f = fresh.store_.entry(0);
    const uint64_t* block = store_.block(e);
    if (std::memcmp(&f.shape, &s, sizeof s) != 0 ||
        !std::equal(block, block + e.block.len, fresh.store_.block(f))) {
      return "differs from the block its key builds";
    }
    return nullptr;
  });
}

}  // namespace treenum
