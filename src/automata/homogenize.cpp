#include "automata/homogenize.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <tuple>

namespace treenum {

StateKinds ComputeStateKinds(const BinaryTva& a) {
  StateKinds kinds;
  kinds.zero_state.assign(a.num_states(), false);
  kinds.one_state.assign(a.num_states(), false);

  for (const LeafInit& li : a.leaf_inits()) {
    if (li.vars == 0) {
      kinds.zero_state[li.state] = true;
    } else {
      kinds.one_state[li.state] = true;
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (const Transition& t : a.transitions()) {
      bool l0 = kinds.zero_state[t.left], l1 = kinds.one_state[t.left];
      bool r0 = kinds.zero_state[t.right], r1 = kinds.one_state[t.right];
      // 0-state: both children reached under empty valuations.
      if (l0 && r0 && !kinds.zero_state[t.state]) {
        kinds.zero_state[t.state] = true;
        changed = true;
      }
      // 1-state: at least one child is a 1-state, the other reachable at all.
      bool l_any = l0 || l1;
      bool r_any = r0 || r1;
      if (((l1 && r_any) || (r1 && l_any)) && !kinds.one_state[t.state]) {
        kinds.one_state[t.state] = true;
        changed = true;
      }
    }
  }
  return kinds;
}

bool IsHomogenized(const BinaryTva& a) {
  StateKinds k = ComputeStateKinds(a);
  for (State q = 0; q < a.num_states(); ++q) {
    if (!(k.zero_state[q] ^ k.one_state[q])) return false;
  }
  return true;
}

BinaryTva TrimBinaryTva(const BinaryTva& a, std::vector<State>* old_to_new) {
  std::vector<bool> reachable(a.num_states(), false);
  for (const LeafInit& li : a.leaf_inits()) reachable[li.state] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Transition& t : a.transitions()) {
      if (reachable[t.left] && reachable[t.right] && !reachable[t.state]) {
        reachable[t.state] = true;
        changed = true;
      }
    }
  }

  std::vector<State> map(a.num_states(), kNoState);
  State next = 0;
  for (State q = 0; q < a.num_states(); ++q) {
    if (reachable[q]) map[q] = next++;
  }

  BinaryTva out(next, a.num_labels(), a.num_vars());
  for (const LeafInit& li : a.leaf_inits()) {
    out.AddLeafInit(li.label, li.vars, map[li.state]);
  }
  for (const Transition& t : a.transitions()) {
    if (reachable[t.left] && reachable[t.right]) {
      out.AddTransition(t.label, map[t.left], map[t.right], map[t.state]);
    }
  }
  for (State q : a.final_states()) {
    if (reachable[q]) out.AddFinal(map[q]);
  }
  if (old_to_new) *old_to_new = std::move(map);
  return out;
}

HomogenizedTva HomogenizeBinaryTva(const BinaryTva& a) {
  // Product states: (q, bit) -> 2*q + bit.
  size_t n = a.num_states();
  BinaryTva prod(2 * n, a.num_labels(), a.num_vars());
  for (const LeafInit& li : a.leaf_inits()) {
    uint32_t bit = li.vars == 0 ? 0 : 1;
    prod.AddLeafInit(li.label, li.vars, 2 * li.state + bit);
  }
  for (const Transition& t : a.transitions()) {
    for (uint32_t b1 = 0; b1 <= 1; ++b1) {
      for (uint32_t b2 = 0; b2 <= 1; ++b2) {
        prod.AddTransition(t.label, 2 * t.left + b1, 2 * t.right + b2,
                           2 * t.state + (b1 | b2));
      }
    }
  }
  for (State q : a.final_states()) {
    prod.AddFinal(2 * q);
    prod.AddFinal(2 * q + 1);
  }

  std::vector<State> map;
  BinaryTva trimmed = TrimBinaryTva(prod, &map);

  HomogenizedTva out{std::move(trimmed), {}};
  out.kind.assign(out.tva.num_states(), 0);
  for (State old = 0; old < 2 * n; ++old) {
    if (map[old] != kNoState) out.kind[map[old]] = old & 1;
  }
  assert(IsHomogenized(out.tva));
  return out;
}

// ---- Canonical form ----

namespace {

uint64_t Mix64(uint64_t x) { return FingerprintMix(x); }

uint64_t Combine(uint64_t h, uint64_t v) { return FingerprintCombine(h, v); }

size_t CountDistinct(std::vector<uint64_t> colors) {
  std::sort(colors.begin(), colors.end());
  return static_cast<size_t>(
      std::unique(colors.begin(), colors.end()) - colors.begin());
}

// Iterated signature refinement: the color of a state folds in the colors
// of every iota/delta entry it appears in (in each role), so two states get
// equal colors only if their local neighborhoods look alike. Refines
// `color` in place to the stable partition; returns its class count.
size_t RefineToFixpoint(const HomogenizedTva& a, std::vector<uint64_t>& color) {
  const BinaryTva& tva = a.tva;
  size_t n = tva.num_states();
  std::vector<uint64_t> next(n);
  std::vector<std::vector<uint64_t>> sigs(n);
  size_t distinct = CountDistinct(color);
  for (size_t round = 0; round < n; ++round) {
    for (const LeafInit& li : tva.leaf_inits()) {
      sigs[li.state].push_back(
          Combine(Combine(11, li.label), li.vars));
    }
    for (const Transition& t : tva.transitions()) {
      uint64_t base = Combine(13, t.label);
      sigs[t.state].push_back(
          Combine(Combine(Combine(base, 1), color[t.left]), color[t.right]));
      sigs[t.left].push_back(
          Combine(Combine(Combine(base, 2), color[t.right]), color[t.state]));
      sigs[t.right].push_back(
          Combine(Combine(Combine(base, 3), color[t.left]), color[t.state]));
    }
    for (State q = 0; q < n; ++q) {
      std::sort(sigs[q].begin(), sigs[q].end());
      uint64_t h = color[q];
      for (uint64_t s : sigs[q]) h = Combine(h, s);
      next[q] = h;
      sigs[q].clear();
    }
    color.swap(next);
    size_t nd = CountDistinct(color);
    if (nd == distinct) break;  // partition stable (or fully discrete)
    distinct = nd;
  }
  return distinct;
}

// Serialized relabeling of the whole automaton under `order` (order[new] =
// old). Two orderings yield equal keys iff the renumbered automata are
// identical, so lexicographic comparison of keys picks a numbering-invariant
// representative among candidate orderings.
std::vector<uint64_t> CanonicalKey(const HomogenizedTva& a,
                                   const std::vector<State>& order) {
  const BinaryTva& tva = a.tva;
  size_t n = tva.num_states();
  std::vector<State> new_of_old(n);
  for (State nq = 0; nq < n; ++nq) new_of_old[order[nq]] = nq;
  std::vector<uint64_t> key;
  key.reserve(n + 3 * tva.leaf_inits().size() + 4 * tva.transitions().size() +
              tva.final_states().size());
  for (State nq = 0; nq < n; ++nq) key.push_back(a.kind[order[nq]]);
  std::vector<std::array<uint64_t, 3>> inits;
  inits.reserve(tva.leaf_inits().size());
  for (const LeafInit& li : tva.leaf_inits()) {
    inits.push_back({li.label, li.vars, new_of_old[li.state]});
  }
  std::sort(inits.begin(), inits.end());
  for (const auto& e : inits) key.insert(key.end(), e.begin(), e.end());
  std::vector<std::array<uint64_t, 4>> trans;
  trans.reserve(tva.transitions().size());
  for (const Transition& t : tva.transitions()) {
    trans.push_back({t.label, new_of_old[t.left], new_of_old[t.right],
                     new_of_old[t.state]});
  }
  std::sort(trans.begin(), trans.end());
  for (const auto& e : trans) key.insert(key.end(), e.begin(), e.end());
  std::vector<uint64_t> finals;
  finals.reserve(tva.final_states().size());
  for (State q : tva.final_states()) finals.push_back(new_of_old[q]);
  std::sort(finals.begin(), finals.end());
  key.insert(key.end(), finals.begin(), finals.end());
  return key;
}

// Individualization-refinement search (the completeness half of canonical
// labeling, as in nauty-style algorithms): whenever refinement stabilizes
// with a non-discrete partition — the automaton has a nontrivial
// automorphism or a hash-coincidence — pick the class with the smallest
// color value (numbering-invariant), individualize each member in turn,
// re-refine, and recurse; keep the ordering whose fully-relabeled automaton
// is lexicographically smallest. `budget` caps explored discrete leaves so
// pathological symmetry cannot blow up; on exhaustion the best ordering
// found so far is kept (still deterministic for a fixed input numbering).
void SearchOrder(const HomogenizedTva& a, std::vector<uint64_t> color,
                 size_t distinct, std::vector<uint64_t>& best_key,
                 std::vector<State>& best_order, size_t& budget) {
  size_t n = a.tva.num_states();
  if (budget == 0) return;
  if (distinct == n) {
    --budget;
    std::vector<State> order(n);
    for (State q = 0; q < n; ++q) order[q] = q;
    std::sort(order.begin(), order.end(),
              [&](State x, State y) { return color[x] < color[y]; });
    std::vector<uint64_t> key = CanonicalKey(a, order);
    if (best_key.empty() || key < best_key) {
      best_key = std::move(key);
      best_order = std::move(order);
    }
    return;
  }
  // Target class: smallest color value occurring at least twice.
  std::vector<uint64_t> sorted(color);
  std::sort(sorted.begin(), sorted.end());
  uint64_t target = 0;
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    if (sorted[i] == sorted[i + 1]) {
      target = sorted[i];
      break;
    }
  }
  for (State q = 0; q < n; ++q) {
    if (color[q] != target) continue;
    std::vector<uint64_t> child(color);
    child[q] = Mix64(Combine(child[q], 0x494e444956ULL));  // individualize q
    size_t nd = RefineToFixpoint(a, child);
    SearchOrder(a, std::move(child), nd, best_key, best_order, budget);
    if (budget == 0) return;
  }
}

// Deterministic state ordering: signature refinement, then — if the stable
// partition is not discrete — individualization-refinement to break ties in
// a numbering-invariant way. Automata too large for the search (n > 512)
// fall back to breaking ties by the incoming numbering, which is complete
// for automata whose refinement is already discrete.
std::vector<State> CanonicalStateOrder(const HomogenizedTva& a) {
  const BinaryTva& tva = a.tva;
  size_t n = tva.num_states();
  std::vector<uint64_t> color(n);
  for (State q = 0; q < n; ++q) {
    color[q] = Mix64(1 + (a.kind[q] ? 2u : 0u) + (tva.IsFinal(q) ? 4u : 0u));
  }
  size_t distinct = RefineToFixpoint(a, color);

  if (distinct < n && n <= 512) {
    std::vector<uint64_t> best_key;
    std::vector<State> best_order;
    size_t budget = 4096;
    SearchOrder(a, std::move(color), distinct, best_key, best_order, budget);
    if (!best_order.empty()) return best_order;  // order[new_id] = old_id
    color.assign(n, 0);
    for (State q = 0; q < n; ++q) {
      color[q] = Mix64(1 + (a.kind[q] ? 2u : 0u) + (tva.IsFinal(q) ? 4u : 0u));
    }
    RefineToFixpoint(a, color);
  }

  std::vector<State> order(n);
  for (State q = 0; q < n; ++q) order[q] = q;
  std::sort(order.begin(), order.end(), [&](State x, State y) {
    return std::tie(color[x], x) < std::tie(color[y], y);
  });
  return order;  // order[new_id] = old_id
}

}  // namespace

void CanonicalizeHomogenizedTva(HomogenizedTva* a) {
  const BinaryTva& tva = a->tva;
  size_t n = tva.num_states();
  std::vector<State> order = CanonicalStateOrder(*a);
  std::vector<State> new_of_old(n);
  for (State nq = 0; nq < n; ++nq) new_of_old[order[nq]] = nq;

  std::vector<LeafInit> inits = tva.leaf_inits();
  for (LeafInit& li : inits) li.state = new_of_old[li.state];
  std::sort(inits.begin(), inits.end(), [](const LeafInit& x, const LeafInit& y) {
    return std::tie(x.label, x.vars, x.state) <
           std::tie(y.label, y.vars, y.state);
  });

  std::vector<Transition> trans = tva.transitions();
  for (Transition& t : trans) {
    t.left = new_of_old[t.left];
    t.right = new_of_old[t.right];
    t.state = new_of_old[t.state];
  }
  std::sort(trans.begin(), trans.end(),
            [](const Transition& x, const Transition& y) {
              return std::tie(x.label, x.left, x.right, x.state) <
                     std::tie(y.label, y.left, y.right, y.state);
            });

  std::vector<State> finals = tva.final_states();
  for (State& q : finals) q = new_of_old[q];
  std::sort(finals.begin(), finals.end());

  BinaryTva out(n, tva.num_labels(), tva.num_vars());
  for (const LeafInit& li : inits) out.AddLeafInit(li.label, li.vars, li.state);
  for (const Transition& t : trans) {
    out.AddTransition(t.label, t.left, t.right, t.state);
  }
  for (State q : finals) out.AddFinal(q);

  std::vector<uint8_t> kind(n);
  for (State old = 0; old < n; ++old) kind[new_of_old[old]] = a->kind[old];

  a->tva = std::move(out);
  a->kind = std::move(kind);
}

}  // namespace treenum
