// Homogenization (Lemma 2.1) and trimming of binary TVAs.
//
// A state q is a 0-state if some run reaches it at the root of a tree under
// the empty valuation, and a 1-state if some run reaches it under a valuation
// with at least one non-empty annotation. An automaton is homogenized if
// every state is a 0-state xor a 1-state. The circuit construction of
// Lemma 3.7 requires a homogenized automaton: it is what guarantees that no
// gate captures both the empty assignment and a non-empty one, which in turn
// lets the construction avoid ⊤-gates as inputs.
#ifndef TREENUM_AUTOMATA_HOMOGENIZE_H_
#define TREENUM_AUTOMATA_HOMOGENIZE_H_

#include <cstdint>
#include <vector>

#include "automata/binary_tva.h"

namespace treenum {

/// Per-state reachability kinds, computed by fixpoint (test oracle and
/// homogenization checker).
struct StateKinds {
  std::vector<bool> zero_state;  ///< q is a 0-state.
  std::vector<bool> one_state;   ///< q is a 1-state.
};

/// Computes which states are 0-states / 1-states by a least fixpoint over ι
/// and δ. A state reachable by no run at all is neither.
StateKinds ComputeStateKinds(const BinaryTva& a);

/// True iff every state of `a` is a 0-state xor a 1-state.
bool IsHomogenized(const BinaryTva& a);

/// Removes states that are not bottom-up reachable by any run, renumbering
/// the remainder. If `old_to_new` is non-null it receives the renumbering
/// (kNoState for removed states).
inline constexpr State kNoState = static_cast<State>(-1);
BinaryTva TrimBinaryTva(const BinaryTva& a,
                        std::vector<State>* old_to_new = nullptr);

/// Result of homogenization: the equivalent homogenized (and trimmed)
/// automaton plus, for each new state, whether it is a 1-state.
struct HomogenizedTva {
  BinaryTva tva;
  /// kind[q] == 1 iff q is a 1-state (reachable only with some non-empty
  /// annotation below); kind[q] == 0 iff q is a 0-state.
  std::vector<uint8_t> kind;
};

/// Lemma 2.1: product of `a` with the two-state automaton remembering
/// whether a non-empty annotation has been read, followed by trimming.
/// Equivalent to `a` (same satisfying valuations on every tree).
HomogenizedTva HomogenizeBinaryTva(const BinaryTva& a);

// ---- Canonical form (query dedupe) ----
//
// The process-wide QueryCache (automata/query_cache.h) keys every compiled
// plan by the serialized bytes of its canonical homogenized automaton
// (automata/serialize.h): textually different queries that homogenize to
// the same automaton share one plan, and so one pipeline per document.
// Canonicalization renumbers states deterministically — iterated signature
// refinement over iota/delta/F/kind (a 1-dimensional Weisfeiler-Leman
// pass), then an individualization-refinement search (homogenize.cpp)
// that breaks the remaining ties without looking at the incoming
// numbering — and sorts the relation vectors, so automata that differ
// only in state numbering or declaration order produce identical
// canonical forms. Equal canonical
// forms are always literally equal automata. Only past the search's caps
// (more than 512 states, or 4096 explored orderings) can the order depend
// on the incoming numbering, so isomorphic automata there may keep
// distinct forms — served by distinct plans, costing memory but never
// correctness.

/// splitmix64 finalizer — the hash primitive behind canonical refinement's
/// state colors (homogenize.cpp) and shard placement
/// (serving/shard_server.cpp).
inline uint64_t FingerprintMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent fold of `v` into the running hash `h`.
inline uint64_t FingerprintCombine(uint64_t h, uint64_t v) {
  return FingerprintMix(h ^ FingerprintMix(v));
}

/// Rewrites `a` in place into its canonical form: states renumbered by
/// signature refinement, leaf inits / transitions / final states sorted.
/// Preserves semantics exactly (same runs, same satisfying valuations,
/// same run multiplicities — duplicate relation entries are kept).
void CanonicalizeHomogenizedTva(HomogenizedTva* a);

}  // namespace treenum

#endif  // TREENUM_AUTOMATA_HOMOGENIZE_H_
