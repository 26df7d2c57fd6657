// The index structure I(C) of Definition 6.1, computed bottom-up over the
// tree of boxes (Lemma 6.3) and maintained incrementally under updates
// (Lemma 7.3).
//
// Per box B we store a set of *candidate* target boxes — the fib/span values
// of B's ∪-gates closed under least common ancestors — sorted by preorder,
// each with its ∪-reachability relation R(candidate, B). Because candidates
// of B that lie strictly below B are always candidates of the corresponding
// child, all quantities are computed from the children's index in O(1)
// lookups per entry, with no global preorder numbering (which could not be
// maintained under updates).
//
// Instead of fbb(g) we store span(g) := lca of the interesting boxes of g.
// span(g) equals fbb(g) whenever the ∪-closure of g branches and fib(g)
// otherwise; the jump loop of Algorithm 3 then computes the first
// bidirectional box of a boxed set Γ as lca{span(g) | g ∈ Γ} and terminates
// when that box is not a strict ancestor of fib(Γ). This evaluates correctly
// even for boxed sets that are only *jointly* bidirectional (each gate's own
// closure is a chain, but the chains split at a common box).
//
// Storage layout: a box's whole index is one block of the index's BoxStore
// (circuit/arena.h), so a refresh makes one Ensure and a free one Free,
// with power-of-two block recycling across RebuildBoxIndex/FreeBoxIndex.
// The block holds, back to back:
//   * 32-bit lanes, two per word: per candidate (box, relation word offset,
//     rows), then fib and span per ∪-gate, then the nc x nc lca table;
//   * whole-word bit matrices: wire_left (lnu x nu), wire_right (rnu x nu),
//     then each candidate's R(candidate, B) (rows x nu).
// Offsets are relative to the block; a per-box directory entry keeps the
// block's span and the four counts (nc, nu, lnu, rnu) that fix the section
// offsets (BoxIndex::Layout). Lanes are read and written with memcpy, the
// aliasing-safe way to view words as 32-bit values (one load each). Every
// block starts on a cache line (the pool is 64-byte aligned and blocks are
// at least 8 words, see BlockWords); the matrices inside it start at
// arbitrary words. `at(id)` returns a cheap BoxIndex *view* — invalidated
// by the next rebuild.
#ifndef TREENUM_ENUMERATION_INDEX_H_
#define TREENUM_ENUMERATION_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "circuit/arena.h"
#include "circuit/circuit.h"
#include "util/bit_matrix.h"

namespace treenum {

/// Read-only view of one box's index block. Invalidated by the next
/// RebuildBoxIndex/FreeBoxIndex.
class BoxIndex {
 public:
  size_t num_unions() const { return shape_.nu; }
  size_t num_cands() const { return shape_.nc; }

  TermNodeId cand_box(int32_t c) const {
    return Lane(Layout::cand_lane(c));
  }
  /// R(cand box, B) of candidate c: rows = the candidate box's ∪-gates,
  /// cols = B's ∪-gates.
  BitMatrixView cand_rel(int32_t c) const {
    const size_t lane = Layout::cand_lane(c);
    return BitMatrixView(block_ + Lane(lane + 1), Lane(lane + 2), shape_.nu);
  }

  /// Per ∪-gate: candidate index (always set).
  int32_t fib(size_t u) const {
    return static_cast<int32_t>(Lane(shape_.fib_lane() + u));
  }
  int32_t span(size_t u) const {
    return static_cast<int32_t>(Lane(shape_.span_lane() + u));
  }

  /// Wire relations to the children: R(child box, B) over the ∪→∪ wires
  /// (⊤-collapse inputs). Empty views for leaf boxes.
  BitMatrixView wire_left() const {
    return BitMatrixView(block_ + shape_.wire_left_word(), shape_.lnu,
                         shape_.nu);
  }
  BitMatrixView wire_right() const {
    return BitMatrixView(block_ + shape_.wire_right_word(), shape_.rnu,
                         shape_.nu);
  }

  int32_t Lca(int32_t a, int32_t b) const {
    return static_cast<int32_t>(Lane(
        shape_.lca_lane() + static_cast<size_t>(a) * shape_.nc + b));
  }

  /// fib(Γ) as a candidate index: min over the gates' fib values (minimum
  /// candidate index = first in preorder). `gates` must be non-empty.
  int32_t FibLocal(const std::vector<uint32_t>& gates) const {
    int32_t best = fib(gates[0]);
    for (uint32_t g : gates) best = std::min(best, fib(g));
    return best;
  }

  /// lca{span(g) | g ∈ gates} as a candidate index. lca over a set folds
  /// associatively, so one linear pass over the gates suffices
  /// (Observation 6.2 equates the fold with the preorder-minimal pairwise
  /// lca). `gates` must be non-empty.
  int32_t SpanLocal(const std::vector<uint32_t>& gates) const {
    int32_t best = span(gates[0]);
    for (size_t i = 1; i < gates.size(); ++i) {
      best = Lca(best, span(gates[i]));
    }
    return best;
  }

 private:
  friend class EnumIndex;

  /// Section offsets of one box's index block, fixed by its four counts.
  /// Lane offsets count 32-bit lanes, word offsets count 64-bit words, both
  /// from the block start.
  struct Layout {
    uint32_t nc = 0;   ///< candidates
    uint32_t nu = 0;   ///< ∪-gates of the box
    uint32_t lnu = 0;  ///< ∪-gates of the left child (0 for a leaf)
    uint32_t rnu = 0;  ///< ∪-gates of the right child (0 for a leaf)

    /// Words per relation row: every relation has nu columns.
    size_t wpr() const { return (nu + 63) / 64; }
    /// Candidate c's lanes: box, relation word offset, rows.
    static size_t cand_lane(size_t c) { return 3 * c; }
    size_t fib_lane() const { return 3 * size_t{nc}; }
    size_t span_lane() const { return fib_lane() + nu; }
    size_t lca_lane() const { return span_lane() + nu; }
    size_t wire_left_word() const {
      return (lca_lane() + size_t{nc} * nc + 1) / 2;
    }
    size_t wire_right_word() const {
      return wire_left_word() + size_t{lnu} * wpr();
    }
    size_t rels_word() const { return wire_right_word() + size_t{rnu} * wpr(); }
  };

  uint32_t Lane(size_t i) const {
    uint32_t v = 0;
    std::memcpy(&v, reinterpret_cast<const char*>(block_) + 4 * i, sizeof v);
    return v;
  }

  const uint64_t* block_ = nullptr;
  Layout shape_;
};

/// The full index, one block per term node with ∪-gates, rebuilt bottom-up
/// into the pooled flat storage.
class EnumIndex {
 public:
  explicit EnumIndex(const AssignmentCircuit* circuit) : circuit_(circuit) {}

  const AssignmentCircuit& circuit() const { return *circuit_; }

  /// Builds the index for every box, bottom-up (O(|T| * poly(w))), then
  /// frees the buffers its growth retired (no reader can reach it yet).
  void BuildAll();

  /// Recomputes one box's index from its children's (which must be current).
  /// Steady-state refreshes reuse the box's block.
  void RebuildBoxIndex(TermNodeId id);

  /// Drops the index of a freed term node, recycling its block.
  void FreeBoxIndex(TermNodeId id) { store_.Free(id); }

  /// Cheap view of a box's index; invalidated by the next rebuild.
  BoxIndex at(TermNodeId id) const;

  /// Batch hint: pre-grows the pool for ~`boxes` upcoming rebuilds (sized
  /// from the running per-box average), so one transaction's refresh loop
  /// does not re-grow the pool tail repeatedly.
  void ReserveForRebuild(size_t boxes) {
    store_.ReserveForBoxes(boxes, circuit_->term().num_alive());
  }

  /// BoxStore::ReleaseRetired and retired_bytes.
  void ReleaseRetired() { store_.ReleaseRetired(); }
  size_t retired_bytes() const { return store_.retired_bytes(); }

  /// Validates the block invariants: every alive box with ∪-gates owns one
  /// cache-line-aligned block whose length matches the layout of its
  /// counts, a gate-free or dead box owns none, candidates are alive boxes
  /// with the relation shapes Definition 6.1 dictates, fib/span/lca values
  /// are candidate indices, and no two blocks overlap. Returns an empty
  /// string if consistent. (Test hook.)
  std::string ValidateStorage() const;

 private:
  using Entry = BoxEntry<BoxIndex::Layout>;

  /// Raw fib/span of one gate before candidate assembly.
  struct Pre {
    uint8_t source;  // 0 self, 1 left, 2 right
    int32_t cc;      // child candidate index (source 1/2)
  };

  /// Shape of one upcoming candidate, staged in scratch between the
  /// child-reading and pool-writing phases of a rebuild.
  struct CandMeta {
    TermNodeId box;
    uint8_t source;  // 0 self, 1 left, 2 right
    int32_t cc;      // child candidate index (source 1/2)
    uint32_t rows;   // = num ∪-gates of the candidate box
  };

  /// Block length in words for a layout whose sections end at `words`:
  /// at least 8, so every power-of-two span is a whole number of cache
  /// lines and every block starts on one.
  static uint32_t BlockWords(size_t words);

  const AssignmentCircuit* circuit_;
  BoxStore<Entry, 64> store_;

  // Rebuild scratch reused across RebuildBoxIndex calls (clear() keeps
  // capacity — the update path's counterpart of the circuit arena scratch).
  std::vector<std::vector<uint32_t>> in_left_scratch_;
  std::vector<std::vector<uint32_t>> in_right_scratch_;
  std::vector<Pre> fib_pre_scratch_;
  std::vector<Pre> span_pre_scratch_;
  std::vector<int32_t> used_l_scratch_;
  std::vector<int32_t> used_r_scratch_;
  std::vector<int32_t> map_l_scratch_;
  std::vector<int32_t> map_r_scratch_;
  std::vector<CandMeta> cand_meta_scratch_;
};

}  // namespace treenum

#endif  // TREENUM_ENUMERATION_INDEX_H_
