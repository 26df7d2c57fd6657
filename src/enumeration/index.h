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
// Storage layout (arena/CSR, mirroring circuit/arena.h): a box's index owns
// no heap memory. Candidate records live in a CSR SpanPool, the fib/span
// arrays and the pairwise-lca table in an int32 SpanPool, and every relation
// matrix (per-candidate rel, wire_left, wire_right) is a word-aligned block
// in a BitMatrixPool (enumeration/index_arena.h), all with power-of-two span
// recycling across RebuildBoxIndex/FreeBoxIndex. `at(id)` returns a cheap
// BoxIndex *view* — invalidated by the next rebuild.
#ifndef TREENUM_ENUMERATION_INDEX_H_
#define TREENUM_ENUMERATION_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "enumeration/index_arena.h"
#include "util/bit_matrix.h"

namespace treenum {

inline constexpr int32_t kNoCand = -1;

/// One pooled candidate record.
struct CandRec {
  TermNodeId box;
  /// 0 = the box itself, 1 = inherited from left child, 2 = from right.
  uint8_t source;
  /// For source 1/2: index in the child's candidate list.
  int32_t child_cand;
  /// R(cand box, B): rows = candidate box's ∪-gates, cols = B's ∪-gates.
  BitsRef rel;
};

/// Read-only view of one box's index, resolving the arena spans to raw
/// pointers once. Invalidated by the next RebuildBoxIndex/FreeBoxIndex.
class BoxIndex {
 public:
  size_t num_unions() const { return nu_; }
  size_t num_cands() const { return num_cands_; }

  TermNodeId cand_box(int32_t c) const { return cands_[c].box; }
  /// R(cand box, B) of candidate c.
  BitMatrixView cand_rel(int32_t c) const {
    const BitsRef& r = cands_[c].rel;
    return BitMatrixView(bits_ + r.words.off, r.rows, r.cols);
  }

  /// Per ∪-gate: candidate index (always set).
  int32_t fib(size_t u) const { return fib_[u]; }
  int32_t span(size_t u) const { return span_[u]; }

  /// Wire relations to the children: R(child box, B) over the ∪→∪ wires
  /// (⊤-collapse inputs). Empty views for leaf boxes.
  BitMatrixView wire_left() const {
    return BitMatrixView(bits_ + wl_.words.off, wl_.rows, wl_.cols);
  }
  BitMatrixView wire_right() const {
    return BitMatrixView(bits_ + wr_.words.off, wr_.rows, wr_.cols);
  }

  int32_t Lca(int32_t a, int32_t b) const {
    return cand_lca_[static_cast<size_t>(a) * num_cands_ + b];
  }

  /// fib(Γ) as a candidate index: min over the gates' fib values (minimum
  /// candidate index = first in preorder). `gates` must be non-empty.
  int32_t FibLocal(const std::vector<uint32_t>& gates) const {
    int32_t best = fib_[gates[0]];
    for (uint32_t g : gates) best = std::min(best, fib_[g]);
    return best;
  }

  /// lca{span(g) | g ∈ gates} as a candidate index. lca over a set folds
  /// associatively, so one linear pass over the gates suffices (this was a
  /// quadratic pairwise loop; Observation 6.2 equates the fold with the
  /// preorder-minimal pairwise lca). `gates` must be non-empty.
  int32_t SpanLocal(const std::vector<uint32_t>& gates) const {
    int32_t best = span_[gates[0]];
    for (size_t i = 1; i < gates.size(); ++i) {
      best = Lca(best, span_[gates[i]]);
    }
    return best;
  }

 private:
  friend class EnumIndex;

  const CandRec* cands_ = nullptr;
  const int32_t* fib_ = nullptr;
  const int32_t* span_ = nullptr;
  const int32_t* cand_lca_ = nullptr;
  const uint64_t* bits_ = nullptr;
  BitsRef wl_;
  BitsRef wr_;
  uint32_t num_cands_ = 0;
  uint32_t nu_ = 0;
};

/// The full index, one BoxIndex per term node, rebuilt bottom-up into the
/// pooled flat storage.
class EnumIndex {
 public:
  explicit EnumIndex(const AssignmentCircuit* circuit) : circuit_(circuit) {}

  const AssignmentCircuit& circuit() const { return *circuit_; }

  /// Builds the index for every box, bottom-up (O(|T| * poly(w))).
  void BuildAll();

  /// Recomputes one box's index from its children's (which must be current).
  /// Steady-state refreshes reuse the box's arena spans.
  void RebuildBoxIndex(TermNodeId id);

  /// Drops the index of a freed term node, recycling its spans.
  void FreeBoxIndex(TermNodeId id);

  /// Cheap view of a box's index; invalidated by the next rebuild.
  BoxIndex at(TermNodeId id) const;

  /// Batch hint mirroring AssignmentCircuit::ReserveForRebuild: pre-grows
  /// the index pools for ~`boxes` upcoming rebuilds (sized from the running
  /// per-box averages), so one transaction's refresh loop does not re-grow
  /// pool tails repeatedly.
  void ReserveForRebuild(size_t boxes);

  /// Validates the index-arena invariants: span bounds and overlap-freedom
  /// per pool, shape consistency of the per-box spans, and that candidate
  /// relations have the dimensions Definition 6.1 dictates. Returns an
  /// empty string if consistent. (Test hook.)
  std::string ValidateStorage() const;

  /// lca{span(g)} as a candidate index; see BoxIndex::SpanLocal.
  int32_t SpanOfSet(TermNodeId box, const std::vector<uint32_t>& gates) const {
    return at(box).SpanLocal(gates);
  }

 private:
  /// Per-box span directory into the pools.
  struct BoxIndexSpans {
    SpanRef cands;     ///< CandRec pool; len = candidate count.
    SpanRef fib;       ///< int32 pool; len = num ∪-gates.
    SpanRef span;      ///< int32 pool; len = num ∪-gates.
    SpanRef cand_lca;  ///< int32 pool; len = candidate count squared.
    BitsRef wire_left;
    BitsRef wire_right;
  };

  /// Raw fib/span of one gate before candidate assembly.
  struct Pre {
    uint8_t source;  // 0 self, 1 left, 2 right
    int32_t cc;      // child candidate index (source 1/2)
  };

  /// Shape of one upcoming candidate, staged in scratch between the
  /// child-reading and pool-writing phases of a rebuild.
  struct CandMeta {
    TermNodeId box;
    uint8_t source;
    int32_t cc;
    uint32_t rows;  // = num ∪-gates of the candidate box
  };

  void EnsureSlot(TermNodeId id);
  /// Returns the bit blocks of s's candidate relations to the pool.
  void ReleaseCandRels(BoxIndexSpans& s);
  /// Releases every span of s (candidate rels included).
  void FreeSpans(BoxIndexSpans& s);

  const AssignmentCircuit* circuit_;
  // CowStore-backed so concurrent snapshot readers survive writer growth.
  CowStore<BoxIndexSpans> spans_;

  // Flat pools (see file comment).
  SpanPool<CandRec> cand_pool_;
  SpanPool<int32_t> i32_pool_;
  BitMatrixPool bits_pool_;

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
