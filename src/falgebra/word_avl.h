// Balanced word terms (Corollary 8.4): a word is a forest of single-node
// trees, its term uses only a_t leaves and ⊕HH, and — since ⊕HH is
// associative — the term can be kept balanced by ordinary AVL rotations.
// This gives genuinely worst-case O(log n) structural changes per edit
// (unlike the tree case, where we rebuild subterms; see ARCHITECTURE.md §1).
#ifndef TREENUM_FALGEBRA_WORD_AVL_H_
#define TREENUM_FALGEBRA_WORD_AVL_H_

#include <vector>

#include "automata/wva.h"
#include "falgebra/term.h"
#include "falgebra/update.h"

namespace treenum {

/// A word together with its AVL-balanced ⊕HH term. Positions have stable
/// ids (used as the NodeId of assignments); the logical order is the
/// in-order leaf sequence of the term.
class WordEncoding {
 public:
  /// Builds a balanced term for `w` (must be non-empty).
  WordEncoding(const Word& w, size_t num_base_labels);

  const Term& term() const { return term_; }
  size_t size() const { return size_; }

  /// Letter at logical position `pos` (0-based).
  Label LetterAt(size_t pos) const;
  /// Stable id of the position (the NodeId appearing in assignments).
  NodeId PositionId(size_t pos) const;
  /// Logical position of a stable id (O(log n)).
  size_t PositionOf(NodeId id) const;
  /// The current word, in order (O(n); for tests).
  Word Current() const;

  /// Replaces the letter at `pos`. Positions, ranges and labels are
  /// preconditions (asserted; DynamicDocument::Apply checks them).
  ///
  /// Like the tree-side DynamicEncoding, every edit below returns a
  /// reference to an internal scratch UpdateResult that the next edit
  /// overwrites (vectors keep their capacity, so steady-state edits and
  /// structural transactions perform zero heap allocations). Copy it if it
  /// must outlive the next call.
  const UpdateResult& Replace(size_t pos, Label l);
  /// Inserts a letter so that it ends up at logical position `pos`
  /// (0 ≤ pos ≤ size()).
  const UpdateResult& Insert(size_t pos, Label l);
  /// Deletes the letter at `pos`. The word must keep at least one letter.
  const UpdateResult& Erase(size_t pos);

  // ---- Structural transactions (AVL split/join) ----

  /// Bulk update (the "move part of the text" operation from the paper's
  /// conclusion, implemented via AVL split/join): removes the non-empty
  /// factor [begin, end) and reinserts it so that it starts at position
  /// `dst` of the remaining word (0 ≤ dst ≤ size() - (end - begin)). O(log n)
  /// structural changes; position ids are preserved.
  const UpdateResult& MoveRange(size_t begin, size_t end, size_t dst);

  /// Deletes the non-empty factor [begin, end) and assigns it to
  /// `*extracted` if non-null (EraseRange passes null); at least one
  /// letter must remain.
  const UpdateResult& ExtractRange(size_t begin, size_t end, Word* extracted);

  /// Appends the non-empty word `w`, encoded as one balanced detached
  /// subterm and joined at the right end (O(|w| + log n)).
  const UpdateResult& Concat(const Word& w);

  /// Test hook: AVL balance factors in {-1, 0, 1} everywhere on the current
  /// version (frozen snapshot versions are not checked).
  bool CheckBalanced() const;

  /// Writable term access for the snapshot layer (pin/publish/drain).
  Term& mutable_term() { return term_; }

 private:
  TermNodeId LeafAt(size_t pos) const;
  int BalanceFactor(TermNodeId x) const;
  /// AVL rebalancing walk from `from` to the root; records changed nodes.
  void RebalanceUp(TermNodeId from, UpdateResult& result);
  /// AVL join of two detached subtrees (either may be kNoTerm).
  TermNodeId JoinTerms(TermNodeId a, TermNodeId b, UpdateResult& result);
  /// Splits the detached subtree `t` into its first k leaves and the rest
  /// (either side may come back as kNoTerm). Frees dismantled op nodes.
  std::pair<TermNodeId, TermNodeId> SplitAt(TermNodeId t, size_t k,
                                            UpdateResult& result);
  /// Local rebalance of operator node `x` (after a join step, or on the
  /// RebalanceUp walk): recomputes its counters, rotates at most twice and
  /// returns the node now in x's place.
  TermNodeId RebalanceNode(TermNodeId x, UpdateResult& result);
  TermNodeId RotateLeft(TermNodeId x, UpdateResult& result);
  TermNodeId RotateRight(TermNodeId x, UpdateResult& result);
  NodeId AllocPosition(Label l);
  /// Clears and returns the scratch result (capacity preserved).
  UpdateResult& ResetResult();
  /// Builds a balanced detached subterm over fresh positions for `w`
  /// (records created ids in `result.changed_bottom_up`).
  TermNodeId BuildDetached(const Word& w, size_t lo, size_t hi,
                           UpdateResult& result);
  /// Splits out the detached factor [begin, end) of the whole (rootless)
  /// term and returns {prefix, factor, suffix} roots (sides may be kNoTerm).
  /// Shared front half of MoveRange / ExtractRange.
  struct SplitOut {
    TermNodeId prefix, factor, suffix;
  };
  SplitOut SplitOutRange(size_t begin, size_t end, UpdateResult& result);
  /// Frees the position ids of every leaf under `t` (pre-sweep walk).
  void FreePositions(TermNodeId t);

  Term term_;
  std::vector<Label> letters_;        // by stable position id
  std::vector<TermNodeId> pos_leaf_;  // stable position id -> leaf term id
  std::vector<NodeId> free_ids_;
  size_t size_ = 0;
  UpdateResult result_;
  std::vector<TermNodeId> walk_scratch_;
};

}  // namespace treenum

#endif  // TREENUM_FALGEBRA_WORD_AVL_H_
