// Dynamic maintenance of the balanced term under the edit operations of
// Definition 7.1 (the "tree hollowing" updates of §7).
//
// Every edit is realized as an O(1)-size local splice of the term, plus an
// O(log n) path recomputation, plus — when a subterm's height exceeds the
// balance envelope — a partial rebuild of the highest unbalanced subterm via
// the static encoder. The splice rules exploit the invariant that every
// hole is a whole-child-forest slot:
//
//  * relabel(n, l): relabel n's leaf symbol.
//  * insertR(n, l): the new node u goes immediately right of tree(n); splice
//    at n's root symbol:  a_t(n) ↦ a_t(n) ⊕HH a_t(u),
//                         a_□(n) ↦ a_□(n) ⊕VH a_t(u).
//  * insert(n, l) (first child): if n was a leaf, a_t(n) ↦ a_□(n) ⊙VH
//    a_t(u); otherwise u goes immediately left of n's (old) first child c:
//    a_t(c) ↦ a_t(u) ⊕HH a_t(c),  a_□(c) ↦ a_t(u) ⊕HV a_□(c).
//  * delete(n): remove a_t(n); if n was the sole child of m (i.e. a_t(n)
//    filled the hole of the context above a_□(m)), close the hole by
//    retyping the hole path of that context from a_□(m) upward
//    (⊕HV, ⊕VH ↦ ⊕HH; ⊙VV ↦ ⊙VH) — an O(log n) walk.
#ifndef TREENUM_FALGEBRA_UPDATE_H_
#define TREENUM_FALGEBRA_UPDATE_H_

#include <vector>

#include "falgebra/builder.h"
#include "falgebra/term.h"
#include "trees/unranked_tree.h"

namespace treenum {

/// What an update changed, for consumers maintaining per-term-node state
/// (the circuit boxes and enumeration index of Lemma 7.3).
struct UpdateResult {
  /// Term ids that are no longer alive.
  std::vector<TermNodeId> freed;
  /// New or structurally/label-modified ids together with all their
  /// ancestors up to the root, in an order where children precede parents;
  /// each alive id appears once (Term::EndEdit), so a consumer refreshes
  /// the list as is.
  std::vector<TermNodeId> changed_bottom_up;
  /// Number of term nodes rebuilt by rebalancing (0 if none) — exposed for
  /// benchmarks measuring amortized update cost.
  size_t rebuilt_size = 0;
};

/// A tree paired with its balanced term encoding, kept in sync under edits.
class DynamicEncoding {
 public:
  /// Encodes `tree` (linear time).
  DynamicEncoding(UnrankedTree tree, size_t num_base_labels);

  const UnrankedTree& tree() const { return enc_.tree; }
  const Term& term() const { return enc_.term; }
  /// The leaf bijection φ: tree node → its leaf symbol's term id.
  TermNodeId LeafOf(NodeId n) const { return enc_.leaf_of[n]; }

  /// The returned reference aliases an internal scratch UpdateResult that
  /// is overwritten by the next edit (its vectors keep their capacity, so
  /// a steady-state relabel performs zero heap allocations). Copy it if it
  /// must outlive the next call. `n` must be alive, non-root for
  /// InsertRightSibling and a non-root leaf for DeleteLeaf.
  const UpdateResult& Relabel(NodeId n, Label l);
  const UpdateResult& InsertFirstChild(NodeId n, Label l,
                                       NodeId* new_node = nullptr) {
    return InsertLeaf(n, l, /*as_first_child=*/true, new_node);
  }
  const UpdateResult& InsertRightSibling(NodeId n, Label l,
                                         NodeId* new_node = nullptr) {
    return InsertLeaf(n, l, /*as_first_child=*/false, new_node);
  }
  const UpdateResult& DeleteLeaf(NodeId n);

  // ---- Structural transactions ----
  //
  // Each transaction is the join-based bulk counterpart of a leaf-edit
  // script: the minimal term region covering the subtree's leaves is cut
  // out and re-encoded once, the detached subtree is re-encoded as one
  // balanced subterm and spliced at its destination, and a single coalesced
  // UpdateResult reports the changed-box set for the whole operation.
  // Steady-state transactions reuse member scratch and perform no heap
  // allocations. Every node argument must be alive; the other
  // preconditions are stated per call and asserted (DynamicDocument::Apply
  // checks them all before calling in).

  /// True iff `u` lies in the subtree rooted at `v`, in O(|subtree(v)|)
  /// (it marks the subtree the way SubtreeMove does; no walk up from `u`).
  bool SubtreeContains(NodeId v, NodeId u);

  /// Moves the subtree rooted at `v` (which must not contain `dst` and must
  /// not be the root) so it becomes the first child of `dst`
  /// (`as_first_child`) or the right sibling of `dst` (`dst` non-root).
  const UpdateResult& SubtreeMove(NodeId v, NodeId dst, bool as_first_child);

  /// Deletes the whole subtree rooted at `v` (non-root).
  const UpdateResult& SubtreeDelete(NodeId v);

  /// Deletes the subtree rooted at `v` (non-root) and assigns a copy of it
  /// (fresh ids, preorder) to `*extracted` if non-null.
  const UpdateResult& SubtreeExtract(NodeId v, UnrankedTree* extracted);

  /// Inserts a copy of `src`'s subtree at `src_root` as the first child /
  /// right sibling of `dst` (`dst` non-root). Reports the new subtree root
  /// through `*new_root` if non-null.
  const UpdateResult& GraftSubtree(const UnrankedTree& src, NodeId src_root,
                                   NodeId dst, bool as_first_child,
                                   NodeId* new_root = nullptr);

  /// Test hook: true iff every subterm of the current version respects the
  /// height envelope (frozen snapshot versions may legitimately keep the
  /// pre-rebuild shape and are not checked).
  bool CheckBalanced() const;

  /// Writable term access for the snapshot layer (pin/publish/drain).
  Term& mutable_term() { return enc_.term; }

 private:
  void EnsureLeafSlot(NodeId n);
  /// Inserts a new leaf as the first child / right sibling of `n` and
  /// splices its symbol in with SpliceDetached.
  const UpdateResult& InsertLeaf(NodeId n, Label l, bool as_first_child,
                                 NodeId* new_node);
  /// Recomputes counters from `from` to the root (none for kNoTerm),
  /// rebalances if needed, and fills result.changed_bottom_up / freed /
  /// rebuilt_size.
  void FinishStructural(TermNodeId from, UpdateResult& result);
  /// Clears and returns the scratch result (capacity preserved).
  UpdateResult& ResetResult();

  // -- transaction machinery --
  /// DFS-lists subtree(v) into sub_nodes_ and stamps every member in
  /// tree_stamp_ (query with InSubtree until the next MarkSubtree).
  void MarkSubtree(NodeId v);
  bool InSubtree(NodeId n) const {
    return n < tree_stamp_.size() && tree_stamp_[n] == tree_epoch_;
  }
  /// Cuts subtree(v)'s leaves out of the term: finds the minimal covering
  /// region X, detaches v in the tree, re-encodes X's surviving pieces and
  /// swaps the region. Requires MarkSubtree(v) and term.BeginEdit() first.
  /// Leaves leaf_of[] of subtree nodes stale (caller re-encodes or clears).
  void CutRegion(NodeId v, UpdateResult& result);
  /// Splices the detached tree-typed subterm `sub` (encoding the already
  /// tree-attached subtree whose destination anchor is `dst`) into the term;
  /// returns the new splice node. `dst_was_leaf` is dst's leaf-ness before
  /// the tree attach.
  TermNodeId SpliceDetached(TermNodeId sub, NodeId dst, bool as_first_child,
                            bool dst_was_leaf, UpdateResult& result);
  /// Rebuilds envelope-violating changed subterms (root-most first) until
  /// the current version is balanced again.
  void RebalanceLoop(UpdateResult& result);
  /// RebalanceLoop + Term::EndEdit.
  void FinishTransaction(UpdateResult& result);

  Encoding enc_;
  UpdateResult result_;

  // Scratch reused across transactions (steady state allocates nothing).
  EncodeScratch enc_scratch_;
  std::vector<Piece> pieces_;     ///< region decomposition (CollectPieces)
  std::vector<Piece> remaining_;  ///< pieces surviving the cut
  std::vector<NodeId> sub_nodes_;
  std::vector<uint32_t> tree_stamp_;
  uint32_t tree_epoch_ = 0;
  std::vector<TermNodeId> lca_path_;
  std::vector<uint32_t> term_stamp_;  ///< marks nodes with known meet point
  std::vector<uint32_t> term_reach_;  ///< index into lca_path_ of that meet
  uint32_t term_epoch_ = 0;
  std::vector<TermNodeId> path_scratch_;
};

}  // namespace treenum

#endif  // TREENUM_FALGEBRA_UPDATE_H_
