// Forest algebra pre-terms and terms (§7 and Appendix E of the paper).
//
// A term is a binary tree whose leaves are a_t / a_□ symbols and whose
// internal nodes are the five operators ⊕HH, ⊕HV, ⊕VH, ⊙VV, ⊙VH. Each node
// is typed as a forest or a context; a term represents an unranked forest
// (here: always a single tree, the encoded input tree).
//
// Invariant maintained by this library (used by updates and rebuilds): the
// hole of every context is the *entire child-forest slot* of the tree node
// carried by its a_□ leaf. Equivalently, every context piece is of the form
// "subtree of T rooted at u, with everything strictly below w removed", for
// a node w in that subtree; the hole sits where w's children go.
//
// Versioning (copy-on-write snapshots): every node carries a reference count
// and the edit epoch it was created in. While at least one snapshot root is
// pinned (PinRoot), mutating an old-epoch node first path-copies it with
// EnsureMutable — the copy gets the current epoch, the frozen original keeps
// serving pinned snapshot readers. Reference counts track parent edges
// across all live versions plus the root slot plus snapshot pins; a count
// that drops to zero is queued and reclaimed by SweepZeros at the end of the
// edit, cascading into unreachable children. With no pins the term behaves
// exactly like the historical in-place encoding (no copies are ever made).
#ifndef TREENUM_FALGEBRA_TERM_H_
#define TREENUM_FALGEBRA_TERM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "falgebra/alphabet.h"
#include "trees/unranked_tree.h"
#include "util/cow_store.h"

namespace treenum {

using TermNodeId = uint32_t;
inline constexpr TermNodeId kNoTerm = static_cast<TermNodeId>(-1);

/// A node of a forest algebra term.
struct TermNode {
  Label label = 0;           ///< Symbol in Λ' (leaf symbol or operator).
  TermNodeId left = kNoTerm;
  TermNodeId right = kNoTerm;
  TermNodeId parent = kNoTerm;  ///< Current-version navigation (writer only).
  NodeId tree_node = kNoNode;  ///< For leaf symbols: the represented T-node.
  uint32_t size = 0;           ///< Number of leaf symbols below (incl. self).
  uint32_t height = 0;         ///< Height of the subterm (leaf = 0).
  uint32_t refs = 0;   ///< Parent edges over all live versions + root + pins.
  uint32_t epoch = 0;  ///< Edit epoch this node version was created in.
  bool is_context = false;     ///< Type: context vs. forest.
  bool alive = false;
};

/// A mutable forest algebra term with stable node ids.
///
/// The term is the binary tree the assignment circuit of §3 is built on:
/// circuit boxes are indexed by TermNodeId. All structural operations keep
/// size/height of the affected nodes consistent (callers use RecomputeUp for
/// path updates after splices).
///
/// Single-writer / multi-reader: all mutators run on one writer thread.
/// Reader threads may concurrently call node()/IsLeaf()/IsAlive() on node
/// ids reachable from a pinned snapshot root — those versions are frozen
/// (never mutated, never freed) until the pin is released. Node storage is
/// a CowStore, so writer growth never invalidates reader pointers.
class Term {
 public:
  explicit Term(const TermAlphabet& alphabet) : alphabet_(alphabet) {}

  const TermAlphabet& alphabet() const { return alphabet_; }

  TermNodeId root() const { return root_; }
  void set_root(TermNodeId r);

  const TermNode& node(TermNodeId id) const { return nodes_[id]; }
  bool IsAlive(TermNodeId id) const {
    return id < nodes_.size() && nodes_[id].alive;
  }
  bool IsLeaf(TermNodeId id) const { return nodes_[id].left == kNoTerm; }
  size_t num_alive() const { return num_alive_; }
  /// Upper bound over all ids ever allocated (for dense side arrays).
  size_t id_bound() const { return nodes_.size(); }

  /// Calls `visit(id)` on every node of the current term, children before
  /// their parent (left subterm first), over an explicit stack: the
  /// bottom-up order in which every per-box structure (circuit, jump index,
  /// run counts) is first built.
  template <typename Visit>
  void ForEachPostOrder(Visit visit) const;

  /// Creates a leaf symbol node (a_t or a_□) for tree node `n`.
  TermNodeId NewLeaf(Label symbol, NodeId n);

  /// Creates an operator node over two existing root-less nodes; sets parent
  /// pointers and computes size/height/type. Children must not already have
  /// a parent.
  TermNodeId NewNode(TermOp op, TermNodeId left, TermNodeId right);

  /// Replaces subterm `old_id` by `new_id` in old's parent (or as root).
  /// `old_id` keeps its subtree and becomes detached (its reference count
  /// drops; if it reaches zero the subtree is reclaimed by SweepZeros).
  /// Path-copies the parent first if it is frozen.
  void ReplaceChild(TermNodeId old_id, TermNodeId new_id);

  /// Replaces `existing` (in place, inside its parent) by a new operator
  /// node combining `existing` with the detached subterm `fresh`:
  /// op(fresh, existing) if fresh_on_left, else op(existing, fresh).
  /// Returns the new operator node. Does not recompute ancestor counters.
  /// Path-copies the parent first if it is frozen.
  TermNodeId SpliceOp(TermOp op, TermNodeId existing, TermNodeId fresh,
                      bool fresh_on_left);

  // ---- Join/split primitives (structural transactions) ----

  /// Joins two detached subterms under the concatenation operator dictated
  /// by their types (⊕HH / ⊕HV / ⊕VH; at most one operand may be a
  /// context). Returns the new detached operator node. This is the base
  /// step of every join-based bulk operation: the word AVL join, the piece
  /// encoder's forest concatenation, and the tree subtree transactions all
  /// funnel through it.
  TermNodeId JoinDetached(TermNodeId left, TermNodeId right);

  /// Splits a detached internal node into its two children: detaches both
  /// child parent pointers (pointer-only) and returns {left, right}. The
  /// dismantled node `t` keeps its child references until it is reclaimed
  /// by SweepZeros (or kept alive by a pinned snapshot), exactly like the
  /// scaffolding nodes of the word AVL split. A `t` with no references
  /// (joined earlier in the same edit) is queued for that sweep here.
  std::pair<TermNodeId, TermNodeId> SplitChildren(TermNodeId t);

  /// Queues a detached subterm the caller no longer wants (e.g. the middle
  /// factor of an erase-range) for the end-of-edit sweep. A freshly built
  /// subterm has a zero reference count and would otherwise never enter the
  /// sweep queue; a subterm still referenced by dismantled scaffolding or a
  /// pinned snapshot is left to the normal cascade.
  void ReleaseDetached(TermNodeId id);

  /// Low-level re-linking used by AVL rotations on ⊕HH chains (word terms):
  /// sets both children of `id`, fixes parent pointers, and recomputes the
  /// node's counters. Caller is responsible for type correctness and for
  /// `id` being mutable (EnsureMutable).
  void SetChildrenRaw(TermNodeId id, TermNodeId l, TermNodeId r);

  /// Sets one child slot of `parent` to `child` and fixes child's parent
  /// pointer. Does not recompute counters. `parent` must be mutable.
  void SetChildSlot(TermNodeId parent, bool left_slot, TermNodeId child);

  /// Detaches `id` from its parent pointer (the parent's child slot is NOT
  /// updated — used when dismantling a node whose children move elsewhere).
  /// Pointer-only: reference counts are adjusted when the parent's slot is
  /// overwritten or the parent is reclaimed.
  void ClearParent(TermNodeId id);

  /// Changes the label of a node in place (used by relabelings and by the
  /// context→forest retyping walk of leaf deletion). `id` must be mutable.
  void SetLabel(TermNodeId id, Label label);
  void SetContext(TermNodeId id, bool is_context);

  /// Recomputes size/height from `id` upward to the root; appends the
  /// visited ids (bottom-up, starting at id) to `path` if non-null.
  void RecomputeUp(TermNodeId id, std::vector<TermNodeId>* path = nullptr);

  // ---- Copy-on-write snapshot support ----

  /// True iff `id` must not be mutated in place: some snapshot is pinned and
  /// this node version predates the current edit epoch. Conservative — the
  /// node may not actually be reachable from any pinned root; useless copies
  /// are reclaimed by the end-of-edit sweep.
  bool frozen(TermNodeId id) const {
    return live_pins_ > 0 &&
           nodes_[id].epoch != static_cast<uint32_t>(cur_epoch_);
  }

  /// Returns a mutable version of `id`: `id` itself when not frozen, else a
  /// path-copy (the copy's ancestors are copied too, up to the root / first
  /// already-mutable ancestor). Records (old, new) pairs for EndEdit's remap.
  TermNodeId EnsureMutable(TermNodeId id);

  /// Starts an edit: clears the remap log. Each public edit operation of the
  /// encodings calls this once on entry.
  void BeginEdit() { remap_log_.clear(); }

  /// Ends an edit — the step every update shares (Lemma 7.3): sweeps the
  /// zero-reference nodes into `freed`, re-points `leaf_of` (indexed by the
  /// tree node or word position a leaf carries) at the leaves path-copied
  /// since BeginEdit, and reduces `changed` to the last alive occurrence of
  /// each id, order preserved — so a children-first list stays
  /// children-first. Each public edit operation of the encodings calls this
  /// once on exit.
  void EndEdit(std::vector<TermNodeId>& freed,
               std::vector<TermNodeId>& leaf_of,
               std::vector<TermNodeId>& changed);

  /// Reclaims every queued zero-reference node, cascading into children
  /// whose counts drop to zero; appends freed ids if non-null. Called by
  /// EndEdit and after UnpinRoot.
  void SweepZeros(std::vector<TermNodeId>* freed = nullptr);

  /// Pins `r` as a snapshot root: readers may traverse the version rooted at
  /// `r` until UnpinRoot. Bumps r's reference count and the live-pin gauge.
  void PinRoot(TermNodeId r);
  /// Releases a snapshot pin and reclaims newly unreachable versions
  /// (appended to `freed` if non-null). Writer thread only.
  void UnpinRoot(TermNodeId r, std::vector<TermNodeId>* freed = nullptr);
  /// Number of currently pinned snapshot roots.
  size_t live_pins() const { return live_pins_; }
  /// Frees the node store's retired buffers (CowStore::ReleaseRetired);
  /// writer thread, once no reader can hold one (core/snapshot.h).
  void ReleaseRetired() { nodes_.ReleaseRetired(); }
  /// Bytes of retired node-store buffers still allocated.
  size_t retired_bytes() const { return nodes_.retired_bytes(); }

  uint64_t epoch() const { return cur_epoch_; }
  /// Advances the edit epoch — called by the snapshot layer right after
  /// publishing, so nodes created before the publish freeze.
  void BumpEpoch() { ++cur_epoch_; }

  /// Lifetime number of path-copied nodes (perf gauge).
  uint64_t path_copies() const { return path_copies_; }
  /// Lifetime number of node slots recycled through the free list.
  uint64_t nodes_recycled() const { return nodes_recycled_; }
  /// Reference count of a node (tests).
  uint32_t refs(TermNodeId id) const { return nodes_[id].refs; }

  /// Decodes the represented forest; requires the term to be well-formed and
  /// forest-typed with a single represented tree. Labels come from the leaf
  /// symbols; the returned tree's node ids are fresh, and `term_to_tree`
  /// (indexed by leaf TermNodeId) receives the new NodeId of each leaf
  /// symbol if non-null.
  UnrankedTree Decode(std::vector<NodeId>* term_to_tree = nullptr) const;

  /// Decodes the version rooted at `r` instead of the current root
  /// (time-travel test helper; `r` must be a pinned snapshot root).
  UnrankedTree DecodeAt(TermNodeId r,
                        std::vector<NodeId>* term_to_tree = nullptr) const;

  /// Validates structural invariants: typing of all five operators, leaf
  /// symbols, parent pointers, size/height counters. Returns an empty string
  /// if valid, else a description of the first violation. (Test helper.)
  std::string Validate() const;

  /// Deep validation for the transaction tests, mirroring ValidateStorage
  /// in circuit/arena.h: everything Validate() checks, plus the balance
  /// envelope on every node reachable from the current root, a global
  /// reference-count audit (each alive node holds at least one reference,
  /// its count covers its alive parent edges plus the root slot, and the
  /// global surplus equals the live snapshot pins — so no version leaks and
  /// no dangling splice scaffolding survives an edit), and an empty
  /// zero-pending queue (every transaction must end with a sweep).
  /// `max_height(size)` is the envelope to enforce (pass MaxAllowedHeight
  /// for tree terms; word AVL terms satisfy it too).
  /// Returns "" if valid. Call only between edits, on the writer thread.
  std::string ValidateStructure(uint32_t (*max_height)(uint32_t)) const;

  /// Renders the subterm rooted at `id` (debugging).
  std::string ToString(TermNodeId id) const;

 private:
  TermNodeId Alloc();
  TermNodeId CopyForWrite(TermNodeId id);
  void RecomputeNode(TermNodeId id);
  void IncRef(TermNodeId id) { ++nodes_[id].refs; }
  void DecRef(TermNodeId id);

  TermAlphabet alphabet_;
  CowStore<TermNode> nodes_;
  std::vector<TermNodeId> free_list_;
  TermNodeId root_ = kNoTerm;
  size_t num_alive_ = 0;

  uint64_t cur_epoch_ = 0;
  size_t live_pins_ = 0;
  std::vector<TermNodeId> zero_pending_;
  std::vector<std::pair<TermNodeId, TermNodeId>> remap_log_;
  // EndEdit's dedupe marks and filter output (reused across edits).
  std::vector<uint32_t> seen_stamp_;
  uint32_t seen_epoch_ = 0;
  std::vector<TermNodeId> filter_out_;
  uint64_t path_copies_ = 0;
  uint64_t nodes_recycled_ = 0;
};

template <typename Visit>
void Term::ForEachPostOrder(Visit visit) const {
  struct F {
    TermNodeId id;
    bool expanded;
  };
  std::vector<F> stack{{root_, false}};
  while (!stack.empty()) {
    F f = stack.back();
    stack.pop_back();
    const TermNode& t = node(f.id);
    if (!f.expanded && t.left != kNoTerm) {
      stack.push_back({f.id, true});
      stack.push_back({t.right, false});
      stack.push_back({t.left, false});
      continue;
    }
    visit(f.id);
  }
}

}  // namespace treenum

#endif  // TREENUM_FALGEBRA_TERM_H_
