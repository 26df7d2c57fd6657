// The shared surface of the tree engines: the paper's dynamic tree engine
// (TreeEnumerator) and the two Table-1 baselines implement this interface,
// so tests and benchmarks drive all of them through one API. The word
// engine (WordEnumerator, Corollary 8.4) edits by position instead and is
// not an Engine.
//
// The update vocabulary is the edit set of Definition 7.1, also available
// as Edit values; ApplyEditTo/ApplyEditsTo are the one dispatch of an Edit,
// shared by Engine and DynamicDocument (core/document.h).
//
// Batched updates: BeginBatch()/CommitBatch() bracket a transaction in
// which edits mutate the input immediately but derived structures
// (circuit boxes, jump index, run counts — or, for the baselines, the
// materialized result set) are refreshed once at commit instead of once
// per edit. ApplyEdits() is the convenience wrapper: one transaction
// around a whole edit script.
#ifndef TREENUM_CORE_ENGINE_H_
#define TREENUM_CORE_ENGINE_H_

#include <memory>
#include <vector>

#include "trees/assignment.h"
#include "trees/unranked_tree.h"

namespace treenum {

/// Per-update cost report (for benchmarks). For a batched transaction,
/// boxes_recomputed counts the *unique* boxes refreshed at commit.
struct UpdateStats {
  size_t boxes_recomputed = 0;
  size_t rebuilt_size = 0;  ///< Term nodes rebuilt by rebalancing (0 = none).
  size_t edits_applied = 0;  ///< Edits covered by this report (1 per edit op).

  UpdateStats& operator+=(const UpdateStats& o) {
    boxes_recomputed += o.boxes_recomputed;
    rebuilt_size += o.rebuilt_size;
    edits_applied += o.edits_applied;
    return *this;
  }
};

/// One edit of Definition 7.1, as a value (for edit scripts / batches).
struct Edit {
  enum class Kind : uint8_t {
    kRelabel,
    kInsertFirstChild,
    kInsertRightSibling,
    kDeleteLeaf,
  };

  Kind kind = Kind::kRelabel;      ///< Which of the four edit ops.
  NodeId node = kNoNode;           ///< Target node.
  Label label = 0;                 ///< Unused by kDeleteLeaf.

  /// Value form of Engine::Relabel.
  static Edit Relabel(NodeId n, Label l) { return {Kind::kRelabel, n, l}; }
  /// Value form of Engine::InsertFirstChild.
  static Edit InsertFirstChild(NodeId n, Label l) {
    return {Kind::kInsertFirstChild, n, l};
  }
  /// Value form of Engine::InsertRightSibling.
  static Edit InsertRightSibling(NodeId n, Label l) {
    return {Kind::kInsertRightSibling, n, l};
  }
  /// Value form of Engine::DeleteLeaf.
  static Edit DeleteLeaf(NodeId n) { return {Kind::kDeleteLeaf, n, 0}; }
};

/// Applies one Edit to `target` (an Engine or a DynamicDocument) by
/// calling the matching edit operation.
template <typename Target>
UpdateStats ApplyEditTo(Target& target, const Edit& e,
                        NodeId* new_node = nullptr) {
  switch (e.kind) {
    case Edit::Kind::kRelabel:
      return target.Relabel(e.node, e.label);
    case Edit::Kind::kInsertFirstChild:
      return target.InsertFirstChild(e.node, e.label, new_node);
    case Edit::Kind::kInsertRightSibling:
      return target.InsertRightSibling(e.node, e.label, new_node);
    case Edit::Kind::kDeleteLeaf:
      return target.DeleteLeaf(e.node);
  }
  return UpdateStats{};
}

/// Applies a whole edit script to `target` in one transaction (BeginBatch,
/// the edits, CommitBatch) and returns the combined stats. When `target`
/// already has an open batch, the edits join it and the commit stays with
/// the caller.
template <typename Target>
UpdateStats ApplyEditsTo(Target& target, const std::vector<Edit>& edits) {
  const bool own_batch = !target.in_batch();
  if (own_batch) target.BeginBatch();
  UpdateStats total;
  for (const Edit& e : edits) total += ApplyEditTo(target, e);
  if (own_batch) total += target.CommitBatch();
  total.edits_applied = edits.size();
  return total;
}

/// The shared surface of the tree engines (dynamic tree engine, Table-1
/// baselines): enumeration, Definition 7.1 updates, and transactional
/// batching.
class Engine {
 public:
  /// Type-erased pull cursor over satisfying assignments. Invalidated by
  /// updates to the engine it came from.
  class Cursor {
   public:
    virtual ~Cursor() = default;
    virtual bool Next(Assignment* out) = 0;
  };

  virtual ~Engine() = default;

  // ---- Enumeration ----

  /// All satisfying assignments (sorted, duplicate-free).
  virtual std::vector<Assignment> EnumerateAll() const = 0;
  /// Pull cursor (no duplicates; ordering is engine-specific).
  virtual std::unique_ptr<Cursor> MakeCursor() const = 0;
  /// Boolean answer: is there at least one satisfying assignment?
  virtual bool HasAnswer() const = 0;
  /// Current input size (tree nodes).
  virtual size_t size() const = 0;

  // ---- Updates ----

  /// Changes the label of node `n`.
  virtual UpdateStats Relabel(NodeId n, Label l) = 0;
  /// Inserts a new first child under `n` (id reported via `new_node`).
  virtual UpdateStats InsertFirstChild(NodeId n, Label l,
                                       NodeId* new_node = nullptr) = 0;
  /// Inserts a new right sibling of `n` (id reported via `new_node`).
  virtual UpdateStats InsertRightSibling(NodeId n, Label l,
                                         NodeId* new_node = nullptr) = 0;
  /// Deletes leaf `n`.
  virtual UpdateStats DeleteLeaf(NodeId n) = 0;

  // ---- Batched updates ----

  /// Opens a transaction: subsequent edits defer derived-structure
  /// maintenance until CommitBatch(). Reads between BeginBatch and
  /// CommitBatch return the pre-batch answers: the dynamic engines read
  /// their last committed snapshot, the recompute baselines their last
  /// refreshed state. No-op default for engines with nothing to defer.
  virtual void BeginBatch() {}
  /// Closes the transaction, refreshing every derived structure once.
  virtual UpdateStats CommitBatch() { return UpdateStats{}; }
  /// True while a transaction is open. Engines with deferred maintenance
  /// override this; nesting BeginBatch is not supported.
  virtual bool in_batch() const { return false; }

  /// Applies one Edit by dispatching to the virtual ops above.
  UpdateStats ApplyEdit(const Edit& e, NodeId* new_node = nullptr) {
    return ApplyEditTo(*this, e, new_node);
  }
  /// Applies a whole edit script in one transaction (see ApplyEditsTo).
  UpdateStats ApplyEdits(const std::vector<Edit>& edits) {
    return ApplyEditsTo(*this, edits);
  }
};

}  // namespace treenum

#endif  // TREENUM_CORE_ENGINE_H_
