// The shared surface of the tree engines: the paper's dynamic tree engine
// (TreeEnumerator) and the two Table-1 baselines implement this interface,
// so tests and benchmarks drive all of them through one API. The word
// engine (WordEnumerator) edits by position instead and is not an Engine.
// The update vocabulary is the edit set of Definition 7.1, also available
// as Edit values (core/command.h).
//
// Batched updates: BeginBatch()/CommitBatch() bracket a transaction in
// which edits mutate the input immediately but derived structures are
// refreshed once at commit; ApplyEdits() wraps a whole edit script.
#ifndef TREENUM_CORE_ENGINE_H_
#define TREENUM_CORE_ENGINE_H_

#include <memory>
#include <vector>

#include "core/command.h"
#include "trees/assignment.h"
#include "trees/unranked_tree.h"

namespace treenum {

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
    switch (e.kind) {
      case Edit::Kind::kRelabel:
        return Relabel(e.node, e.label);
      case Edit::Kind::kInsertFirstChild:
        return InsertFirstChild(e.node, e.label, new_node);
      case Edit::Kind::kInsertRightSibling:
        return InsertRightSibling(e.node, e.label, new_node);
      case Edit::Kind::kDeleteLeaf:
        break;
    }
    return DeleteLeaf(e.node);
  }
  /// Applies a whole edit script in one transaction and returns the
  /// combined stats; in an open batch the commit stays with the caller.
  UpdateStats ApplyEdits(const std::vector<Edit>& edits) {
    const bool own_batch = !in_batch();
    if (own_batch) BeginBatch();
    UpdateStats total;
    for (const Edit& e : edits) total += ApplyEdit(e);
    if (own_batch) total += CommitBatch();
    total.edits_applied = edits.size();
    return total;
  }
};

}  // namespace treenum

#endif  // TREENUM_CORE_ENGINE_H_
