// TreeEnumerator — the paper's main result (Theorem 8.1, Corollaries
// 8.2/8.3) as a library facade.
//
// Given an unranked tree T and a query as a nondeterministic unranked
// stepwise TVA A, preprocessing (the constructor) runs in O(|T| * poly(|Q|)):
//   1. translate A to a binary TVA A' over the forest-algebra term alphabet
//      (Lemma 7.4) and homogenize it (Lemma 2.1);
//   2. encode T as a balanced term (the encoding scheme ω);
//   3. build the assignment circuit (Lemma 3.7) and the jump index
//      (Lemma 6.3).
// Afterwards, satisfying assignments can be enumerated with delay
// independent of |T| (Theorem 6.5), and the edit operations of
// Definition 7.1 are supported in logarithmic time (Lemma 7.3), after which
// enumeration can simply be restarted.
//
// This class is a thin view over a private single-query DynamicDocument:
// the document owns the tree encoding and edit/batch dispatch, the
// registered EnumerationPipeline owns all derived state (circuit, index,
// counts). To serve several queries over one shared tree — paying the
// encoding maintenance once per edit instead of once per query — hold a
// DynamicDocument (core/document.h) directly.
#ifndef TREENUM_CORE_TREE_ENUMERATOR_H_
#define TREENUM_CORE_TREE_ENUMERATOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "automata/unranked_tva.h"
#include "core/document.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "falgebra/update.h"
#include "trees/assignment.h"
#include "trees/unranked_tree.h"

namespace treenum {

class TreeEnumerator : public Engine {
 public:
  /// Preprocessing. `mode` selects the indexed (paper) or naive
  /// (depth-dependent-delay baseline) box enumeration.
  TreeEnumerator(UnrankedTree tree, const UnrankedTva& query,
                 BoxEnumMode mode = BoxEnumMode::kIndexed);

  const UnrankedTree& tree() const { return doc_.tree(); }
  const Term& term() const { return doc_.term(); }
  /// Width of the circuit (= trimmed, homogenized |Q'|).
  size_t width() const { return pipe_->width(); }
  size_t size() const override { return doc_.tree().size(); }

  // ---- Enumeration, at the last committed version ----
  //
  // Every read pins CurrentSnapshot(), so between BeginBatch and
  // CommitBatch it answers as before the batch.

  /// Pull-style cursor over the satisfying assignments (no duplicates,
  /// with steps() for delay accounting). It co-owns its snapshot pin, so
  /// it keeps reading its version across later updates.
  using Cursor = SnapshotCursor;

  /// Cursor at the current snapshot.
  Cursor Enumerate() const { return pipe_->MakeCursorAt(CurrentSnapshot()); }
  /// All satisfying assignments at the current snapshot (sorted).
  std::vector<Assignment> EnumerateAll() const override {
    return EnumerateAt(CurrentSnapshot());
  }
  /// Type-erased Enumerate().
  std::unique_ptr<Engine::Cursor> MakeCursor() const override {
    return MakeCursorAt(CurrentSnapshot());
  }
  /// O(w) Boolean answer: does the query have at least one satisfying
  /// assignment on the current tree?
  bool HasAnswer() const override { return HasAnswerAt(CurrentSnapshot()); }

  // ---- Concurrent snapshot reads (see core/document.h) ----

  /// Pins the most recently committed version. Any thread.
  SnapshotRef CurrentSnapshot() const { return doc_.CurrentSnapshot(); }
  /// All satisfying assignments at a pinned snapshot — runs on reader
  /// threads concurrently with writer edits; old snapshots keep answering
  /// with their pre-edit results (time-travel).
  std::vector<Assignment> EnumerateAt(const SnapshotRef& snap) const {
    return doc_.EnumerateAt(snap, handle_);
  }
  /// HasAnswer at a pinned snapshot. Any thread.
  bool HasAnswerAt(const SnapshotRef& snap) const {
    return doc_.HasAnswerAt(snap, handle_);
  }
  /// Cursor at a pinned snapshot; the cursor co-owns the pin.
  std::unique_ptr<Engine::Cursor> MakeCursorAt(SnapshotRef snap) const {
    return doc_.MakeCursorAt(std::move(snap), handle_);
  }

  // ---- Dynamic counting (optional; see counting/run_count.h) ----

  /// Enables maintenance of accepting-run counts (O(|T| * poly(w)) once;
  /// afterwards each update also refreshes the counts on the changed path).
  void EnableCounting() { pipe_->EnableCounting(); }
  bool counting_enabled() const { return pipe_->counting_enabled(); }
  /// Number of accepting (valuation, run) pairs mod 2^64 at the current
  /// snapshot. Equals the number of satisfying assignments when the
  /// automaton is unambiguous (all query_library queries are). Requires
  /// EnableCounting().
  uint64_t AcceptingRuns() const {
    return pipe_->AcceptingRunsAt(CurrentSnapshot());
  }

  // ---- Updates (Definition 7.1), O(log |T| * poly(|Q|)) each ----

  UpdateStats Relabel(NodeId n, Label l) override {
    return doc_.Apply(Command::Relabel(n, l));
  }
  UpdateStats InsertFirstChild(NodeId n, Label l,
                               NodeId* new_node = nullptr) override {
    return doc_.Apply(Command::InsertFirstChild(n, l, new_node));
  }
  UpdateStats InsertRightSibling(NodeId n, Label l,
                                 NodeId* new_node = nullptr) override {
    return doc_.Apply(Command::InsertRightSibling(n, l, new_node));
  }
  UpdateStats DeleteLeaf(NodeId n) override {
    return doc_.Apply(Command::DeleteLeaf(n));
  }

  /// Batched updates: circuit/index/count maintenance is coalesced at the
  /// document and the changed boxes are refreshed once at CommitBatch
  /// (see core/document.h).
  void BeginBatch() override { doc_.BeginBatch(); }
  UpdateStats CommitBatch() override { return doc_.CommitBatch(); }
  bool in_batch() const override { return doc_.in_batch(); }

  // ---- Introspection (tests / benches) ----
  DynamicDocument& document() { return doc_; }
  const DynamicDocument& document() const { return doc_; }
  const EnumerationPipeline& pipeline() const { return *pipe_; }
  const AssignmentCircuit& circuit() const { return pipe_->circuit(); }
  const EnumIndex& index() const { return pipe_->index(); }

 private:
  DynamicDocument doc_;
  DynamicDocument::QueryHandle handle_;
  EnumerationPipeline* pipe_;
};

/// Corollary 8.3 convenience: converts assignments of a first-order query
/// (every assignment has size exactly num_vars, one singleton per variable
/// — e.g. a query passed through MakeFirstOrder) into answer tuples, where
/// tuple[v] is the node bound to variable v.
std::vector<std::vector<NodeId>> AssignmentsToTuples(
    const std::vector<Assignment>& assignments, size_t num_vars);

}  // namespace treenum

#endif  // TREENUM_CORE_TREE_ENUMERATOR_H_
