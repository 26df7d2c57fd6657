// WordEnumerator — Theorem 8.5: enumeration of the satisfying assignments
// of a nondeterministic WVA (document spanner) on a word, with character
// edits in worst-case O(log |w| * poly(|Q|)) via AVL-balanced ⊕HH terms
// (Corollary 8.4).
//
// Like TreeEnumerator, a thin view over a private single-query
// DynamicDocument (the word-backed variant); all derived-state maintenance
// is shared with the tree engine through the document layer and
// EnumerationPipeline. It edits by logical position (Replace / Insert /
// Erase / MoveRange) where TreeEnumerator edits by node; it offers the same
// read and batching members. Answers name stable position ids (PositionOf
// maps them back). Multi-spanner serving over one shared word goes through
// DynamicDocument directly.
#ifndef TREENUM_CORE_WORD_ENUMERATOR_H_
#define TREENUM_CORE_WORD_ENUMERATOR_H_

#include <utility>
#include <vector>

#include "automata/wva.h"
#include "core/document.h"
#include "core/pipeline.h"
#include "falgebra/word_avl.h"
#include "trees/assignment.h"

namespace treenum {

class WordEnumerator {
 public:
  WordEnumerator(const Word& w, const Wva& query,
                 BoxEnumMode mode = BoxEnumMode::kIndexed);

  /// Current number of letters.
  size_t size() const { return doc_.word_encoding().size(); }
  size_t width() const { return pipe_->width(); }
  const WordEncoding& encoding() const { return doc_.word_encoding(); }

  // Reads pin CurrentSnapshot(), so between BeginBatch and CommitBatch
  // they answer as before the batch. They go straight to the pipeline and
  // hand the cursor back by value.

  /// Pull-style cursor over the satisfying assignments (co-owns its pin).
  using Cursor = SnapshotCursor;

  /// Satisfying assignments; singleton NodeIds are *stable position ids* —
  /// translate to current positions with PositionOf.
  std::vector<Assignment> EnumerateAll() const {
    return EnumerateAt(CurrentSnapshot());
  }
  /// Cursor at the current snapshot.
  Cursor Enumerate() const { return MakeCursorAt(CurrentSnapshot()); }
  /// Boolean answer at the current snapshot.
  bool HasAnswer() const { return HasAnswerAt(CurrentSnapshot()); }
  /// Current logical position of a stable position id.
  size_t PositionOf(NodeId id) const {
    return doc_.word_encoding().PositionOf(id);
  }

  /// Like EnumerateAll but with singletons rewritten to current positions.
  std::vector<Assignment> EnumerateAllByPosition() const;

  // ---- Concurrent snapshot reads (see core/document.h) ----

  /// Pins the most recently committed version. Any thread.
  SnapshotRef CurrentSnapshot() const { return doc_.CurrentSnapshot(); }
  /// All satisfying assignments at a pinned snapshot (stable position ids)
  /// — runs on reader threads concurrently with writer edits; old
  /// snapshots keep answering with their pre-edit results (time-travel).
  std::vector<Assignment> EnumerateAt(const SnapshotRef& snap) const {
    return pipe_->EnumerateAt(snap);
  }
  /// HasAnswer at a pinned snapshot. Any thread.
  bool HasAnswerAt(const SnapshotRef& snap) const {
    return pipe_->HasAnswerAt(snap);
  }
  /// Cursor at a pinned snapshot; the cursor co-owns the pin.
  Cursor MakeCursorAt(SnapshotRef snap) const {
    return pipe_->MakeCursorAt(std::move(snap));
  }

  // ---- Word edits by logical position, worst-case O(log |w|) ----
  UpdateStats Replace(size_t pos, Label l) {
    return doc_.Apply(Command::Replace(pos, l));
  }
  UpdateStats Insert(size_t pos, Label l) {
    return doc_.Apply(Command::Insert(pos, l));
  }
  UpdateStats Erase(size_t pos) { return doc_.Apply(Command::Erase(pos)); }
  /// Bulk edit: move the factor [begin, end) so it starts at `dst` of the
  /// remaining word. Also O(log |w|) (AVL split/join).
  UpdateStats MoveRange(size_t begin, size_t end, size_t dst) {
    return doc_.Apply(Command::MoveRange(begin, end, dst));
  }

  // ---- Batched updates (see core/document.h) ----
  void BeginBatch() { doc_.BeginBatch(); }
  UpdateStats CommitBatch() { return doc_.CommitBatch(); }
  bool in_batch() const { return doc_.in_batch(); }

  DynamicDocument& document() { return doc_; }
  const DynamicDocument& document() const { return doc_; }
  const EnumerationPipeline& pipeline() const { return *pipe_; }
  const AssignmentCircuit& circuit() const { return pipe_->circuit(); }

 private:
  DynamicDocument doc_;
  EnumerationPipeline* pipe_;  // of the one registration
};

}  // namespace treenum

#endif  // TREENUM_CORE_WORD_ENUMERATOR_H_
