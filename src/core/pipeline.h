// EnumerationPipeline — the per-query owner of all derived enumeration
// state.
//
// The paper's machinery (Theorem 8.1 / Corollary 8.4) is one pipeline
// instantiated over different encodings: a balanced forest-algebra term
// (tree `DynamicEncoding` or word AVL `WordEncoding`) feeds an assignment
// circuit (Lemma 3.7), a jump index (Lemma 6.3), and optionally dynamic
// run counts. Its one maintenance entry point, Apply(), takes a commit's
// freed and children-first changed term ids (Lemma 7.3) and runs one pass
// per layer: it releases the freed boxes and rebuilds the changed ones in
// the circuit, then in the index, then in the counts.
//
// A pipeline does not own its term: the `DynamicDocument` layer
// (core/document.h) owns one encoding, records every edit, transaction and
// snapshot drain, and hands each commit to every pipeline registered on it,
// one after the other on the writer's thread; everything a refresh writes
// (circuit arena, index pool, counts) is pipeline-private. The rebuild
// order also lives in the document (it depends only on the term, so it is
// computed once per commit, not once per query).
//
// Reads always go through a pinned snapshot (core/snapshot.h): a pinned
// version is frozen — its node versions are never mutated or freed and its
// boxes are never rebuilt in place — so a read is valid on any thread,
// concurrently with writer edits and refreshes, and a read
// between BeginBatch and CommitBatch answers at the last committed
// version.
#ifndef TREENUM_CORE_PIPELINE_H_
#define TREENUM_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "automata/homogenize.h"
#include "circuit/circuit.h"
#include "counting/run_count.h"
#include "core/snapshot.h"
#include "enumeration/enumerate.h"
#include "enumeration/index.h"

namespace treenum {

/// Pull cursor over every satisfying assignment of one query at one pinned
/// snapshot: the empty assignment first when it satisfies the query, then
/// the non-empty ones from an AssignmentCursor (no duplicates), held by
/// value. The cursor co-owns the pin, so the version it reads stays frozen
/// until the cursor is destroyed, even if the caller's SnapshotRef is
/// released first. It must not outlive the document that published the
/// snapshot.
///
/// A read allocates the AssignmentCursor's first storage block when the
/// cursor is made (DynamicDocument::MakeCursorAt adds the unique_ptr that
/// holds the cursor; TreeEnumerator and WordEnumerator return it by
/// value), and Next refills the caller's Assignment in place; past the
/// first answer, a read allocates only if its enumeration outgrows that
/// block (enumeration/enumerate.h).
class SnapshotCursor {
 public:
  /// Produces the next satisfying assignment into `out`, reusing its
  /// capacity; false when exhausted.
  bool Next(Assignment* out);
  /// Elementary steps so far (delay accounting).
  size_t steps() const { return inner_.steps(); }

 private:
  friend class EnumerationPipeline;
  SnapshotCursor(const AssignmentCircuit* circuit, const EnumIndex* index,
                 BoxEnumMode mode)
      : inner_(circuit, index, mode) {}

  SnapshotRef snap_;
  bool emit_empty_ = false;
  AssignmentCursor inner_;  // exhausted when no non-empty answer exists
};

/// The per-query owner of all derived enumeration state — assignment
/// circuit, jump index, optional run counts — over a shared term it does
/// not own (see the file comment above for the full contract).
class EnumerationPipeline {
 public:
  /// Builds the circuit (and, in kIndexed mode, the jump index) over
  /// `term`, which must outlive the pipeline and is mutated externally by
  /// the encoding backend whose changes are fed to Apply().
  /// The automaton is a compiled plan shared with the query cache
  /// (automata/query_cache.h), not owned. The term must already carry a
  /// published snapshot: the pipeline serves that snapshot and every later
  /// one.
  EnumerationPipeline(const Term* term,
                      std::shared_ptr<const HomogenizedTva> homog,
                      BoxEnumMode mode);

  EnumerationPipeline(const EnumerationPipeline&) = delete;
  EnumerationPipeline& operator=(const EnumerationPipeline&) = delete;

  // ---- Introspection ----

  /// Width of the circuit (= trimmed, homogenized |Q'|).
  size_t width() const { return homog_->tva.num_states(); }
  /// The compiled plan; its address identifies the query in the registry.
  const std::shared_ptr<const HomogenizedTva>& automaton() const {
    return homog_;
  }
  /// The assignment circuit (Lemma 3.7) maintained over the shared term.
  const AssignmentCircuit& circuit() const { return circuit_; }
  /// The jump index (Lemma 6.3); empty unless mode() is kIndexed.
  const EnumIndex& index() const { return index_; }
  /// Box-enumeration mode this pipeline was built for.
  BoxEnumMode mode() const { return mode_; }

  // ---- Dynamic counting (optional; see counting/run_count.h) ----

  /// Builds the run counts (O(size * poly(w)) once); afterwards every
  /// refresh also maintains them along the changed path. Writer thread;
  /// it must happen before any reader's AcceptingRunsAt.
  void EnableCounting();
  /// True once EnableCounting() has run.
  bool counting_enabled() const { return counter_ != nullptr; }
  /// Accepting (valuation, run) pairs at `snap`, mod 2^64 (0 unless
  /// EnableCounting() has run). Any thread, like the reads below: a pinned
  /// version's count rows are never rewritten.
  uint64_t AcceptingRunsAt(const SnapshotRef& snap) const;

  // ---- Incremental maintenance ----

  /// Consumes one commit, one layer at a time. Each layer releases the
  /// boxes of every id of `freed` (releasing a box twice, or one never
  /// built, does nothing; an id re-allocated since it was freed is alive,
  /// appears in `changed`, and is rebuilt from an empty block), then
  /// rebuilds every id of `changed` in its order, which must list each
  /// alive id once, children first: every circuit box, then every index
  /// entry (kIndexed mode), then every count row. Pre-grows the circuit's
  /// reference store and the index pool for the whole list, so a pass
  /// never re-grows them.
  void Apply(const std::vector<TermNodeId>& freed,
             const std::vector<TermNodeId>& changed);

  /// Frees every layer's retired storage buffers. Writer thread, only when
  /// no reader can hold one (core/snapshot.h's release step).
  void ReleaseRetired();
  /// Bytes of retired storage buffers the layers still hold.
  size_t retired_bytes() const;
  /// Every layer's storage audit (circuit, index in kIndexed mode, run
  /// counts once enabled); the first violation, or "". Test hook.
  std::string ValidateStorage() const;

  // ---- Query surface, at a pinned snapshot ----
  //
  // `snap` must have been published by the document owning the term. A
  // snapshot this pipeline does not serve (see Serves) reads as no answers:
  // false, {}, an exhausted cursor and 0 runs. Any thread.

  /// True iff `snap` is non-empty and published no earlier than this
  /// pipeline was built (older versions hold node ids it never built).
  bool Serves(const SnapshotRef& snap) const;

  /// O(w/64) Boolean answer: is there at least one satisfying assignment?
  /// Tests the root box's state masks; allocates nothing.
  bool HasAnswerAt(const SnapshotRef& snap) const;
  /// Cursor over all satisfying assignments (the empty one included);
  /// takes over the pin. Γ is written straight into the cursor's storage.
  SnapshotCursor MakeCursorAt(SnapshotRef snap) const;
  /// All satisfying assignments (sorted), the empty one included.
  std::vector<Assignment> EnumerateAt(const SnapshotRef& snap) const;

 private:
  /// The pinned root of `snap`, or kNoTerm if this pipeline does not
  /// serve it.
  TermNodeId RootAt(const SnapshotRef& snap) const;
  /// True iff some final 0-state's gate at `root` is ⊤ (the empty
  /// assignment satisfies the query).
  bool EmptyAssignmentSatisfiesAt(TermNodeId root) const;
  /// True iff some final 1-state's gate at `root` is a ∪-gate (a non-empty
  /// assignment satisfies the query).
  bool NonEmptyAssignmentAt(TermNodeId root) const;

  std::shared_ptr<const HomogenizedTva> homog_;
  // Final 0-states and final 1-states as state bitmasks (⌈w/64⌉ words
  // each), tested against a root box's ⊤ and ∪ masks.
  std::vector<uint64_t> final_empty_;
  std::vector<uint64_t> final_nonempty_;
  AssignmentCircuit circuit_;
  EnumIndex index_;
  BoxEnumMode mode_;
  std::unique_ptr<RunCounter> counter_;
  // Oldest servable snapshot epoch: the one current at build time.
  uint64_t min_snapshot_epoch_ = 0;
};

}  // namespace treenum

#endif  // TREENUM_CORE_PIPELINE_H_
