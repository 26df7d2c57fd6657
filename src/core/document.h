// DynamicDocument — one mutating document serving many registered queries.
//
// The paper maintains one circuit+index per (document, query) pair, and so
// did the engines: each TreeEnumerator/WordEnumerator privately owned its
// encoding, so serving Q queries over one document paid the O(log n)
// balanced-term maintenance (Lemma 7.3's encoding half) Q times per edit
// and refreshed every query's boxes serially. This layer splits the pair:
//
//   * The document owns exactly one encoding — the balanced tree term
//     (`DynamicEncoding`) or the word AVL term (`WordEncoding`). Each edit
//     or structural transaction mutates the term once and produces one
//     `UpdateResult`.
//   * Every registered query owns one `EnumerationPipeline` (circuit, jump
//     index, optional counts) over the shared term. The document keeps one
//     record of the term ids freed and changed since the last commit: every
//     edit and transaction, inside a batch or not, appends its
//     UpdateResult, and the snapshot drain appends the node versions it
//     reclaims. One Commit — after each edit outside a batch, at
//     CommitBatch inside one — orders the alive changed ids once, children
//     first by (term height, id), hands the record to every pipeline's
//     Apply and publishes one snapshot, so the encoding half of update
//     maintenance is paid once regardless of Q. Inside a batch a node
//     touched by many edits is rebuilt once per pipeline.
//   * Registered queries are *deduplicated* by compiled-plan identity:
//     the shared QueryCache (automata/query_cache.h) keys every plan by
//     the serialized bytes of its canonical form, so textually different
//     but automaton-identical queries arrive as the same plan pointer,
//     and the registry maps each (plan, mode) pair to one refcounted
//     pipeline. A pipeline lives exactly as long
//     as its registrations: the last Unregister destroys it, so the
//     cache's LRU of compiled plans is the only thing kept between
//     registrations. Re-registering a released query is a cache hit that
//     compiles nothing and builds a fresh pipeline over the current term.
//     Handle slots recycle through a free list under generation tags, so
//     stale handles never validate. DocumentStats exposes the registry
//     state.
//   * A refresh is one loop over the *distinct* pipelines, in build order,
//     on the writer's thread — per-edit refresh cost scales with the
//     number of distinct live queries, not registrations, and the steady
//     state stays allocation-free.
//   * Every committed edit publishes the new term root as an immutable
//     snapshot (core/snapshot.h) over the copy-on-write term, and every
//     read goes through one: reader threads pin the current snapshot
//     (CurrentSnapshot) and enumerate it (EnumerateAt / MakeCursorAt)
//     concurrently with writer edits — the writer path-copies the
//     O(log n) edit spine instead of mutating pinned versions in place,
//     so readers never see a torn term or a box rebuilt under them. A read
//     between BeginBatch and CommitBatch answers at the last committed
//     version. Old snapshots keep answering with their pre-edit results
//     until released (time-travel). Retired snapshots are drained before
//     the next edit, which recycles their node versions; that edit's commit
//     releases their boxes into the arena free lists — steady state stays
//     allocation-free.
//
// TreeEnumerator and WordEnumerator are thin views over a private document
// with one registered query; multi-query servers hold a DynamicDocument
// directly and read each registration at a pinned snapshot.
#ifndef TREENUM_CORE_DOCUMENT_H_
#define TREENUM_CORE_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "automata/homogenize.h"
#include "automata/query_cache.h"
#include "automata/unranked_tva.h"
#include "automata/wva.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "core/snapshot.h"
#include "falgebra/update.h"
#include "falgebra/word_avl.h"
#include "trees/unranked_tree.h"

namespace treenum {

/// Where a structural transaction attaches the moved/grafted subtree
/// relative to its destination anchor.
enum class AttachWhere {
  kFirstChild,    ///< becomes the first child of the anchor
  kRightSibling,  ///< becomes the right sibling of the anchor (non-root)
};

/// Registry observability snapshot (see DynamicDocument::stats()): how many
/// queries and pipelines are live and how registrations were served.
struct DocumentStats {
  /// Per-pipeline registry entry state.
  struct PipelineStats {
    size_t queries = 0;         ///< Live registrations sharing this pipeline.
    size_t width = 0;           ///< Automaton width (circuit state count).
  };

  size_t live_queries = 0;     ///< Live handles (registrations).
  size_t live_pipelines = 0;   ///< Pipelines (distinct live queries).
  size_t shared_hits = 0;      ///< Registrations served by a live pipeline.
  size_t handle_slots = 0;     ///< Handle-table slots (recycled, ~peak live).
  std::vector<PipelineStats> pipelines;  ///< One entry per pipeline.
};

/// One mutating document (tree or word) serving many registered queries
/// through a deduplicating, refcounted query registry (see the file
/// comment above for the full design).
class DynamicDocument {
 public:
  /// Handle of one registration. Handles are stable across other
  /// registrations and unregistrations; several live handles may resolve
  /// to the same deduplicated pipeline.
  using QueryHandle = size_t;

  /// A tree document: encodes `tree` as a balanced term (linear time).
  /// Every registered query must use exactly `num_labels` base labels.
  /// Query compilation is routed through `cache` (null = the process-wide
  /// QueryCache::Global()), so documents sharing a cache share compiled
  /// plans; the cache must outlive the document.
  DynamicDocument(UnrankedTree tree, size_t num_labels,
                  QueryCache* cache = nullptr);
  /// A word document over the AVL ⊕HH term (Corollary 8.4); `cache` as in
  /// the tree constructor.
  DynamicDocument(const Word& w, size_t num_labels,
                  QueryCache* cache = nullptr);

  DynamicDocument(const DynamicDocument&) = delete;
  DynamicDocument& operator=(const DynamicDocument&) = delete;

  // ---- Introspection ----

  /// The shared balanced term every pipeline is built over.
  const Term& term() const { return *term_; }
  /// The current tree (tree documents only).
  const UnrankedTree& tree() const;
  /// The AVL-term encoding backend (word documents only).
  const WordEncoding& word_encoding() const;
  /// Current input size (tree nodes / word letters).
  size_t size() const;

  // ---- Query registration (deduplicating registry) ----

  /// Registers a query. Compilation (translation + homogenization +
  /// canonicalization) is served by the shared QueryCache: a query any
  /// document using the same cache has already compiled is admitted with
  /// zero compilation work. The per-document registry then either admits
  /// the compiled plan to an existing pipeline (same plan and mode — a
  /// dedupe hit) or builds a new pipeline (circuit and, in kIndexed mode,
  /// jump index) over the current term — O(size * poly(|Q|)). Not allowed
  /// mid-batch.
  QueryHandle Register(const UnrankedTva& query,
                       BoxEnumMode mode = BoxEnumMode::kIndexed);
  /// Word-document overload of Register (queries are WVAs / spanners).
  QueryHandle Register(const Wva& query,
                       BoxEnumMode mode = BoxEnumMode::kIndexed);
  /// The compiled-query cache this document's registrations go through.
  QueryCache& query_cache() const { return *cache_; }
  /// Releases one registration; the handle becomes invalid. The shared
  /// pipeline lives on while other handles reference it; the last release
  /// destroys it, so every ReaderView and cursor resolved through the
  /// handle must be released first. Re-registering the query later
  /// compiles nothing (a cache hit) and builds a fresh pipeline over the
  /// current term.
  void Unregister(QueryHandle handle);
  /// True iff `handle` was returned by Register and not yet unregistered.
  bool IsRegistered(QueryHandle handle) const;
  /// Number of live registrations (handles), counting duplicates.
  size_t num_queries() const { return num_live_; }
  /// Number of pipelines, one per distinct live (plan, mode). This — not
  /// num_queries() — is what per-edit refresh cost scales with.
  size_t num_pipelines() const { return entries_.size(); }

  /// The pipeline serving a registration (counting, introspection; reads
  /// go through the snapshot surface below). Duplicate registrations
  /// return the same pipeline object.
  EnumerationPipeline& pipeline(QueryHandle handle);
  /// Const overload of pipeline().
  const EnumerationPipeline& pipeline(QueryHandle handle) const;
  /// Registry observability snapshot.
  DocumentStats stats() const;

  // ---- Concurrent snapshot reads ----
  //
  // The single-writer / multi-reader surface, and the only way to read a
  // registration. Reader threads pin the current snapshot and evaluate
  // registered queries against it while the writer thread keeps editing
  // (including mid-batch — pinned versions are complete and frozen).
  // Handles passed here must have been registered *before* the concurrent
  // phase: Register/Unregister are writer-side and not synchronized against
  // readers, and a query's pipeline can only serve snapshots published at
  // or after its build (checked against the snapshot epoch). A SnapshotRef
  // must be released before the document is destroyed.

  /// Pre-resolved read surface for one registration, safe to use from
  /// reader threads *even while the writer thread mutates the query
  /// registry* (Register/Unregister). EnumerateAt &
  /// friends resolve handle → pipeline through the registry tables on
  /// every call, which is fine when registrations are quiesced during the
  /// concurrent phase — but a shard server interleaves registrations with
  /// reads, and the tables reallocate. A ReaderView captures the pipeline
  /// pointer once, on the writer side, and afterwards touches only the
  /// pipeline's frozen boxes at the pinned snapshot version.
  ///
  /// Contract: create the view on the writer thread (no concurrent
  /// registry mutation), and release the view and every cursor made from
  /// it before the underlying registration is unregistered — the last
  /// Unregister of a (plan, mode) destroys its pipeline, so a live handle
  /// is exactly what keeps the view's pointer valid. The serving layer
  /// (serving/shard_server.h) resolves views on the shard worker at
  /// registration time; its callers stop using a view before submitting
  /// the unregister command.
  class ReaderView {
   public:
    ReaderView() = default;
    /// True when bound to a registration.
    explicit operator bool() const { return pipeline_ != nullptr; }
    /// HasAnswer at `snap`. Any thread (see the class contract).
    bool HasAnswerAt(const SnapshotRef& snap) const {
      return pipeline_->HasAnswerAt(snap);
    }
    /// All satisfying assignments at `snap`, sorted. Any thread.
    std::vector<Assignment> EnumerateAt(const SnapshotRef& snap) const {
      return pipeline_->EnumerateAt(snap);
    }
    /// Cursor at `snap`; the cursor co-owns the pin, so the version
    /// outlives it even after `snap` is released. Any thread.
    std::unique_ptr<Engine::Cursor> MakeCursorAt(SnapshotRef snap) const {
      return std::make_unique<SnapshotCursor>(
          pipeline_->MakeCursorAt(std::move(snap)));
    }

   private:
    friend class DynamicDocument;
    explicit ReaderView(const EnumerationPipeline* p) : pipeline_(p) {}
    const EnumerationPipeline* pipeline_ = nullptr;
  };

  /// Resolves `handle` into a ReaderView (writer thread only; see the
  /// ReaderView contract above).
  ReaderView reader_view(QueryHandle handle) const {
    return ReaderView(&pipeline(handle));
  }

  /// Pins the most recently published snapshot. Any thread.
  SnapshotRef CurrentSnapshot() const { return snapshots_->Current(); }
  /// HasAnswer for `handle`'s query evaluated at `snap`. Any thread.
  bool HasAnswerAt(const SnapshotRef& snap, QueryHandle handle) const {
    return reader_view(handle).HasAnswerAt(snap);
  }
  /// All satisfying assignments of `handle`'s query at `snap`. Any thread.
  std::vector<Assignment> EnumerateAt(const SnapshotRef& snap,
                                      QueryHandle handle) const {
    return reader_view(handle).EnumerateAt(snap);
  }
  /// Cursor over `handle`'s assignments at `snap` (see ReaderView).
  std::unique_ptr<Engine::Cursor> MakeCursorAt(SnapshotRef snap,
                                               QueryHandle handle) const {
    return reader_view(handle).MakeCursorAt(std::move(snap));
  }
  /// Lifetime number of published snapshots.
  uint64_t snapshots_published() const { return snapshots_->published(); }
  /// Snapshots currently pinned (current + reader-held + not yet drained).
  size_t live_snapshots() const { return snapshots_->live_snapshots(); }

  // ---- Tree edits (Definition 7.1), O(log n * poly(Q)) per pipeline ----
  // Tree documents only; word documents edit by position (below). An
  // unknown node or label aborts before anything changes.
  // UpdateStats totals are summed across pipelines (one per distinct live
  // query): boxes_recomputed counts every per-pipeline box refresh.

  /// Changes the label of node `n`.
  UpdateStats Relabel(NodeId n, Label l);
  /// Inserts a new first child under `n` (id reported via `new_node`).
  UpdateStats InsertFirstChild(NodeId n, Label l, NodeId* new_node = nullptr);
  /// Inserts a new right sibling of `n` (id reported via `new_node`).
  UpdateStats InsertRightSibling(NodeId n, Label l,
                                 NodeId* new_node = nullptr);
  /// Deletes leaf `n`.
  UpdateStats DeleteLeaf(NodeId n);

  // ---- Tree structural transactions ----
  // Each call is ONE transaction: the term region covering the subtree is
  // re-encoded once, every surviving box is rebuilt once per pipeline
  // (arena spans recycle instead of free/realloc), and one snapshot epoch
  // is published. Inside a batch the transaction coalesces with the other
  // recorded edits as usual. An unknown node, or a grafted label outside
  // the document alphabet, aborts before anything changes.

  /// Moves the subtree at `v` to `dst` (which must be outside the subtree).
  UpdateStats SubtreeMove(NodeId v, NodeId dst,
                          AttachWhere where = AttachWhere::kFirstChild);
  /// Deletes the whole subtree at `v` (non-root).
  UpdateStats SubtreeDelete(NodeId v);
  /// Deletes the subtree at `v`, assigning a fresh-id copy to `*extracted`.
  UpdateStats SubtreeExtract(NodeId v, UnrankedTree* extracted);
  /// Inserts a copy of `src`'s subtree at `src_root` next to `dst`.
  UpdateStats GraftSubtree(const UnrankedTree& src, NodeId src_root,
                           NodeId dst,
                           AttachWhere where = AttachWhere::kFirstChild,
                           NodeId* new_root = nullptr);

  // ---- Word edits by logical position, worst-case O(log |w|) ----
  // A position out of range or an unknown label aborts before anything
  // changes.

  /// Replaces the letter at position `pos`.
  UpdateStats Replace(size_t pos, Label l);
  /// Inserts letter `l` so that it becomes position `pos`.
  UpdateStats Insert(size_t pos, Label l);
  /// Erases the letter at position `pos`.
  UpdateStats Erase(size_t pos);
  // ---- Word structural transactions (AVL split/join) ----
  // A range out of bounds or an unknown concatenated letter aborts before
  // anything changes.

  /// Moves the factor [begin, end) so it starts at `dst` of the remaining
  /// word (AVL split/join; position ids are preserved).
  UpdateStats MoveRange(size_t begin, size_t end, size_t dst);
  /// Erases the factor [begin, end); at least one letter must remain.
  UpdateStats EraseRange(size_t begin, size_t end);
  /// Erases the factor [begin, end), assigning it to `*extracted`.
  UpdateStats ExtractRange(size_t begin, size_t end, Word* extracted);
  /// Appends the non-empty word `w` (one balanced subterm, one join).
  UpdateStats Concat(const Word& w);

  // ---- Batched updates ----

  /// Opens a transaction: edits mutate the term immediately but the
  /// freed/changed sets are only recorded (once, at the document — the
  /// pipelines see nothing until commit). Reads while the batch is open
  /// answer at the last committed snapshot.
  void BeginBatch();
  /// Merges everything recorded since BeginBatch — a node touched by many
  /// edits is refreshed once per pipeline, a node created and deleted
  /// within the batch never — and fans the merged set out to every
  /// pipeline.
  UpdateStats CommitBatch();
  /// True while a transaction is open.
  bool in_batch() const { return in_batch_; }

  /// Applies one tree Edit (tree documents only).
  UpdateStats ApplyEdit(const Edit& e, NodeId* new_node = nullptr) {
    return ApplyEditTo(*this, e, new_node);
  }
  /// Applies a whole edit script in one transaction; if a batch is already
  /// open the edits join it and the commit stays with the caller.
  UpdateStats ApplyEdits(const std::vector<Edit>& edits) {
    return ApplyEditsTo(*this, edits);
  }

 private:
  /// One deduplicated query: the refcounted pipeline, whose plan pointer
  /// and mode are the registry key.
  struct QueryEntry {
    QueryEntry(const Term* term, std::shared_ptr<const HomogenizedTva> plan,
               BoxEnumMode mode)
        : pipeline(term, std::move(plan), mode) {}
    EnumerationPipeline pipeline;
    size_t refcount = 0;
  };

  // Handles pack a recycled slot index (low 32 bits) with that slot's
  // generation (high 32 bits): unregistering bumps the generation, so a
  // stale handle to a recycled slot never validates. Generations wrap at
  // 2^32 reuses of one slot — far beyond any realistic churn.
  static constexpr QueryHandle MakeHandle(uint32_t slot, uint32_t gen) {
    return (static_cast<QueryHandle>(gen) << 32) | slot;
  }
  static constexpr uint32_t HandleSlot(QueryHandle h) {
    return static_cast<uint32_t>(h);
  }
  static constexpr uint32_t HandleGen(QueryHandle h) {
    return static_cast<uint32_t>(h >> 32);
  }

  /// The encoding's term, writable — for the snapshot layer's pin/epoch
  /// bookkeeping (the pipelines still see it const).
  Term& mutable_term() {
    return tree_enc_ ? tree_enc_->mutable_term() : word_enc_->mutable_term();
  }
  /// Admits a cache-served compiled plan to the per-document registry:
  /// shares the pipeline of the same (plan, mode) or builds a new one —
  /// no translation or homogenization happens here.
  QueryHandle AdmitShared(std::shared_ptr<const HomogenizedTva> homog,
                          BoxEnumMode mode);
  /// Runs before every edit (once per batch): drains retired snapshots into
  /// the record's freed list, so the edit's path copies can recycle their
  /// node versions.
  void PreEdit();
  /// The one dispatch of every edit and transaction: appends the result to
  /// the record and, outside a batch, commits it.
  UpdateStats Dispatch(const UpdateResult& result);
  /// Releases every recorded freed id and rebuilds every alive changed id
  /// once, children first, in every pipeline; publishes one snapshot and
  /// clears the record. Returns the box refreshes summed over pipelines.
  size_t Commit();

  // Exactly one encoding is non-null. unique_ptr keeps the Term address
  // stable for the pipelines.
  std::unique_ptr<DynamicEncoding> tree_enc_;
  std::unique_ptr<WordEncoding> word_enc_;
  const Term* term_;
  // Declared after the encodings: destroyed first, while the term it
  // unpins from still exists.
  std::unique_ptr<TermSnapshots> snapshots_;

  // The query registry: entries in build order (the refresh order), each
  // heap-held so handle slots can point at it across erasures of others.
  // Handle slots recycle through handle_free_ under generation tags, so
  // surviving handles stay valid while the tables stay bounded by the
  // peak working set.
  std::vector<std::unique_ptr<QueryEntry>> entries_;
  std::vector<QueryEntry*> handle_entry_;  // per-slot entry; null if dead
  std::vector<uint32_t> handle_gen_;
  std::vector<uint32_t> handle_free_;
  size_t num_live_ = 0;  // live handles
  size_t shared_hits_ = 0;
  QueryCache* cache_ = nullptr;  // never null after construction

  bool in_batch_ = false;
  // The record of the next commit: term ids freed (by edits and by the
  // snapshot drain) and changed since the last one, plus Commit's
  // (height << 32 | id) sort keys. clear() keeps capacities, so steady-state
  // edits stay allocation-free.
  std::vector<TermNodeId> freed_;
  std::vector<TermNodeId> changed_;
  std::vector<uint64_t> order_;
};

}  // namespace treenum

#endif  // TREENUM_CORE_DOCUMENT_H_
