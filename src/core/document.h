// DynamicDocument — one mutating document serving many registered queries
// (docs/ARCHITECTURE.md §6). The paper keeps one circuit and index per
// (document, query) pair; this layer splits the pair:
//
//   * One encoding — the balanced tree term (`DynamicEncoding`) or the word
//     AVL term (`WordEncoding`) — so the O(log n) encoding half of Lemma
//     7.3 is paid once per edit regardless of the number of queries.
//   * One mutation entry point: every change is a Command (core/command.h)
//     through Apply, which checks it against the document first. A non-ok
//     Status drains, mutates and records nothing, so a bad command is
//     rejected instead of ending the process.
//   * One record and one Commit: every accepted command appends its
//     UpdateResult, and the snapshot drain the node versions it reclaims.
//     Commit — after each command outside a batch, at CommitBatch inside
//     one — orders the alive changed ids children first by (term height,
//     id), hands the record to every pipeline's Apply in build order, and
//     publishes one snapshot. The steady state allocates nothing.
//   * Registrations are deduplicated by compiled-plan identity (the shared
//     QueryCache hash-conses canonical plans), so each distinct (plan,
//     mode) has one refcounted `EnumerationPipeline` that lives exactly as
//     long as its registrations. Handles carry generation tags, so stale
//     handles never validate.
//   * Every read goes through an immutable snapshot (core/snapshot.h) of
//     the copy-on-write term: readers pin and enumerate concurrently with
//     the writer, a read inside a batch answers at the last commit, and
//     old snapshots keep their answers until released.
//
// TreeEnumerator and WordEnumerator are thin views over a private document
// with one registered query.
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
#include "core/command.h"
#include "core/engine.h"
#include "core/pipeline.h"
#include "core/snapshot.h"
#include "falgebra/update.h"
#include "falgebra/word_avl.h"
#include "trees/unranked_tree.h"

namespace treenum {

/// Registry observability snapshot (see DynamicDocument::stats()): how many
/// queries and pipelines are live and how registrations were served.
struct DocumentStats {
  /// Per-pipeline registry entry state.
  struct PipelineStats {
    size_t queries = 0;         ///< Live registrations sharing this pipeline.
    size_t width = 0;           ///< Automaton width (circuit state count).
    size_t circuit_blocks = 0;  ///< Distinct circuit blocks alive.
  };

  size_t live_queries = 0;     ///< Live handles (registrations).
  size_t live_pipelines = 0;   ///< Pipelines (distinct live queries).
  size_t shared_hits = 0;      ///< Registrations served by a live pipeline.
  size_t handle_slots = 0;     ///< Handle-table slots (recycled, ~peak live).
  /// Bytes of superseded storage buffers (term and every pipeline) still
  /// held for readers that may be reading them; 0 after a commit's drain
  /// with no snapshot older than the current one pinned.
  size_t retired_bytes = 0;
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
  /// A handle no registration ever returns (that of a rejected one).
  static constexpr QueryHandle kNoHandle = ~QueryHandle{0};

  /// Register's result: the new handle, or kNoHandle and why not.
  struct Registration {
    QueryHandle handle = kNoHandle;
    Status status = Status::kOk;
    bool ok() const { return status == Status::kOk; }
    operator QueryHandle() const { return handle; }  // NOLINT
  };

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

  /// Registers a query. Compilation is served by the shared QueryCache (a
  /// query already compiled there costs nothing); the registry then admits
  /// the plan to the pipeline of the same plan and mode, or builds a new
  /// pipeline over the current term — O(size * poly(|Q|)). Rejected, with
  /// nothing changed, on a word document (kWrongDocumentKind), mid-batch
  /// (kInBatch) or over another number of labels (kWrongAlphabet).
  Registration Register(const UnrankedTva& query,
                        BoxEnumMode mode = BoxEnumMode::kIndexed);
  /// Word-document overload of Register (queries are WVAs / spanners).
  Registration Register(const Wva& query,
                        BoxEnumMode mode = BoxEnumMode::kIndexed);
  /// The compiled-query cache this document's registrations go through.
  QueryCache& query_cache() const { return *cache_; }
  /// Releases one registration; the handle becomes invalid. The shared
  /// pipeline lives on while other handles reference it; the last release
  /// destroys it, so every ReaderView and cursor resolved through the
  /// handle must be released first. Re-registering the query later
  /// compiles nothing (a cache hit) and builds a fresh pipeline over the
  /// current term. A handle that is not registered (kUnknownHandle) or a
  /// call mid-batch (kInBatch) is rejected and changes nothing.
  Status Unregister(QueryHandle handle);
  /// True iff `handle` was returned by Register and not yet unregistered.
  bool IsRegistered(QueryHandle handle) const;
  /// Number of live registrations (handles), counting duplicates.
  size_t num_queries() const { return num_live_; }
  /// Number of pipelines, one per distinct live (plan, mode). This — not
  /// num_queries() — is what per-edit refresh cost scales with.
  size_t num_pipelines() const { return entries_.size(); }

  /// The pipeline serving a registration (counting, introspection; reads
  /// go through the snapshot surface below). Duplicate registrations
  /// return the same pipeline object. `handle` must be registered
  /// (checked): a writer-side precondition, unlike the reads below.
  EnumerationPipeline& pipeline(QueryHandle handle);
  /// Const overload of pipeline().
  const EnumerationPipeline& pipeline(QueryHandle handle) const;
  /// Registry observability snapshot.
  DocumentStats stats() const;

  // ---- Concurrent snapshot reads ----
  //
  // The only way to read a registration: reader threads pin the current
  // snapshot and evaluate queries at it while the writer keeps editing.
  // Register/Unregister are writer-side and not synchronized against
  // readers, and a pipeline serves only snapshots published at or after
  // its build (checked by epoch; an older one reads as no answers).
  // Release every SnapshotRef before the document is destroyed.

  /// Pre-resolved read surface for one registration, safe on reader
  /// threads *even while the writer mutates the registry*: EnumerateAt &
  /// friends resolve handle → pipeline through registry tables that a
  /// Register may reallocate, while a ReaderView holds the pipeline pointer
  /// captured once on the writer side.
  ///
  /// Contract: create the view on the writer thread, and release it and
  /// every cursor made from it before the registration is unregistered —
  /// the last Unregister of a (plan, mode) destroys its pipeline. The shard
  /// server resolves views on its worker at registration time.
  ///
  /// An empty view (default-made, or resolved from a handle that is not
  /// registered) reads as a query with no answers: false, {} and nullptr;
  /// so does a snapshot its pipeline does not serve (an empty SnapshotRef,
  /// or a pin taken before the registration's pipeline was built).
  class ReaderView {
   public:
    ReaderView() = default;
    /// True when bound to a registration.
    explicit operator bool() const { return pipeline_ != nullptr; }
    /// HasAnswer at `snap`. Any thread (see the class contract).
    bool HasAnswerAt(const SnapshotRef& snap) const {
      return pipeline_ != nullptr && pipeline_->HasAnswerAt(snap);
    }
    /// All satisfying assignments at `snap`, sorted. Any thread.
    std::vector<Assignment> EnumerateAt(const SnapshotRef& snap) const {
      if (pipeline_ == nullptr) return {};
      return pipeline_->EnumerateAt(snap);
    }
    /// Cursor at `snap`; the cursor co-owns the pin, so the version
    /// outlives it even after `snap` is released. Any thread.
    std::unique_ptr<Engine::Cursor> MakeCursorAt(SnapshotRef snap) const {
      if (pipeline_ == nullptr || !pipeline_->Serves(snap)) return nullptr;
      return std::make_unique<SnapshotCursor>(
          pipeline_->MakeCursorAt(std::move(snap)));
    }

   private:
    friend class DynamicDocument;
    explicit ReaderView(const EnumerationPipeline* p) : pipeline_(p) {}
    const EnumerationPipeline* pipeline_ = nullptr;
  };

  /// Resolves `handle` into a ReaderView (writer thread only; see the
  /// ReaderView contract above); an empty one if it is not registered.
  ReaderView reader_view(QueryHandle handle) const {
    return ReaderView(IsRegistered(handle)
                          ? &handle_entry_[HandleSlot(handle)]->pipeline
                          : nullptr);
  }

  /// Pins the most recently published snapshot. Any thread.
  SnapshotRef CurrentSnapshot() const { return snapshots_->Current(); }
  // The three reads below go through reader_view(handle), so a handle that
  // is not registered reads as no answers.

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

  // ---- Mutations ----

  /// Applies one command (core/command.h), O(log n * poly(Q)) per pipeline
  /// for a point edit. It is checked first — document kind, nodes, labels,
  /// positions and ranges, root, leaf and move destination — in O(1), or
  /// O(|subtree|) for a move or graft; a non-ok status means nothing was
  /// drained, mutated or recorded. An accepted command re-encodes its term
  /// region once and commits at once (one snapshot epoch), or joins the
  /// open batch. boxes_recomputed sums the refreshes over pipelines.
  [[nodiscard]] UpdateStats Apply(const Command& command);

  /// Apply(Command::Of(e, new_node)): one tree Edit.
  UpdateStats ApplyEdit(const Edit& e, NodeId* new_node = nullptr) {
    return Apply(Command::Of(e, new_node));
  }
  /// Apply(Command::SubtreeMove(v, dst, where)).
  UpdateStats SubtreeMove(NodeId v, NodeId dst,
                          AttachWhere where = AttachWhere::kFirstChild) {
    return Apply(Command::SubtreeMove(v, dst, where));
  }

  // ---- Batched updates ----

  /// Opens a transaction: commands mutate the term at once, but the
  /// pipelines see nothing until CommitBatch; reads meanwhile answer at the
  /// last committed snapshot.
  void BeginBatch();
  /// Commits everything recorded since BeginBatch: a node touched by many
  /// edits is refreshed once per pipeline, one created and deleted within
  /// the batch never.
  UpdateStats CommitBatch();
  /// True while a transaction is open.
  bool in_batch() const { return in_batch_; }

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
  /// Why a tree (`on_tree`) or word query over `num_labels` labels cannot
  /// be registered now; kOk if it can.
  Status CheckRegister(bool on_tree, size_t num_labels) const;
  /// Admits a cache-served compiled plan to the per-document registry:
  /// shares the pipeline of the same (plan, mode) or builds a new one —
  /// no translation or homogenization happens here.
  QueryHandle AdmitShared(std::shared_ptr<const HomogenizedTva> homog,
                          BoxEnumMode mode);
  /// Apply's validation, one case per kind; reads the document only (a
  /// move marks the moved subtree in the encoding's scratch).
  Status Check(const Command& c);
  /// Runs before every accepted command (once per batch): drains retired
  /// snapshots into the record, so path copies recycle their versions, and
  /// frees the retired storage buffers of the term and every pipeline when
  /// no snapshot older than the current one is left (core/snapshot.h).
  void PreEdit();
  /// Runs a checked command on the encoding.
  const UpdateResult& Run(const Command& c);
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
  std::vector<NodeId> graft_walk_;  // Check's walk over a grafted subtree
};

}  // namespace treenum

#endif  // TREENUM_CORE_DOCUMENT_H_
