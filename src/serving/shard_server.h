// DocumentShardServer — sharded multi-document serving over DynamicDocument.
//
// Every bench before this layer was a closed-loop, single-document
// microbench; this is the multi-tenant composition of the PR 4–7
// ingredients into one served artifact:
//
//   * The server owns S *shards*, each with a dedicated worker thread.
//     Documents are placed on a home shard by hash (splitmix64 of the
//     document id), and every mutating command — leaf edits, structural
//     transactions, query register/unregister, document removal — is
//     appended by any client thread to the document's FIFO command queue;
//     a document that was idle is then pushed onto its home shard's run
//     queue.
//   * Each shard worker drains whole documents at a time: it pops a
//     scheduled document, takes its queued commands, and applies them in
//     FIFO order with *group commit* — consecutive edit/structural
//     commands (up to Options::max_group_commit) coalesce into one
//     BeginBatch/CommitBatch, so a backlogged document pays the commit's
//     ordering and refresh fan-out once per batch, and one snapshot
//     epoch is published per commit. Per-command latency (submit →
//     commit) is recorded into a per-shard lock-free LatencyHistogram.
//   * Idle shard workers *steal whole documents* from loaded neighbours:
//     each shard's run queue is one mutex-guarded deque — the owner pops
//     the newest document, thieves take the oldest. The queue sees one
//     push/pop per document drain, not per command. A document is in at
//     most one run queue and drained by at most one worker at a time (the
//     `scheduled` flag under the document mutex), so the single-writer
//     contract of DynamicDocument holds no matter which worker ends up
//     applying the commands — and because the per-document command order
//     is FIFO regardless of the executing worker, answers are
//     bit-identical at S=1 and S=8 (asserted in serving_test).
//   * Enumeration never enters the command queues: readers pin a snapshot
//     (Pin) and enumerate on their own thread through the ReaderView
//     captured at registration (QueryRef::view), so the read path scales
//     independently of the write path and is never queued behind edits.
//
// Threading contract:
//   * AddDocument / RegisterQuery / RemoveDocument are synchronous (the
//     register/remove commands still flow through the queue, FIFO with
//     the edits ahead of them; the call returns when the shard worker has
//     applied them). Any thread.
//   * SubmitEdit / SubmitStructural / UnregisterQuery are asynchronous
//     fire-and-forget commands. Any thread. Commands to ONE document are
//     applied in global submission FIFO order only if the callers
//     externally order their submissions (one writer per document, the
//     usual tenant model); commands from racing writers are applied in
//     queue-push order.
//   * A QueryRef's view (and any pinned snapshot) may be used from any
//     thread while the registration is live; stop using it before
//     submitting the unregister, and release pins before RemoveDocument.
//   * Drain() blocks until every queued command has been applied and all
//     workers are idle; call it after submissions quiesce (it is the
//     barrier the tests/benches use before oracle checks and histogram
//     reads). The destructor drains, then stops the workers.
#ifndef TREENUM_SERVING_SHARD_SERVER_H_
#define TREENUM_SERVING_SHARD_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/document.h"
#include "util/latency_histogram.h"

namespace treenum {
namespace serving {

/// A whole-subtree transaction command (the serving-layer vocabulary for
/// DynamicDocument::SubtreeMove / SubtreeDelete).
struct StructuralOp {
  enum class Kind : uint8_t { kSubtreeMove, kSubtreeDelete };
  Kind kind = Kind::kSubtreeMove;
  NodeId v = kNoNode;    ///< Subtree root (non-root node).
  NodeId dst = kNoNode;  ///< Move destination anchor (kSubtreeMove only).
  AttachWhere where = AttachWhere::kFirstChild;

  static StructuralOp Move(NodeId v, NodeId dst, AttachWhere where) {
    return {Kind::kSubtreeMove, v, dst, where};
  }
  static StructuralOp Delete(NodeId v) {
    return {Kind::kSubtreeDelete, v, kNoNode, AttachWhere::kFirstChild};
  }
};

/// S-shard multi-document server; see the file comment for the design and
/// the threading contract.
class DocumentShardServer {
 public:
  struct Options {
    /// Shard (worker thread) count.
    size_t shards = 1;
    /// Compiled-query cache threaded through every document on every
    /// shard (null = the process-wide QueryCache::Global()): a query
    /// registered on any document is compiled once server-wide, and
    /// registrations of it elsewhere reuse the shared plan. Must outlive
    /// the server.
    QueryCache* query_cache = nullptr;

    /// Max consecutive edit/structural commands coalesced into one batch
    /// commit.
    static constexpr size_t max_group_commit = 32;
    /// Fairness bound: a worker applies at most this many commands from
    /// one document before rescheduling it behind its other work.
    static constexpr size_t max_commands_per_run = 1024;
  };

  /// Aggregated (relaxed-atomic) counters across all shards.
  struct Stats {
    uint64_t edits_applied = 0;       ///< Leaf edits committed.
    uint64_t structural_applied = 0;  ///< Structural transactions committed.
    uint64_t registers = 0;           ///< Query registrations applied.
    uint64_t unregisters = 0;         ///< Query unregistrations applied.
    uint64_t removes = 0;             ///< Documents removed.
    uint64_t commits = 0;             ///< Group commits (single or batched).
    uint64_t commands = 0;            ///< Commands consumed, all kinds.
    uint64_t steals = 0;              ///< Documents drained by a non-home worker.
    uint64_t doc_runs = 0;            ///< Document drain passes.
  };

  /// Opaque handle to a served document; cheap to copy, valid until the
  /// server is destroyed (the document itself dies at RemoveDocument).
  class DocRef {
   public:
    DocRef() = default;
    explicit operator bool() const { return doc_ != nullptr; }

   private:
    friend class DocumentShardServer;
    struct DocState;
    explicit DocRef(DocState* d) : doc_(d) {}
    DocState* doc_ = nullptr;
  };

  /// One live registration: the handle (for UnregisterQuery) and the
  /// any-thread read surface captured on the shard worker.
  struct QueryRef {
    DynamicDocument::QueryHandle handle = 0;
    DynamicDocument::ReaderView view;
  };

  explicit DocumentShardServer(const Options& options);
  /// Drains outstanding commands, then stops the shard workers.
  ~DocumentShardServer();

  DocumentShardServer(const DocumentShardServer&) = delete;
  DocumentShardServer& operator=(const DocumentShardServer&) = delete;

  /// Worker-thread count.
  size_t num_shards() const { return shards_.size(); }

  // ---- Document lifecycle ----

  /// Builds the document's encoding (on the calling thread — O(size)) and
  /// places it on its hashed home shard. Any thread, any time.
  DocRef AddDocument(UnrankedTree tree, size_t num_labels);
  /// The home shard `doc` was placed on.
  size_t shard_of(DocRef doc) const;
  /// Enqueues document destruction and waits for it. Must be the last
  /// command for `doc`; all pins, views and cursors must be released.
  void RemoveDocument(DocRef doc);

  // ---- Queries ----

  /// Enqueues a registration and waits for the shard worker to apply it
  /// (FIFO with the commands ahead of it). Served registrations are
  /// always indexed (BoxEnumMode::kIndexed). Any thread.
  QueryRef RegisterQuery(DocRef doc, const UnrankedTva& query);
  /// Enqueues an unregistration (asynchronous). The caller must stop
  /// using the handle's views/pipelines before submitting this.
  void UnregisterQuery(DocRef doc, DynamicDocument::QueryHandle handle);

  // ---- Write path (asynchronous commands) ----

  /// Enqueues one leaf edit, timestamped now for latency accounting.
  void SubmitEdit(DocRef doc, const Edit& edit);
  /// Enqueues one structural transaction, timestamped now.
  void SubmitStructural(DocRef doc, const StructuralOp& op);

  // ---- Read path (caller threads; never queued) ----

  /// Pins the document's current snapshot. Any thread, concurrent with
  /// the write path.
  SnapshotRef Pin(DocRef doc) const;

  // ---- Quiesce / observability ----

  /// Blocks until every queued command has been applied and every worker
  /// is idle. Callers must have stopped submitting.
  void Drain();
  /// Aggregated counters (exact when drained, approximate while serving).
  Stats stats() const;
  /// Merges every shard's submit→commit edit-latency histogram (ns) into
  /// `out` (exact when drained).
  void MergeEditLatency(LatencyHistogram* out) const;
  /// Zeroes the shard latency histograms — phase separation for benches
  /// (e.g. discard saturation-phase latencies before the open-loop phase).
  /// Call only while drained.
  void ResetEditLatency();
  /// The served document (quiesced introspection only — e.g. rebuilding a
  /// fresh oracle over document(doc).tree() after Drain()).
  const DynamicDocument& document(DocRef doc) const;

  /// Monotonic nanosecond clock used for command timestamps (exposed so
  /// bench/readers record latencies on the same clock).
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  class Ticket;
  struct Command;
  struct Shard;
  using DocState = DocRef::DocState;

  void Enqueue(DocState* d, Command cmd);
  void NoteUnscheduled();
  void WorkerLoop(size_t shard_index);
  /// Drains up to max_commands_per_run commands of `d`, then either
  /// unschedules it or requeues it on `self`'s own run queue.
  void RunDoc(Shard& self, DocState* d, std::vector<Command>* scratch);
  /// Applies one taken command slice in FIFO order with group commit.
  void ApplyCommands(Shard& self, DocState* d, std::vector<Command>& cmds);

  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex docs_mu_;
  std::vector<std::unique_ptr<DocState>> docs_;

  /// Documents currently scheduled (queued or being drained); Drain()
  /// waits for zero.
  std::atomic<size_t> pending_docs_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace serving
}  // namespace treenum

#endif  // TREENUM_SERVING_SHARD_SERVER_H_
