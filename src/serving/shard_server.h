// DocumentShardServer — sharded multi-document serving over DynamicDocument
// (docs/ARCHITECTURE.md §9).
//
//   * S shards, each with a worker thread. A document lives on a home shard
//     chosen by hash (splitmix64 of its id). Every mutating request — a
//     document Command (core/command.h), a query register/unregister,
//     document removal — is appended by any client thread to the
//     document's FIFO queue, and an idle document is pushed onto its home
//     shard's run queue.
//   * A worker drains whole documents: it takes a document's queued
//     requests and applies them in FIFO order with *group commit* — up to
//     Options::max_group_commit consecutive Commands go through
//     DynamicDocument::Apply under one BeginBatch/CommitBatch, publishing
//     one snapshot. Per-command submit → commit latency goes into a
//     per-shard lock-free LatencyHistogram.
//   * A bad request is one tenant's problem: Apply checks every command
//     before it changes anything, so a rejected command or (un)registration
//     is counted in Stats::rejected, changes nothing, and the worker
//     carries on with the rest of its group and with every other document.
//   * Idle workers *steal whole documents*: each run queue is one
//     mutex-guarded deque; the owner pops the newest document, thieves take
//     the oldest. A `scheduled` flag under the document mutex keeps a
//     document in at most one run queue and with at most one worker, so
//     DynamicDocument's single-writer contract holds, and FIFO order per
//     document makes answers bit-identical at S=1 and S=8.
//   * Reads never queue: readers pin a snapshot (Pin) and enumerate on
//     their own thread through the ReaderView captured at registration
//     (QueryRef::view).
//
// Threading contract (every call: any thread):
//   * AddDocument / RegisterQuery / RemoveDocument are synchronous; the
//     register/remove requests still flow through the queue, FIFO with the
//     commands ahead of them.
//   * Submit / SubmitEdit / SubmitStructural / UnregisterQuery are
//     fire-and-forget. Commands to one document apply in submission order
//     if its callers order their submissions (one writer per document);
//     racing writers' commands apply in queue-push order.
//   * A QueryRef's view and pinned snapshots may be used while the
//     registration is live; stop using the view before submitting the
//     unregister, and release pins before RemoveDocument.
//   * Drain() blocks until every queued request has been applied and all
//     workers are idle — the barrier before oracle checks and histogram
//     reads. The destructor drains, then stops the workers.
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

/// A subtree move as a value (the benchmark harness's); SubmitStructural
/// submits its Command.
struct StructuralOp {
  NodeId v = kNoNode;    ///< Subtree root (non-root node).
  NodeId dst = kNoNode;  ///< Destination anchor.
  AttachWhere where = AttachWhere::kFirstChild;

  static StructuralOp Move(NodeId v, NodeId dst, AttachWhere where) {
    return {v, dst, where};
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
    uint64_t rejected = 0;            ///< Commands, (un)registrations rejected.
    uint64_t commits = 0;             ///< Group commits (single or batched).
    uint64_t commands = 0;            ///< Requests consumed, all kinds.
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
  /// any-thread read surface captured on the shard worker; empty if the
  /// registration was rejected.
  struct QueryRef {
    DynamicDocument::QueryHandle handle = DynamicDocument::kNoHandle;
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
  /// (FIFO with the commands ahead of it); always BoxEnumMode::kIndexed.
  /// A rejected one returns an empty QueryRef and counts in
  /// Stats::rejected.
  QueryRef RegisterQuery(DocRef doc, const UnrankedTva& query);
  /// Enqueues an unregistration (asynchronous). The caller must stop
  /// using the handle's views/pipelines before submitting this. A handle
  /// that is not registered counts in Stats::rejected.
  void UnregisterQuery(DocRef doc, DynamicDocument::QueryHandle handle);

  // ---- Write path (asynchronous commands) ----

  /// Enqueues one command, timestamped now, for DynamicDocument::Apply on
  /// the shard worker; a rejection counts in Stats::rejected. Pointer
  /// payloads must stay valid, and outputs unread, until Drain() returns.
  void Submit(DocRef doc, const Command& command);
  /// Submit(doc, Command::Of(edit)).
  void SubmitEdit(DocRef doc, const Edit& edit) {
    Submit(doc, Command::Of(edit));
  }
  /// Submit(doc, Command::SubtreeMove(op.v, op.dst, op.where)).
  void SubmitStructural(DocRef doc, const StructuralOp& op) {
    Submit(doc, Command::SubtreeMove(op.v, op.dst, op.where));
  }

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
  struct Request;
  struct Shard;
  using DocState = DocRef::DocState;

  /// Stamps `req` with NowNs() and appends it to the document's queue.
  void Enqueue(DocRef doc, Request req);
  void NoteUnscheduled();
  void WorkerLoop(size_t shard_index);
  /// Drains up to max_commands_per_run requests of `d`, then either
  /// unschedules it or requeues it on `self`'s own run queue.
  void RunDoc(Shard& self, DocState* d, std::vector<Request>* scratch);
  /// Applies one taken request slice in FIFO order with group commit.
  void ApplyRequests(Shard& self, DocState* d, std::vector<Request>& reqs);

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
