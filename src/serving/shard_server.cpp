#include "serving/shard_server.h"

#include <algorithm>
#include <deque>
#include <iterator>

#include "automata/homogenize.h"
#include "util/check.h"

namespace treenum {
namespace serving {

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

/// Completion slot for the synchronous commands (register / remove): the
/// submitter waits, the shard worker fills the result and completes. The
/// mutex/cv pair publishes the worker-resolved handle and ReaderView to the
/// waiting thread.
class DocumentShardServer::Ticket {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return done_; });
  }
  void Complete() {
    // Notify while holding the mutex: the ticket lives on the submitter's
    // stack and is destroyed as soon as Wait() returns, so the broadcast
    // must be sequenced before the waiter can re-acquire mu_ and leave.
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
    cv_.notify_all();
  }

  // Filled by the shard worker before Complete() (register only; empty if
  // the registration was rejected).
  QueryRef ref;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

/// One queued unit of work for a document, applied in FIFO order by
/// whichever shard worker drains the document.
struct DocumentShardServer::Request {
  enum class Kind : uint8_t {
    kCommand,     ///< One document Command (group-committed).
    kRegister,    ///< Synchronous query registration (ticket != nullptr).
    kUnregister,  ///< Asynchronous query unregistration.
    kRemoveDoc,   ///< Synchronous document destruction (last request).
  };

  Kind kind = Kind::kCommand;
  Command command;
  /// kRegister payload; shared_ptr so Request stays cheaply movable.
  std::shared_ptr<const UnrankedTva> query;
  DynamicDocument::QueryHandle handle = 0;  ///< kUnregister target.
  uint64_t submit_ns = 0;                   ///< NowNs() at submission.
  Ticket* ticket = nullptr;                 ///< Sync completion, if any.
};

/// Per-document serving state. The pointer identity is the DocRef; the
/// struct outlives the DynamicDocument (which dies at kRemoveDoc) and is
/// freed only at server destruction.
struct DocumentShardServer::DocRef::DocState {
  DocState(UnrankedTree tree, size_t num_labels, QueryCache* cache)
      : doc(std::make_unique<DynamicDocument>(std::move(tree), num_labels,
                                              cache)) {}

  std::unique_ptr<DynamicDocument> doc;
  uint64_t id = 0;
  size_t home = 0;

  /// Guards `queue` and `scheduled`. `scheduled` is the single-drainer
  /// token: true while the document sits in some shard's run queue or is
  /// being drained, so at most one worker ever touches `doc`.
  std::mutex mu;
  std::vector<Request> queue;
  bool scheduled = false;
};

/// One shard: a worker thread, its run queue of scheduled documents, and
/// its slice of the serving counters. Clients push newly scheduled
/// documents at the back, the owner pops the newest from the back, and idle
/// neighbours steal the oldest from the front.
struct DocumentShardServer::Shard {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<DocRef::DocState*> run_queue;  // under mu
  bool stop = false;                        // under mu

  std::thread worker;

  LatencyHistogram edit_latency;
  std::atomic<uint64_t> edits{0};
  std::atomic<uint64_t> structural{0};
  std::atomic<uint64_t> registers{0};
  std::atomic<uint64_t> unregisters{0};
  std::atomic<uint64_t> removes{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> commands{0};
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> doc_runs{0};
};

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

DocumentShardServer::DocumentShardServer(const Options& options)
    : opts_(options) {
  TREENUM_CHECK(opts_.shards >= 1, "DocumentShardServer: need >= 1 shard");
  shards_.reserve(opts_.shards);
  for (size_t i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Workers start only after every Shard exists: they scan neighbours.
  for (size_t i = 0; i < opts_.shards; ++i) {
    shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

DocumentShardServer::~DocumentShardServer() {
  Drain();
  for (auto& s : shards_) {
    {
      std::lock_guard<std::mutex> lock(s->mu);
      s->stop = true;
    }
    s->cv.notify_all();
  }
  for (auto& s : shards_) s->worker.join();
}

// ---------------------------------------------------------------------------
// Document lifecycle
// ---------------------------------------------------------------------------

DocumentShardServer::DocRef DocumentShardServer::AddDocument(
    UnrankedTree tree, size_t num_labels) {
  auto state = std::make_unique<DocState>(std::move(tree), num_labels,
                                          opts_.query_cache);
  DocState* d = state.get();
  {
    std::lock_guard<std::mutex> lock(docs_mu_);
    d->id = docs_.size();
    docs_.push_back(std::move(state));
  }
  // splitmix64 scatters sequential ids, so tenants added in order don't all
  // land on shard 0.
  d->home = static_cast<size_t>(FingerprintMix(d->id) % shards_.size());
  return DocRef(d);
}

size_t DocumentShardServer::shard_of(DocRef doc) const {
  TREENUM_CHECK(doc, "shard_of: null DocRef");
  return doc.doc_->home;
}

void DocumentShardServer::RemoveDocument(DocRef doc) {
  Ticket ticket;
  Request r;
  r.kind = Request::Kind::kRemoveDoc;
  r.ticket = &ticket;
  Enqueue(doc, std::move(r));
  ticket.Wait();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

DocumentShardServer::QueryRef DocumentShardServer::RegisterQuery(
    DocRef doc, const UnrankedTva& query) {
  Ticket ticket;
  Request r;
  r.kind = Request::Kind::kRegister;
  r.query = std::make_shared<const UnrankedTva>(query);
  r.ticket = &ticket;
  Enqueue(doc, std::move(r));
  ticket.Wait();
  return ticket.ref;
}

void DocumentShardServer::UnregisterQuery(DocRef doc,
                                          DynamicDocument::QueryHandle handle) {
  Request r;
  r.kind = Request::Kind::kUnregister;
  r.handle = handle;
  Enqueue(doc, std::move(r));
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void DocumentShardServer::Submit(DocRef doc, const Command& command) {
  Request r;
  r.command = command;
  Enqueue(doc, std::move(r));
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

SnapshotRef DocumentShardServer::Pin(DocRef doc) const {
  TREENUM_CHECK(doc, "Pin: null DocRef");
  // CurrentSnapshot() is the lock-free publication point TermSnapshots
  // maintains for exactly this cross-thread pin (PR 7); safe concurrent
  // with the shard worker committing.
  return doc.doc_->doc->CurrentSnapshot();
}

const DynamicDocument& DocumentShardServer::document(DocRef doc) const {
  TREENUM_CHECK(doc, "document: null DocRef");
  TREENUM_CHECK(doc.doc_->doc != nullptr, "document: document was removed");
  return *doc.doc_->doc;
}

// ---------------------------------------------------------------------------
// Quiesce / observability
// ---------------------------------------------------------------------------

void DocumentShardServer::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return pending_docs_.load(std::memory_order_acquire) == 0;
  });
}

DocumentShardServer::Stats DocumentShardServer::stats() const {
  Stats total;
  for (const auto& s : shards_) {
    total.edits_applied += s->edits.load(std::memory_order_relaxed);
    total.structural_applied += s->structural.load(std::memory_order_relaxed);
    total.registers += s->registers.load(std::memory_order_relaxed);
    total.unregisters += s->unregisters.load(std::memory_order_relaxed);
    total.removes += s->removes.load(std::memory_order_relaxed);
    total.rejected += s->rejected.load(std::memory_order_relaxed);
    total.commits += s->commits.load(std::memory_order_relaxed);
    total.commands += s->commands.load(std::memory_order_relaxed);
    total.steals += s->steals.load(std::memory_order_relaxed);
    total.doc_runs += s->doc_runs.load(std::memory_order_relaxed);
  }
  return total;
}

void DocumentShardServer::MergeEditLatency(LatencyHistogram* out) const {
  for (const auto& s : shards_) out->MergeFrom(s->edit_latency);
}

void DocumentShardServer::ResetEditLatency() {
  for (auto& s : shards_) s->edit_latency.Reset();
}

// ---------------------------------------------------------------------------
// Scheduling core
// ---------------------------------------------------------------------------

void DocumentShardServer::Enqueue(DocRef doc, Request req) {
  TREENUM_CHECK(doc, "request for a null DocRef");
  DocState* d = doc.doc_;
  req.submit_ns = NowNs();
  bool need_schedule = false;
  {
    std::lock_guard<std::mutex> lock(d->mu);
    TREENUM_CHECK(d->doc != nullptr || !d->queue.empty() || d->scheduled,
                  "Enqueue: command submitted after RemoveDocument");
    d->queue.push_back(std::move(req));
    if (!d->scheduled) {
      d->scheduled = true;
      need_schedule = true;
    }
  }
  if (!need_schedule) return;  // already queued/draining; FIFO picks it up
  pending_docs_.fetch_add(1, std::memory_order_acq_rel);
  Shard& home = *shards_[d->home];
  {
    std::lock_guard<std::mutex> lock(home.mu);
    home.run_queue.push_back(d);
  }
  home.cv.notify_one();
}

void DocumentShardServer::NoteUnscheduled() {
  if (pending_docs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last scheduled document went idle: wake drainers. Taking drain_mu_
    // closes the race with a Drain() that just evaluated the predicate.
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void DocumentShardServer::WorkerLoop(size_t shard_index) {
  Shard& self = *shards_[shard_index];
  const size_t num_shards = shards_.size();
  std::vector<Request> scratch;
  scratch.reserve(Options::max_commands_per_run);

  for (;;) {
    // 1. Own work first, newest-first (LIFO keeps the hot document hot).
    DocState* d = nullptr;
    {
      std::lock_guard<std::mutex> lock(self.mu);
      if (!self.run_queue.empty()) {
        d = self.run_queue.back();
        self.run_queue.pop_back();
      }
    }
    if (d != nullptr) {
      RunDoc(self, d, &scratch);
      continue;
    }

    // 2. Idle: steal a whole document from a loaded neighbour — the oldest
    //    entry of its queue, the end its owner does not pop.
    for (size_t k = 1; k < num_shards && d == nullptr; ++k) {
      Shard& victim = *shards_[(shard_index + k) % num_shards];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.run_queue.empty()) {
        d = victim.run_queue.front();
        victim.run_queue.pop_front();
      }
    }
    if (d != nullptr) {
      self.steals.fetch_add(1, std::memory_order_relaxed);
      RunDoc(self, d, &scratch);
      continue;
    }

    // 3. Nothing anywhere: park briefly. The timeout doubles as the steal
    //    retry period — a neighbour's backlog has no edge to notify us on.
    std::unique_lock<std::mutex> lock(self.mu);
    if (!self.run_queue.empty()) continue;
    if (self.stop) return;
    self.cv.wait_for(lock, std::chrono::microseconds(200));
  }
}

void DocumentShardServer::RunDoc(Shard& self, DocState* d,
                                 std::vector<Request>* scratch) {
  self.doc_runs.fetch_add(1, std::memory_order_relaxed);
  size_t budget = Options::max_commands_per_run;
  for (;;) {
    scratch->clear();
    {
      std::lock_guard<std::mutex> lock(d->mu);
      if (d->queue.empty()) {
        d->scheduled = false;
        break;
      }
      if (d->queue.size() <= budget) {
        scratch->swap(d->queue);  // common path: take everything, O(1)
      } else {
        auto split = d->queue.begin() + static_cast<ptrdiff_t>(budget);
        scratch->assign(std::make_move_iterator(d->queue.begin()),
                        std::make_move_iterator(split));
        d->queue.erase(d->queue.begin(), split);
      }
    }
    ApplyRequests(self, d, *scratch);
    budget -= std::min(budget, scratch->size());
    if (budget == 0) {
      // Fairness: this document used its slice. If it still has work,
      // requeue it behind this worker's other documents (it stays
      // `scheduled`, so pending_docs_ is untouched); otherwise idle it.
      bool more;
      {
        std::lock_guard<std::mutex> lock(d->mu);
        more = !d->queue.empty();
        if (!more) d->scheduled = false;
      }
      if (more) {
        std::lock_guard<std::mutex> lock(self.mu);
        self.run_queue.push_front(d);
        return;
      }
      break;
    }
  }
  NoteUnscheduled();
}

void DocumentShardServer::ApplyRequests(Shard& self, DocState* d,
                                        std::vector<Request>& reqs) {
  const size_t n = reqs.size();
  self.commands.fetch_add(n, std::memory_order_relaxed);
  size_t i = 0;
  while (i < n) {
    DynamicDocument* doc = d->doc.get();
    TREENUM_CHECK(doc != nullptr,
                  "ApplyRequests: request after document removal");
    Request& r = reqs[i];
    switch (r.kind) {
      case Request::Kind::kCommand: {
        // Group commit: the run of consecutive commands (capped) under one
        // batch and one snapshot; a rejected command changes nothing.
        size_t j = i + 1;
        const size_t limit = std::min(n, i + Options::max_group_commit);
        while (j < limit && reqs[j].kind == Request::Kind::kCommand) ++j;
        const bool batched = (j - i) > 1;
        if (batched) doc->BeginBatch();
        uint64_t edits = 0, txns = 0, rejected = 0;
        for (size_t k = i; k < j; ++k) {
          const Command& c = reqs[k].command;
          if (!doc->Apply(c).ok()) {
            ++rejected;
          } else if (c.kind <= Command::Kind::kDeleteLeaf) {
            ++edits;  // one of Definition 7.1's leaf edits
          } else {
            ++txns;
          }
        }
        if (batched) doc->CommitBatch();
        if (rejected < j - i) {
          self.commits.fetch_add(1, std::memory_order_relaxed);
        }
        self.edits.fetch_add(edits, std::memory_order_relaxed);
        self.structural.fetch_add(txns, std::memory_order_relaxed);
        self.rejected.fetch_add(rejected, std::memory_order_relaxed);
        // Every command in the group becomes durable (snapshot published,
        // pipelines refreshed) at this commit: that is its served latency.
        const uint64_t now = NowNs();
        for (size_t k = i; k < j; ++k) {
          self.edit_latency.Record(now - std::min(now, reqs[k].submit_ns));
        }
        i = j;
        break;
      }
      case Request::Kind::kRegister: {
        const DynamicDocument::Registration reg = doc->Register(*r.query);
        // Resolve the any-thread read surface here, on the worker: the
        // submitter must never touch registry internals itself (they may
        // reallocate under a later Register on this shard).
        if (reg.ok()) r.ticket->ref = {reg, doc->reader_view(reg)};
        (reg.ok() ? self.registers : self.rejected)
            .fetch_add(1, std::memory_order_relaxed);
        r.ticket->Complete();
        ++i;
        break;
      }
      case Request::Kind::kUnregister: {
        (doc->Unregister(r.handle) == Status::kOk ? self.unregisters
                                                   : self.rejected)
            .fetch_add(1, std::memory_order_relaxed);
        ++i;
        break;
      }
      case Request::Kind::kRemoveDoc: {
        TREENUM_CHECK(i + 1 == n, "RemoveDocument must be the last request");
        d->doc.reset();
        self.removes.fetch_add(1, std::memory_order_relaxed);
        r.ticket->Complete();
        ++i;
        break;
      }
    }
  }
}

}  // namespace serving
}  // namespace treenum
