// Snapshot publication over the copy-on-write term (falgebra/term.h).
//
// The document layer is single-writer / multi-reader: one thread edits the
// encoding while any number of reader threads enumerate. Every committed
// edit publishes the new term root as an immutable `Snapshot`; readers pin
// the snapshot they start on (`SnapshotRef`, a plain refcount handle) and
// keep enumerating that version while the writer moves on — old snapshots
// double as time-travel queries.
//
// Lifecycle (see ARCHITECTURE.md for the full diagram):
//
//   Publish  (writer)  pool-allocate a Snapshot, PinRoot the current term
//                      root, capture the current epoch, BumpEpoch so every
//                      pre-publish node version freezes, swap it in as the
//                      current snapshot (mutex), release the previous one.
//   Pin      (reader)  Current() takes the mutex, bumps the refcount, and
//                      returns a SnapshotRef.
//   Retire   (any)     the last SnapshotRef release enqueues the snapshot
//                      on the retired list (mutex) — no term work happens
//                      on the reader thread.
//   Drain    (writer)  DrainRetired, called before the next edit, unpins
//                      each retired root — SweepZeros reclaims the node
//                      versions only that snapshot kept alive — and
//                      recycles the Snapshot object into the pool.
//   Release  (writer)  right after the drain, if live_snapshots() == 1,
//                      the document frees the storage buffers that
//                      CowStore growth retired (term and every pipeline,
//                      ReleaseRetired): each was retired before the
//                      current snapshot's Publish, and only a reader
//                      pinned before that publish can still hold one.
//
// The retire → drain mutex hand-off is the happens-before edge that makes
// span recycling and buffer release safe: a freed node's blocks are only
// released (and thus reusable by the writer), and a retired buffer only
// freed, after the last reader of an older version has provably finished.
//
// Steady state is allocation-free: Snapshot objects recycle through a pool
// (slab-backed), the retired/drain vectors keep their capacity, and the
// unpinned node versions feed the term's free list, which the next edit's
// path copies consume.
#ifndef TREENUM_CORE_SNAPSHOT_H_
#define TREENUM_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "falgebra/term.h"

namespace treenum {

class TermSnapshots;

/// One published term version: the pinned root and the epoch it captured.
/// Immutable after publication; refcounted via SnapshotRef. Allocated and
/// recycled by TermSnapshots only.
class Snapshot {
 public:
  TermNodeId root() const { return root_; }
  uint64_t epoch() const { return epoch_; }

  Snapshot() = default;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

 private:
  friend class TermSnapshots;
  friend class SnapshotRef;

  TermNodeId root_ = kNoTerm;
  uint64_t epoch_ = 0;
  std::atomic<uint32_t> refs_{0};
  TermSnapshots* owner_ = nullptr;
};

/// RAII handle pinning one Snapshot. Copyable (bumps the count) and movable;
/// the last release enqueues the snapshot for writer-side retirement. Must
/// not outlive the owning TermSnapshots (i.e. the document).
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(const SnapshotRef& o) : snap_(o.snap_) {
    if (snap_) snap_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  SnapshotRef(SnapshotRef&& o) noexcept : snap_(o.snap_) { o.snap_ = nullptr; }
  SnapshotRef& operator=(SnapshotRef o) noexcept {
    std::swap(snap_, o.snap_);
    return *this;
  }
  ~SnapshotRef() { Reset(); }

  explicit operator bool() const { return snap_ != nullptr; }
  const Snapshot* get() const { return snap_; }
  TermNodeId root() const { return snap_->root(); }
  uint64_t epoch() const { return snap_->epoch(); }
  /// The term the snapshot was published over.
  const Term* term() const;

  /// Releases the pin; on the last release the snapshot is queued for the
  /// writer to drain. Safe to call from any thread.
  void Reset();

 private:
  friend class TermSnapshots;
  /// Adopts an already-counted reference.
  explicit SnapshotRef(Snapshot* s) : snap_(s) {}

  Snapshot* snap_ = nullptr;
};

/// Publishes and recycles Snapshots over one Term. Publish/DrainRetired are
/// writer-thread-only; Current() and SnapshotRef releases may run on any
/// thread concurrently with the writer.
class TermSnapshots {
 public:
  explicit TermSnapshots(Term* term) : term_(term) {}

  TermSnapshots(const TermSnapshots&) = delete;
  TermSnapshots& operator=(const TermSnapshots&) = delete;

  /// Releases the current snapshot and reclaims everything retired. Any
  /// still-outstanding SnapshotRef is a caller bug (dangling pin).
  ~TermSnapshots() {
    if (current_) {
      Snapshot* cur = current_;
      current_ = nullptr;
      if (cur->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Retire(cur);
      }
    }
    DrainRetired(nullptr);
  }

  /// Publishes the term's current root as the new current snapshot (writer
  /// thread). Pool-recycled: allocation-free once the pool is warm.
  void Publish() {
    Snapshot* s = AllocSnapshot();
    s->root_ = term_->root();
    s->epoch_ = term_->epoch();
    s->owner_ = this;
    // One reference held by current_. Readers add theirs under the mutex.
    s->refs_.store(1, std::memory_order_relaxed);
    term_->PinRoot(s->root_);
    term_->BumpEpoch();
    Snapshot* old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old = current_;
      current_ = s;
      ++published_;
    }
    if (old && old->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Retire(old);
    }
  }

  /// Pins and returns the current snapshot. Any thread.
  SnapshotRef Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    current_->refs_.fetch_add(1, std::memory_order_relaxed);
    return SnapshotRef(current_);
  }

  /// Unpins every retired snapshot root, reclaiming the node versions only
  /// they kept alive (ids appended to `freed` if non-null), and recycles the
  /// Snapshot objects. Writer thread only — called before the next edit.
  void DrainRetired(std::vector<TermNodeId>* freed) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (retired_.empty()) return;
      drain_scratch_.swap(retired_);
    }
    for (Snapshot* s : drain_scratch_) {
      term_->UnpinRoot(s->root_, freed);
      pool_.push_back(s);
    }
    drain_scratch_.clear();
  }

  /// Lifetime number of publishes (perf gauge).
  uint64_t published() const {
    std::lock_guard<std::mutex> lock(mu_);
    return published_;
  }

  /// Snapshots currently alive: the current one plus every reader-pinned or
  /// not-yet-drained retired one (= the term's live pin count).
  size_t live_snapshots() const { return term_->live_pins(); }

 private:
  friend class SnapshotRef;

  /// Last-reference hand-off: enqueue for the writer's next drain. Any
  /// thread; the mutex push is the release edge the writer's drain acquires.
  void Retire(Snapshot* s) {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.push_back(s);
  }

  Snapshot* AllocSnapshot() {
    if (!pool_.empty()) {
      Snapshot* s = pool_.back();
      pool_.pop_back();
      return s;
    }
    slabs_.push_back(std::make_unique<Snapshot>());
    return slabs_.back().get();
  }

  Term* term_;
  mutable std::mutex mu_;
  Snapshot* current_ = nullptr;          // guarded by mu_
  std::vector<Snapshot*> retired_;       // guarded by mu_
  uint64_t published_ = 0;               // guarded by mu_
  std::vector<Snapshot*> drain_scratch_; // writer-only
  std::vector<Snapshot*> pool_;          // writer-only
  std::vector<std::unique_ptr<Snapshot>> slabs_;  // writer-only
};

inline const Term* SnapshotRef::term() const { return snap_->owner_->term_; }

inline void SnapshotRef::Reset() {
  if (snap_ && snap_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    snap_->owner_->Retire(snap_);
  }
  snap_ = nullptr;
}

}  // namespace treenum

#endif  // TREENUM_CORE_SNAPSHOT_H_
