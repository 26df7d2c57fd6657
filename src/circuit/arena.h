// Arena-backed flat storage for per-box blocks: circuit boxes, jump-index
// entries and run-count rows.
//
// Each of those layers keeps one BoxStore: a directory entry per term id and
// one contiguous word pool that gives a box one block (a box with nothing to
// store has none) holding its whole content, the sections placed by a
// per-box layout whose counts sit in the directory entry beside the block's
// (offset, length, capacity) triple. A refresh during updates (Lemma 7.3)
// reuses the old block in place whenever its capacity suffices, and
// otherwise recycles it through a power-of-two free list. In steady state —
// e.g. a stream of relabel edits — a refresh therefore performs zero heap
// allocations; the pools only grow while they discover new worst-case box
// shapes.
//
// Pointers into a pool are invalidated whenever some block in that pool is
// (re)allocated: consumers must re-fetch views (AssignmentCircuit::box,
// EnumIndex::at) after any rebuild, and builders must finish reading child
// blocks before committing writes. Offsets are stable.
//
// The directory and the pool are CowStores (util/cow_store.h): growth
// retires the old buffer instead of freeing it, so snapshot readers of
// frozen boxes on other threads keep valid pointers across writer growth,
// until the writer's ReleaseRetired frees the retired buffers once no
// reader can hold them.
#ifndef TREENUM_CIRCUIT_ARENA_H_
#define TREENUM_CIRCUIT_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "falgebra/term.h"
#include "util/check.h"
#include "util/cow_store.h"

namespace treenum {

/// A borrowed view of `len` consecutive `T`s inside a pool. Invalidated by
/// the next (re)allocation in that pool; never owns memory.
template <typename T>
class Span {
 public:
  Span() = default;
  Span(const T* ptr, uint32_t len) : ptr_(ptr), len_(len) {}

  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + len_; }
  const T& operator[](size_t i) const { return ptr_[i]; }
  uint32_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

 private:
  const T* ptr_ = nullptr;
  uint32_t len_ = 0;
};

/// A block descriptor stored in a directory entry: offset/length/capacity
/// inside one pool. Capacities are powers of two (or 0), which makes the
/// free lists exact-fit per size class.
struct SpanRef {
  uint32_t off = 0;
  uint32_t len = 0;
  uint32_t cap = 0;
};

/// A directory entry: a box's block and the counts that fix its layout.
template <typename Layout>
struct BoxEntry {
  SpanRef block;
  Layout shape;
};

/// One layer's per-box storage (see the file comment): a directory entry
/// per term id and one word pool, aligned to `Align` bytes, holding every
/// block (the index passes 64 so each of its blocks starts on a cache
/// line). `Entry` holds a SpanRef `block` (usually a BoxEntry); a default
/// Entry owns nothing. Reads of a pinned snapshot's boxes are safe on any
/// thread; everything else is writer-only.
template <typename Entry, size_t Align = alignof(uint64_t)>
class BoxStore {
 public:
  /// One past the largest id with a directory entry.
  size_t id_bound() const { return dir_.size(); }
  const Entry& entry(TermNodeId id) const { return dir_[id]; }
  const uint64_t* block(const Entry& e) const {
    return pool_.data() + e.block.off;
  }
  uint64_t* block(const Entry& e) { return pool_.data() + e.block.off; }

  /// Makes id's block `words` long, growing the directory to cover id, and
  /// returns the entry for the caller to set its layout counts. Keeps the
  /// block when its capacity suffices (the steady-state, allocation-free
  /// path); otherwise frees it and takes one from the matching free list,
  /// growing the pool tail only when the list is empty. Block pointers
  /// taken before are dead.
  Entry& Ensure(TermNodeId id, uint32_t words) {
    if (dir_.size() <= id) dir_.resize(size_t{id} + 1);
    SpanRef& ref = dir_[id].block;
    if (ref.cap < words) {
      // Keeps the size class within free_'s 32 buckets.
      TREENUM_CHECK(words <= (uint32_t{1} << 31), "block exceeds 2^31 words");
      if (ref.cap != 0) free_[__builtin_ctz(ref.cap)].push_back(ref.off);
      ref.cap = kMinCap;
      while (ref.cap < words) ref.cap <<= 1;
      std::vector<uint32_t>& list = free_[__builtin_ctz(ref.cap)];
      if (!list.empty()) {
        ref.off = list.back();
        list.pop_back();
      } else {
        const size_t off = pool_.size();
        TREENUM_CHECK(off + ref.cap <= UINT32_MAX, "pool exceeds 2^32 words");
        pool_.resize(off + ref.cap);
        ref.off = static_cast<uint32_t>(off);
      }
    }
    ref.len = words;
    return dir_[id];
  }

  /// Drops id's block and layout; nothing happens for an id never built or
  /// already freed.
  void Free(TermNodeId id) {
    if (id >= dir_.size()) return;
    const SpanRef& ref = dir_[id].block;
    if (ref.cap != 0) free_[__builtin_ctz(ref.cap)].push_back(ref.off);
    dir_[id] = Entry{};
  }

  /// Pre-grows the pool tail so a batch refreshing `boxes` of the `alive`
  /// boxes does not re-grow it mid-transaction: each refreshed box gets the
  /// pool's running per-box average, rounded up.
  void ReserveForBoxes(size_t boxes, size_t alive) {
    if (alive == 0 || boxes == 0) return;
    pool_.reserve(pool_.size() + boxes * (pool_.size() / alive + 1));
  }

  /// Frees the retired directory and pool buffers; the caller guarantees
  /// that no reader holds one (util/cow_store.h).
  void ReleaseRetired() {
    dir_.ReleaseRetired();
    pool_.ReleaseRetired();
  }
  /// Bytes of superseded directory and pool buffers still allocated.
  size_t retired_bytes() const {
    return dir_.retired_bytes() + pool_.retired_bytes();
  }

  /// The audit every layer shares: no block is longer than its capacity,
  /// no dead id owns one, and no two overlap or leave the pool.
  /// `check(id, entry)` audits each alive id's layout and returns what is
  /// wrong, or nullptr. Returns the first violation, or "" when consistent.
  template <typename Check>
  std::string Validate(const char* name, const Term& term,
                       Check check) const {
    std::vector<std::pair<uint32_t, TermNodeId>> live;  // (off, id)
    for (TermNodeId id = 0; id < dir_.size(); ++id) {
      const SpanRef& b = dir_[id].block;
      const char* bad = nullptr;
      // Every commit releases the ids it frees, so only alive boxes own
      // blocks.
      if (b.len > b.cap) {
        bad = "block exceeds its capacity";
      } else if (!term.IsAlive(id)) {
        if (b.cap != 0) bad = "is dead but owns a block";
      } else {
        if (b.cap != 0) live.emplace_back(b.off, id);
        bad = check(id, dir_[id]);
      }
      if (bad != nullptr) return Describe(name, id, bad);
    }
    std::sort(live.begin(), live.end());
    size_t end = 0;  // of the block before
    for (const auto& [off, id] : live) {
      if (off < end) return Describe(name, id, "overlaps the block before");
      end = size_t{off} + dir_[id].block.cap;
      if (end > pool_.size()) return Describe(name, id, "leaves the pool");
    }
    return std::string();
  }

 private:
  static constexpr uint32_t kMinCap = 4;

  static std::string Describe(const char* name, TermNodeId id,
                              const char* what) {
    return std::string(name) + " box " + std::to_string(id) + " " + what;
  }

  CowStore<Entry> dir_;
  CowStore<uint64_t, Align> pool_;
  std::vector<uint32_t> free_[32];  ///< Free blocks by log2(capacity).
};

}  // namespace treenum

#endif  // TREENUM_CIRCUIT_ARENA_H_
