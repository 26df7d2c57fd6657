// Arena-backed flat storage for circuit boxes and jump-index entries.
//
// AssignmentCircuit and EnumIndex each keep one contiguous word pool, owned
// by a SpanPool, and give a box one span of it (a gate-free index entry
// has none): the box's whole content, its sections placed by a per-box
// layout. A box holds only an (offset, length, capacity) triple; a box
// refresh during updates (Lemma 7.3) reuses its old span in place whenever
// the capacity suffices, and otherwise recycles it through a power-of-two
// free list. In steady state — e.g. a stream of relabel edits — a refresh
// therefore performs zero heap allocations; the pools only grow while they
// discover new worst-case box shapes.
//
// Pointers into a pool are invalidated whenever some span in that pool is
// (re)allocated: consumers must re-fetch views (AssignmentCircuit::box,
// EnumIndex::at) after any rebuild, and builders must finish reading child
// spans before committing writes. Offsets are stable.
//
// The backing store is a CowStore (util/cow_store.h): growth retires the old
// buffer instead of freeing it, so snapshot readers resolving spans of
// frozen boxes on other threads keep valid pointers across writer growth.
#ifndef TREENUM_CIRCUIT_ARENA_H_
#define TREENUM_CIRCUIT_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

/// A span descriptor stored in a box header: offset/length/capacity inside
/// one SpanPool. Capacities are powers of two (or 0), which makes the free
/// lists exact-fit per size class.
struct SpanRef {
  uint32_t off = 0;
  uint32_t len = 0;
  uint32_t cap = 0;
};

/// One flat pool of `T` with size-class span recycling. `Align` customizes
/// the backing store's alignment (the index pool passes 64 so each of its
/// blocks starts on a cache line).
template <typename T, size_t Align = alignof(T)>
class SpanPool {
 public:
  /// Makes `ref` address at least `n` usable slots and sets ref.len = n.
  /// Keeps the current span when its capacity suffices (the steady-state,
  /// allocation-free path); otherwise releases it and takes a span from the
  /// matching free list, growing the pool tail only when the list is empty.
  void Ensure(SpanRef& ref, uint32_t n) {
    if (ref.cap >= n) {
      ref.len = n;
      return;
    }
    // Keeps RoundUpPow2 from wrapping (1u << 32 == hang) and SizeClass
    // within free_'s 32 buckets.
    TREENUM_CHECK(n <= (uint32_t{1} << 31),
                  "SpanPool span exceeds 2^31 entries");
    Release(ref);
    uint32_t cap = RoundUpPow2(n < kMinCap ? kMinCap : n);
    size_t cls = SizeClass(cap);
    if (!free_[cls].empty()) {
      ref.off = free_[cls].back();
      free_[cls].pop_back();
    } else {
      size_t off = store_.size();
      TREENUM_CHECK(off + cap <= UINT32_MAX,
                    "SpanPool exceeds 2^32 entries");
      store_.resize(off + cap);
      ref.off = static_cast<uint32_t>(off);
    }
    ref.len = n;
    ref.cap = cap;
  }

  /// Returns ref's span to its size-class free list and clears ref.
  void Release(SpanRef& ref) {
    if (ref.cap != 0) free_[SizeClass(ref.cap)].push_back(ref.off);
    ref = SpanRef{};
  }

  T* at(uint32_t off) { return store_.data() + off; }
  const T* at(uint32_t off) const { return store_.data() + off; }

  /// Pre-grows the pool tail so a batch refreshing `boxes` of the `alive`
  /// boxes that share this pool does not re-grow the backing store
  /// mid-transaction: each refreshed box gets the pool's running per-box
  /// average, rounded up.
  void ReserveForBoxes(size_t boxes, size_t alive) {
    if (alive == 0 || boxes == 0) return;
    store_.reserve(store_.size() + boxes * (store_.size() / alive + 1));
  }

  size_t size() const { return store_.size(); }

 private:
  static constexpr uint32_t kMinCap = 4;

  static uint32_t RoundUpPow2(uint32_t n) {
    uint32_t c = 1;
    while (c < n) c <<= 1;
    return c;
  }
  static size_t SizeClass(uint32_t cap) {
    size_t k = 0;
    while ((uint32_t{1} << k) < cap) ++k;
    return k;
  }

  CowStore<T, Align> store_;
  std::vector<uint32_t> free_[32];
};

/// One live span of a pool, for validation (ValidateStorage test hooks).
struct LiveSpan {
  uint32_t off;
  uint32_t cap;
  uint32_t owner;  ///< Owning box id, for error messages.
};

/// Checks that the live spans of one pool stay within bounds and never
/// overlap pairwise. Sorts `spans` in place. Returns an empty string when
/// consistent, else a description of the first violation.
inline std::string CheckPoolSpans(const char* name, size_t pool_size,
                                  std::vector<LiveSpan>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const LiveSpan& a, const LiveSpan& b) { return a.off < b.off; });
  std::ostringstream err;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (static_cast<size_t>(spans[i].off) + spans[i].cap > pool_size) {
      err << name << " span of box " << spans[i].owner << " exceeds pool";
      return err.str();
    }
    if (i > 0 && spans[i - 1].off + spans[i - 1].cap > spans[i].off) {
      err << name << " spans of boxes " << spans[i - 1].owner << " and "
          << spans[i].owner << " overlap";
      return err.str();
    }
  }
  return std::string();
}

}  // namespace treenum

#endif  // TREENUM_CIRCUIT_ARENA_H_
