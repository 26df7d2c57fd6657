// Process-wide heap allocation gauge.
//
// The counters live in the core library, but the global operator new/delete
// replacements that feed them live in a separate object library
// (`treenum_alloc_gauge`, src/util/alloc_gauge_hooks.cpp) linked only into
// binaries that measure allocations — the replacement costs ~30% on
// allocation-heavy paths, so production consumers and latency benchmarks
// must not inherit it. In a binary without the hooks, AllocGaugeActive()
// is false and every counter stays 0.
//
// Thread safety: the counters are relaxed atomics, so the hooks may fire
// concurrently from any thread — shard workers and snapshot readers
// allocate while a test or bench reads the gauge — without losing counts.
// Relaxed ordering is sufficient because the assertions only compare
// before/after deltas across joined threads (the join publishes the
// increments); no cross-counter consistency is implied mid-flight.
#ifndef TREENUM_UTIL_ALLOC_GAUGE_H_
#define TREENUM_UTIL_ALLOC_GAUGE_H_

#include <cstddef>
#include <cstdint>

namespace treenum {

/// True iff the counting operator new/delete hooks are linked into this
/// binary. Zero-allocation assertions must check this first — without the
/// hooks the deltas are vacuously zero.
bool AllocGaugeActive();

/// Number of global operator new calls since process start (0 without hooks).
uint64_t AllocCount();
/// Number of global operator delete calls since process start.
uint64_t FreeCount();
/// Total bytes requested through global operator new since process start.
uint64_t AllocBytes();

/// Scoped delta reader: captures the counters at construction; the
/// accessors report growth since then.
class AllocGaugeScope {
 public:
  AllocGaugeScope() : allocs_(AllocCount()), bytes_(AllocBytes()) {}
  uint64_t allocs() const { return AllocCount() - allocs_; }
  uint64_t bytes() const { return AllocBytes() - bytes_; }

 private:
  uint64_t allocs_;
  uint64_t bytes_;
};

namespace internal {

/// Called by the hook translation unit only.
void RecordAlloc(size_t bytes);
void RecordFree();
bool MarkGaugeActive();

}  // namespace internal
}  // namespace treenum

#endif  // TREENUM_UTIL_ALLOC_GAUGE_H_
