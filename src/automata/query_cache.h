// QueryCache — process-wide hash-consed cache of compiled query plans.
//
// Compiling a registered query is the expensive half of registration:
// translation to the binary term alphabet, homogenization (Lemma 2.1) and
// canonicalization all cost poly(|Q|), while admitting the compiled plan
// to a document is cheap. PR 5's registry dedupes registrations *within*
// one document; a multi-tenant server runs many documents sharing few
// distinct queries, so this cache hoists compilation process-wide, in the
// style of libfive's `Cache::instance()`: every DynamicDocument (and
// every DocumentShardServer shard worker) routes compilation through one
// cache, and automaton-identical queries — across all documents — share a
// single immutable `HomogenizedTva`.
//
// An automaton's identity is its serialized body (automata/serialize.h):
// the codecs write every field, so equal bytes are equal automata. Both
// lookup levels are exact maps keyed by those bytes:
//
//   * Source map: a kind byte (0 = tree query, 1 = word query) followed by
//     the AppendUnrankedTva / AppendWva body. A source hit returns the
//     compiled plan with ZERO translation/homogenization/canonicalization
//     work — the common case once any document has seen the query. The
//     key keeps declaration order, so a reordered or renumbered variant
//     misses here, compiles, and converges in the canonical map.
//   * Canonical map: the AppendHomogenizedTva body of the canonical plan.
//     Queries whose sources differ but whose canonical forms coincide
//     converge here to one plan; distinct plans never alias.
//
// Handles are `shared_ptr<const HomogenizedTva>` whose deleter notifies
// the cache (libfive's Cache::del idiom): while any document, pipeline or
// caller holds a handle the entry is pinned; at refcount zero it stays
// *warm* for cheap re-acquisition until the retention cap evicts it (LRU).
// The cache must outlive every handle it issued; `Global()` is leaked for
// exactly that reason.
//
// Thread safety: every public member is safe from any thread. Compilation
// and key encoding run outside the lock (concurrent cold compiles of the
// same query are benign — the second interns into the first's entry); the
// grouped-CSR delta cache of each plan is built eagerly before the first
// handle is published, so shard workers can build pipelines over one
// shared plan concurrently without racing its lazy initialization.
//
// Whole-cache images (SaveCache / WarmStart, automata/serialize.h) make
// restarts warm: a warm-started process re-registers its query library
// through the source map without compiling anything. An image stores the
// map keys themselves: each plan's canonical body, then its source keys.
#ifndef TREENUM_AUTOMATA_QUERY_CACHE_H_
#define TREENUM_AUTOMATA_QUERY_CACHE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/homogenize.h"
#include "automata/unranked_tva.h"
#include "automata/wva.h"

namespace treenum {

/// Process-wide, thread-safe, refcounted hash-consing cache of compiled
/// query plans (see the file comment for the design).
class QueryCache {
 public:
  /// A refcounted reference to one cached compiled plan. All handles to
  /// the same plan point at the same object (pointer identity ==
  /// automaton identity). The cache must outlive every handle.
  using Handle = std::shared_ptr<const HomogenizedTva>;

  /// Default cap on *unreferenced* (warm) plans retained for cheap
  /// re-acquisition; pinned plans are never evicted and never counted.
  static constexpr size_t kDefaultRetentionCap = 1024;

  /// Cache observability counters (see stats()). Counter semantics are
  /// lifetime totals; `entries` / `unreferenced_entries` /
  /// `source_entries` are current gauges.
  struct Stats {
    uint64_t lookups = 0;          ///< CompileTree/CompileWord calls.
    uint64_t source_hits = 0;      ///< Served by the pre-translation map.
    uint64_t canonical_hits = 0;   ///< Served by the canonical map.
    /// Cold compiles paid: each translates, homogenizes and canonicalizes.
    uint64_t translations = 0;
    uint64_t insertions = 0;       ///< New canonical entries created.
    uint64_t evictions = 0;        ///< Warm entries dropped by the cap.
    size_t entries = 0;            ///< Live compiled plans.
    size_t unreferenced_entries = 0;  ///< Warm (refcount-zero) plans.
    size_t source_entries = 0;     ///< Pre-translation source links.
  };

  QueryCache();
  ~QueryCache();

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// The process-wide instance every document uses by default.
  /// Intentionally leaked: handles held by static-lifetime objects must
  /// never outlive the cache.
  static QueryCache& Global();

  // ---- Lookup / compilation ----

  /// Returns the compiled plan for a tree query, compiling it only if no
  /// byte-identical source is cached; a compiled plan equal to a cached
  /// one is shared.
  Handle CompileTree(const UnrankedTva& query);
  /// Returns the compiled plan for a word query (WVA / spanner).
  Handle CompileWord(const Wva& query);

  // ---- Retention policy ----

  /// Caps how many unreferenced plans stay warm; beyond it the LRU warm
  /// entries (and their source links) are evicted. Pinned plans are
  /// unaffected.
  void set_retention_cap(size_t cap);
  /// Counter/gauge snapshot.
  Stats stats() const;

  // ---- Whole-cache serialization ----

  /// Writes every cached plan plus its source links as one checksummed
  /// record (automata/serialize.h). Returns false iff the write fails.
  bool SaveCache(std::ostream& out) const;
  /// Restores plans saved by SaveCache into this cache (merging with its
  /// current contents) and returns how many records were admitted. On
  /// malformed input restores nothing, returns 0 and fills `*error`.
  size_t WarmStart(std::istream& in, std::string* error = nullptr);

 private:
  /// One cached plan: the owning pointer, its canonical-map key, and the
  /// pin/LRU bookkeeping. `automaton == nullptr` marks a free slot.
  struct Entry {
    const std::string* plan_key = nullptr;  ///< Key of its by_plan_ node.
    std::shared_ptr<const HomogenizedTva> automaton;
    size_t external_refs = 0;
    uint64_t last_use = 0;
  };

  /// The one compile path behind CompileTree and CompileWord: source-map
  /// lookup, else compile outside the lock and intern.
  template <typename Query>
  Handle Compile(const Query& query);
  /// Canonical-map lookup/insert of an already-canonical automaton whose
  /// serialized body is `plan_key`.
  size_t InternCanonicalLocked(std::string plan_key, HomogenizedTva&& homog);
  /// Pins `slot` and wraps it in a deleter-notifying Handle.
  Handle AcquireLocked(size_t slot);
  /// Deleter notification: unpins `slot`, possibly triggering eviction.
  void Release(size_t slot);
  /// Evicts LRU warm entries until the retention cap holds.
  void EnforceCapLocked();
  /// Drops one warm entry: maps, source links, slot free list.
  void EvictLocked(size_t slot);

  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<size_t> free_slots_;
  std::unordered_map<std::string, size_t> by_plan_;   ///< Plan body -> slot.
  std::unordered_map<std::string, size_t> sources_;   ///< Source key -> slot.
  size_t retention_cap_ = kDefaultRetentionCap;
  size_t unreferenced_ = 0;
  uint64_t clock_ = 0;

  // Lifetime counters (under mu_; see Stats).
  uint64_t lookups_ = 0;
  uint64_t source_hits_ = 0;
  uint64_t canonical_hits_ = 0;
  uint64_t translations_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace treenum

#endif  // TREENUM_AUTOMATA_QUERY_CACHE_H_
