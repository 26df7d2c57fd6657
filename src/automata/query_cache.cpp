#include "automata/query_cache.h"

#include <iterator>
#include <utility>

#include "automata/serialize.h"
#include "automata/translate.h"
#include "util/check.h"

namespace treenum {
namespace {

// The kind byte that opens every source key (and precedes every source in
// a cache image), so a tree query and a word query never share a key.
constexpr uint8_t kTreeSource = 0;
constexpr uint8_t kWordSource = 1;

std::string SourceKey(const UnrankedTva& query) {
  serialize::ByteWriter w;
  w.PutU8(kTreeSource);
  serialize::AppendUnrankedTva(query, &w);
  return w.bytes();
}

std::string SourceKey(const Wva& query) {
  serialize::ByteWriter w;
  w.PutU8(kWordSource);
  serialize::AppendWva(query, &w);
  return w.bytes();
}

std::string PlanKey(const HomogenizedTva& plan) {
  serialize::ByteWriter w;
  serialize::AppendHomogenizedTva(plan, &w);
  return w.bytes();
}

TranslatedTva Translate(const UnrankedTva& query) {
  return TranslateUnrankedTva(query);
}

TranslatedTva Translate(const Wva& query) { return TranslateWva(query); }

}  // namespace

QueryCache::QueryCache() = default;
QueryCache::~QueryCache() = default;

QueryCache& QueryCache::Global() {
  // Leaked on purpose: handles embedded in static-lifetime documents may
  // release during static destruction, after a function-local static
  // cache would already be gone.
  static QueryCache* const cache = new QueryCache();
  return *cache;
}

// ---------------------------------------------------------------------------
// Lookup / compilation
// ---------------------------------------------------------------------------

size_t QueryCache::InternCanonicalLocked(std::string plan_key,
                                         HomogenizedTva&& homog) {
  auto [it, inserted] = by_plan_.try_emplace(std::move(plan_key), kNoSlot);
  if (!inserted) {
    ++canonical_hits_;
    return it->second;
  }
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = entries_.size();
    entries_.emplace_back();
  }
  it->second = slot;
  Entry& e = entries_[slot];
  e.plan_key = &it->first;  // map nodes are stable across rehashes
  e.automaton = std::make_shared<const HomogenizedTva>(std::move(homog));
  // Build the grouped-CSR delta cache before any handle escapes: shard
  // workers build pipelines over this shared plan concurrently, and the
  // cache mutates on first access (binary_tva.h).
  e.automaton->tva.EnsureDeltaGroups();
  e.external_refs = 0;
  e.last_use = ++clock_;
  ++unreferenced_;
  ++insertions_;
  return slot;
}

QueryCache::Handle QueryCache::AcquireLocked(size_t slot) {
  Entry& e = entries_[slot];
  TREENUM_CHECK(e.automaton != nullptr, "acquire of a free cache slot");
  if (e.external_refs == 0) --unreferenced_;
  ++e.external_refs;
  e.last_use = ++clock_;
  // The handle aliases the entry's owning pointer; its deleter only
  // notifies the cache (libfive's Cache::del idiom). The entry is never
  // evicted while external_refs > 0, so the pointee outlives the handle.
  QueryCache* self = this;
  return Handle(e.automaton.get(),
                [self, slot](const HomogenizedTva*) { self->Release(slot); });
}

void QueryCache::Release(size_t slot) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[slot];
  TREENUM_CHECK(e.automaton != nullptr && e.external_refs > 0,
                "release of an unpinned cache slot");
  if (--e.external_refs == 0) {
    ++unreferenced_;
    e.last_use = ++clock_;
    EnforceCapLocked();
  }
}

template <typename Query>
QueryCache::Handle QueryCache::Compile(const Query& query) {
  std::string source_key = SourceKey(query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++lookups_;
    auto it = sources_.find(source_key);
    if (it != sources_.end()) {
      ++source_hits_;
      return AcquireLocked(it->second);
    }
  }
  // Cold: compile outside the lock. Two threads racing on the same new
  // query both compile; the loser's intern lands on the winner's entry.
  HomogenizedTva homog = HomogenizeBinaryTva(Translate(query).tva);
  CanonicalizeHomogenizedTva(&homog);
  std::string plan_key = PlanKey(homog);

  std::lock_guard<std::mutex> lock(mu_);
  ++translations_;
  const size_t slot =
      InternCanonicalLocked(std::move(plan_key), std::move(homog));
  sources_.emplace(std::move(source_key), slot);
  Handle h = AcquireLocked(slot);
  EnforceCapLocked();
  return h;
}

QueryCache::Handle QueryCache::CompileTree(const UnrankedTva& query) {
  return Compile(query);
}

QueryCache::Handle QueryCache::CompileWord(const Wva& query) {
  return Compile(query);
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

void QueryCache::set_retention_cap(size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  retention_cap_ = cap;
  EnforceCapLocked();
}

void QueryCache::EnforceCapLocked() {
  while (unreferenced_ > retention_cap_) {
    size_t victim = kNoSlot;
    uint64_t oldest = ~uint64_t{0};
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.automaton != nullptr && e.external_refs == 0 &&
          e.last_use < oldest) {
        oldest = e.last_use;
        victim = i;
      }
    }
    if (victim == kNoSlot) break;  // counter out of sync; be safe
    EvictLocked(victim);
  }
}

void QueryCache::EvictLocked(size_t slot) {
  Entry& e = entries_[slot];
  // Erase through an iterator: the key argument lives in the erased node.
  by_plan_.erase(by_plan_.find(*e.plan_key));
  e.plan_key = nullptr;
  for (auto it = sources_.begin(); it != sources_.end();) {
    it = it->second == slot ? sources_.erase(it) : std::next(it);
  }
  e.automaton.reset();  // marks the slot free
  free_slots_.push_back(slot);
  --unreferenced_;
  ++evictions_;
}

QueryCache::Stats QueryCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.lookups = lookups_;
  s.source_hits = source_hits_;
  s.canonical_hits = canonical_hits_;
  s.translations = translations_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = entries_.size() - free_slots_.size();
  s.unreferenced_entries = unreferenced_;
  s.source_entries = sources_.size();
  return s;
}

// ---------------------------------------------------------------------------
// Whole-cache serialization
// ---------------------------------------------------------------------------
//
// Image payload (one kCacheImage record, checksummed as a whole):
//   u64 entry count
//   per entry: HomogenizedTva body | u32 source count |
//              per source: u8 is_word | UnrankedTva or Wva body
// The plan body is the entry's canonical-map key and each source is its
// source-map key, so SaveCache writes the stored keys verbatim.

bool QueryCache::SaveCache(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  serialize::ByteWriter w;
  w.PutU64(entries_.size() - free_slots_.size());
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    const Entry& e = entries_[slot];
    if (e.automaton == nullptr) continue;
    w.PutBytes(*e.plan_key);
    uint32_t num_sources = 0;
    for (const auto& kv : sources_) {
      if (kv.second == slot) ++num_sources;
    }
    w.PutU32(num_sources);
    for (const auto& kv : sources_) {
      if (kv.second == slot) w.PutBytes(kv.first);
    }
  }
  return serialize::WriteRecord(serialize::RecordKind::kCacheImage, w.bytes(),
                                out);
}

size_t QueryCache::WarmStart(std::istream& in, std::string* error) {
  serialize::RecordKind kind;
  std::string payload;
  if (!serialize::ReadRecord(in, &kind, &payload, error)) return 0;
  if (kind != serialize::RecordKind::kCacheImage) {
    if (error != nullptr) *error = "not a cache image";
    return 0;
  }

  // Stage the whole image before admitting anything, so a record that
  // goes bad halfway through restores nothing. Each parsed source is keyed
  // by re-encoding it.
  struct StagedEntry {
    HomogenizedTva homog;
    std::vector<std::string> source_keys;
  };
  std::vector<StagedEntry> staged;

  serialize::ByteReader r(payload.data(), payload.size());
  uint64_t count;
  if (!r.GetU64(&count)) {
    if (error != nullptr) *error = "truncated cache image";
    return 0;
  }
  for (uint64_t i = 0; i < count; ++i) {
    StagedEntry entry;
    if (!serialize::ParseHomogenizedTva(&r, &entry.homog, error)) return 0;
    uint32_t num_sources;
    if (!r.GetU32(&num_sources)) {
      if (error != nullptr) *error = "truncated source count";
      return 0;
    }
    for (uint32_t j = 0; j < num_sources; ++j) {
      uint8_t source_kind;
      if (!r.GetU8(&source_kind) || source_kind > kWordSource) {
        if (error != nullptr) *error = "bad source mode";
        return 0;
      }
      if (source_kind == kWordSource) {
        Wva wva(0, 0, 0);
        if (!serialize::ParseWva(&r, &wva, error)) return 0;
        entry.source_keys.push_back(SourceKey(wva));
      } else {
        UnrankedTva tva(0, 0, 0);
        if (!serialize::ParseUnrankedTva(&r, &tva, error)) return 0;
        entry.source_keys.push_back(SourceKey(tva));
      }
    }
    staged.push_back(std::move(entry));
  }
  if (r.remaining() != 0) {
    if (error != nullptr) *error = "trailing bytes in cache image";
    return 0;
  }

  size_t admitted = 0;
  for (StagedEntry& entry : staged) {
    // Re-canonicalize on admission: images produced by SaveCache are
    // already canonical (idempotent), and hand-crafted ones converge to
    // the same interned plan a live compile would produce.
    CanonicalizeHomogenizedTva(&entry.homog);
    std::string plan_key = PlanKey(entry.homog);
    std::lock_guard<std::mutex> lock(mu_);
    const size_t slot =
        InternCanonicalLocked(std::move(plan_key), std::move(entry.homog));
    for (std::string& key : entry.source_keys) {
      sources_.emplace(std::move(key), slot);
    }
    ++admitted;
    EnforceCapLocked();
  }
  return admitted;
}

}  // namespace treenum
