#include "automata/query_cache.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "automata/serialize.h"
#include "automata/translate.h"
#include "util/check.h"

namespace treenum {
namespace {

// Structural equality of source automata, order-sensitive over the
// relation vectors (the retained copy preserves declaration order, so an
// equal construction compares equal; a merely renumbered or reordered
// variant misses here, recompiles, and converges in the canonical map).
bool UnrankedTvaEqual(const UnrankedTva& a, const UnrankedTva& b) {
  return a.num_states() == b.num_states() &&
         a.num_labels() == b.num_labels() && a.num_vars() == b.num_vars() &&
         a.inits() == b.inits() && a.transitions() == b.transitions() &&
         a.final_states() == b.final_states();
}

bool WvaEqual(const Wva& a, const Wva& b) {
  return a.num_states() == b.num_states() &&
         a.num_labels() == b.num_labels() && a.num_vars() == b.num_vars() &&
         a.transitions() == b.transitions() &&
         a.initial_states() == b.initial_states() &&
         a.final_states() == b.final_states();
}

// Domain separators mixed into the source-map key so a tree query and a
// word query can never alias even on equal raw fingerprints.
constexpr uint64_t kTreeSourceTag = 0x7472656571756572ULL;
constexpr uint64_t kWordSourceTag = 0x776f726471756572ULL;

// The constant every fingerprint collapses to under the collision test
// hook (set_test_force_fingerprint_collisions).
constexpr uint64_t kForcedFingerprint = 0x636f6c6c69646521ULL;

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

uint64_t QueryCache::CanonicalFingerprintLocked(
    const HomogenizedTva& a) const {
  return test_collide_ ? kForcedFingerprint : FingerprintHomogenizedTva(a);
}

uint64_t QueryCache::SourceKeyLocked(bool is_word,
                                     uint64_t raw_fingerprint) const {
  if (test_collide_) return kForcedFingerprint;
  return FingerprintCombine(is_word ? kWordSourceTag : kTreeSourceTag,
                            raw_fingerprint);
}

size_t QueryCache::FindSourceLocked(uint64_t key, bool is_word,
                                    const UnrankedTva* tq, const Wva* wq) {
  auto range = sources_.equal_range(key);
  for (auto it = range.first; it != range.second; ++it) {
    const SourceEntry& s = it->second;
    if (s.is_word != is_word) {
      ++collisions_;
      continue;
    }
    const bool equal = is_word ? WvaEqual(*s.word_src, *wq)
                               : UnrankedTvaEqual(*s.tree_src, *tq);
    if (equal) return s.slot;
    ++collisions_;
  }
  return kNoSlot;
}

void QueryCache::AddSourceLocked(uint64_t key, bool is_word,
                                 const UnrankedTva* tq, const Wva* wq,
                                 size_t slot) {
  if (FindSourceLocked(key, is_word, tq, wq) != kNoSlot) return;
  SourceEntry s;
  s.is_word = is_word;
  if (is_word) {
    s.word_src = std::make_unique<Wva>(*wq);
  } else {
    s.tree_src = std::make_unique<UnrankedTva>(*tq);
  }
  s.slot = slot;
  sources_.emplace(key, std::move(s));
}

size_t QueryCache::InternCanonicalLocked(HomogenizedTva&& homog) {
  const uint64_t fp = CanonicalFingerprintLocked(homog);
  auto range = by_fingerprint_.equal_range(fp);
  for (auto it = range.first; it != range.second; ++it) {
    const Entry& e = entries_[it->second];
    if (HomogenizedTvaEqual(*e.automaton, homog)) {
      ++canonical_hits_;
      return it->second;
    }
    ++collisions_;
  }
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = entries_.size();
    entries_.emplace_back();
  }
  Entry& e = entries_[slot];
  e.fingerprint = fp;
  e.automaton = std::make_shared<const HomogenizedTva>(std::move(homog));
  // Build the grouped-CSR delta cache before any handle escapes: shard
  // workers build pipelines over this shared plan concurrently, and the
  // cache mutates on first access (binary_tva.h).
  e.automaton->tva.EnsureDeltaGroups();
  e.external_refs = 0;
  e.last_use = ++clock_;
  ++unreferenced_;
  by_fingerprint_.emplace(fp, slot);
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

QueryCache::Handle QueryCache::CompileTree(const UnrankedTva& query) {
  const uint64_t raw_fp = FingerprintUnrankedTva(query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++lookups_;
    const uint64_t key = SourceKeyLocked(false, raw_fp);
    size_t slot = FindSourceLocked(key, false, &query, nullptr);
    if (slot != kNoSlot) {
      ++source_hits_;
      return AcquireLocked(slot);
    }
  }
  // Cold: compile outside the lock. Two threads racing on the same new
  // query both compile; the loser's intern lands on the winner's entry.
  TranslatedTva translated = TranslateUnrankedTva(query);
  HomogenizedTva homog = HomogenizeBinaryTva(translated.tva);
  CanonicalizeHomogenizedTva(&homog);

  std::lock_guard<std::mutex> lock(mu_);
  ++translations_;
  ++homogenizations_;
  ++canonicalizations_;
  const size_t slot = InternCanonicalLocked(std::move(homog));
  AddSourceLocked(SourceKeyLocked(false, raw_fp), false, &query, nullptr,
                  slot);
  Handle h = AcquireLocked(slot);
  EnforceCapLocked();
  return h;
}

QueryCache::Handle QueryCache::CompileWord(const Wva& query) {
  const uint64_t raw_fp = FingerprintWva(query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++lookups_;
    const uint64_t key = SourceKeyLocked(true, raw_fp);
    size_t slot = FindSourceLocked(key, true, nullptr, &query);
    if (slot != kNoSlot) {
      ++source_hits_;
      return AcquireLocked(slot);
    }
  }
  TranslatedTva translated = TranslateWva(query);
  HomogenizedTva homog = HomogenizeBinaryTva(translated.tva);
  CanonicalizeHomogenizedTva(&homog);

  std::lock_guard<std::mutex> lock(mu_);
  ++translations_;
  ++homogenizations_;
  ++canonicalizations_;
  const size_t slot = InternCanonicalLocked(std::move(homog));
  AddSourceLocked(SourceKeyLocked(true, raw_fp), true, nullptr, &query, slot);
  Handle h = AcquireLocked(slot);
  EnforceCapLocked();
  return h;
}

QueryCache::Handle QueryCache::Intern(HomogenizedTva homog) {
  CanonicalizeHomogenizedTva(&homog);
  std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  ++canonicalizations_;
  const size_t slot = InternCanonicalLocked(std::move(homog));
  Handle h = AcquireLocked(slot);
  EnforceCapLocked();
  return h;
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
  auto range = by_fingerprint_.equal_range(e.fingerprint);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == slot) {
      by_fingerprint_.erase(it);
      break;
    }
  }
  for (auto it = sources_.begin(); it != sources_.end();) {
    it = it->second.slot == slot ? sources_.erase(it) : std::next(it);
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
  s.homogenizations = homogenizations_;
  s.canonicalizations = canonicalizations_;
  s.insertions = insertions_;
  s.collisions = collisions_;
  s.evictions = evictions_;
  s.entries = entries_.size() - free_slots_.size();
  s.unreferenced_entries = unreferenced_;
  s.source_entries = sources_.size();
  return s;
}

void QueryCache::set_test_force_fingerprint_collisions(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  TREENUM_CHECK(entries_.empty() || !on,
                "collision hook must be set before the first insertion");
  test_collide_ = on;
}

// ---------------------------------------------------------------------------
// Whole-cache serialization
// ---------------------------------------------------------------------------
//
// Image payload (one kCacheImage record, checksummed as a whole):
//   u64 entry count
//   per entry: HomogenizedTva body | u32 source count |
//              per source: u8 is_word | UnrankedTva or Wva body

bool QueryCache::SaveCache(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  serialize::ByteWriter w;
  uint64_t count = 0;
  for (const Entry& e : entries_) {
    if (e.automaton != nullptr) ++count;
  }
  w.PutU64(count);
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    const Entry& e = entries_[slot];
    if (e.automaton == nullptr) continue;
    serialize::AppendHomogenizedTva(*e.automaton, &w);
    uint32_t num_sources = 0;
    for (const auto& kv : sources_) {
      if (kv.second.slot == slot) ++num_sources;
    }
    w.PutU32(num_sources);
    for (const auto& kv : sources_) {
      const SourceEntry& s = kv.second;
      if (s.slot != slot) continue;
      w.PutU8(s.is_word ? 1 : 0);
      if (s.is_word) {
        serialize::AppendWva(*s.word_src, &w);
      } else {
        serialize::AppendUnrankedTva(*s.tree_src, &w);
      }
    }
  }
  return serialize::WriteRecord(serialize::RecordKind::kCacheImage, w.bytes(),
                                out);
}

bool QueryCache::SaveCache(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  return out && SaveCache(out);
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
  // goes bad halfway through restores nothing.
  struct StagedSource {
    bool is_word = false;
    std::unique_ptr<UnrankedTva> tree_src;
    std::unique_ptr<Wva> word_src;
  };
  struct StagedEntry {
    HomogenizedTva homog;
    std::vector<StagedSource> sources;
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
      uint8_t is_word;
      if (!r.GetU8(&is_word) || is_word > 1) {
        if (error != nullptr) *error = "bad source mode";
        return 0;
      }
      StagedSource src;
      src.is_word = is_word == 1;
      if (src.is_word) {
        Wva wva(0, 0, 0);
        if (!serialize::ParseWva(&r, &wva, error)) return 0;
        src.word_src = std::make_unique<Wva>(std::move(wva));
      } else {
        UnrankedTva tva(0, 0, 0);
        if (!serialize::ParseUnrankedTva(&r, &tva, error)) return 0;
        src.tree_src = std::make_unique<UnrankedTva>(std::move(tva));
      }
      entry.sources.push_back(std::move(src));
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
    std::lock_guard<std::mutex> lock(mu_);
    const size_t slot = InternCanonicalLocked(std::move(entry.homog));
    for (StagedSource& src : entry.sources) {
      const uint64_t raw_fp = src.is_word
                                  ? FingerprintWva(*src.word_src)
                                  : FingerprintUnrankedTva(*src.tree_src);
      AddSourceLocked(SourceKeyLocked(src.is_word, raw_fp), src.is_word,
                      src.tree_src.get(), src.word_src.get(), slot);
    }
    ++admitted;
    EnforceCapLocked();
  }
  return admitted;
}

size_t QueryCache::WarmStart(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open cache image";
    return 0;
  }
  return WarmStart(in, error);
}

}  // namespace treenum
