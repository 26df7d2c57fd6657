// Tests for the binary automaton serialization (automata/serialize.h):
// round-trip bit-equivalence over the whole query library (tree and word
// modes), header rejection (magic / version / endianness), truncated and
// corrupted input rejected cleanly (the suite runs under ASan in CI, so
// any out-of-bounds read on malformed input fails loudly), whole-cache
// SaveCache/WarmStart round-trips (into empty and non-empty caches), and
// golden fixtures in tests/data/ pinning the byte format of a compiled
// plan and of a whole-cache image across revisions.
//
// Regenerate the golden fixtures (after a deliberate format bump) with:
//   TREENUM_REGEN_GOLDEN=1 ./serialize_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "automata/serialize.h"
#include "automata/translate.h"
#include "test_util.h"

namespace treenum {
namespace {

// Every tree query in the library (fixed small parameterizations).
std::vector<UnrankedTva> LibraryTreeQueries() {
  std::vector<UnrankedTva> qs;
  qs.push_back(QuerySelectLabel(3, 1));
  qs.push_back(QuerySelectAll(3));
  qs.push_back(QueryMarkedAncestor(3, 1, 2));
  qs.push_back(QueryDescendantPairs(3, 0, 1));
  qs.push_back(QueryContainsLabel(3, 2));
  qs.push_back(QueryAnySubsetOfLabel(3, 0));
  qs.push_back(QueryAncestorAtDistance(3, 1, 3));
  qs.push_back(QueryChildOfLabel(3, 0, 2));
  qs.push_back(QuerySelectLeaves(3));
  qs.push_back(QueryNextSibling(3, 1, 0));
  return qs;
}

std::vector<Wva> LibraryWordQueries() {
  std::vector<Wva> qs;
  qs.push_back(CompileRegexSpanner("a*<0:b>.*", 3, 1));
  qs.push_back(CompileRegexSpanner("<0:a>b*<1:c>", 3, 2));
  Wva any(2, 3, 1);
  any.AddInitial(0);
  any.AddFinal(1);
  for (Label l = 0; l < 3; ++l) {
    any.AddTransition(0, l, 0, 0);
    any.AddTransition(1, l, 0, 1);
    any.AddTransition(0, l, 1, 1);
  }
  qs.push_back(any);
  return qs;
}

HomogenizedTva CompileTree(const UnrankedTva& q) {
  HomogenizedTva h = HomogenizeBinaryTva(TranslateUnrankedTva(q).tva);
  CanonicalizeHomogenizedTva(&h);
  return h;
}

HomogenizedTva CompileWord(const Wva& q) {
  HomogenizedTva h = HomogenizeBinaryTva(TranslateWva(q).tva);
  CanonicalizeHomogenizedTva(&h);
  return h;
}

std::string Serialized(const HomogenizedTva& h) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveCompiled(h, out));
  return out.str();
}

// ---- Round trips ----

TEST(Serialize, CompiledPlanRoundTripsForEveryLibraryQuery) {
  std::vector<HomogenizedTva> plans;
  for (const UnrankedTva& q : LibraryTreeQueries()) {
    plans.push_back(CompileTree(q));
  }
  for (const Wva& q : LibraryWordQueries()) {
    plans.push_back(CompileWord(q));
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    const std::string bytes = Serialized(plans[i]);
    std::istringstream in(bytes, std::ios::binary);
    HomogenizedTva loaded;
    std::string error;
    ASSERT_TRUE(LoadCompiled(in, &loaded, &error)) << error;
    EXPECT_EQ(PlanBytes(plans[i]), PlanBytes(loaded));
    // Bit-equivalence: re-serializing the loaded plan reproduces the
    // exact bytes (the format has one encoding per automaton).
    EXPECT_EQ(Serialized(loaded), bytes);
  }
}

TEST(Serialize, SourceAutomataRoundTrip) {
  using namespace serialize;
  for (const UnrankedTva& q : LibraryTreeQueries()) {
    ByteWriter w;
    AppendUnrankedTva(q, &w);
    ByteReader r(w.bytes().data(), w.bytes().size());
    UnrankedTva loaded(0, 0, 0);
    std::string error;
    ASSERT_TRUE(ParseUnrankedTva(&r, &loaded, &error)) << error;
    EXPECT_EQ(r.remaining(), 0u);
    // Re-encoding reproduces the bytes: WarmStart keys parsed sources so.
    ByteWriter again;
    AppendUnrankedTva(loaded, &again);
    EXPECT_EQ(again.bytes(), w.bytes());
    EXPECT_EQ(q.inits(), loaded.inits());
    EXPECT_EQ(q.transitions(), loaded.transitions());
    EXPECT_EQ(q.final_states(), loaded.final_states());
  }
  for (const Wva& q : LibraryWordQueries()) {
    ByteWriter w;
    AppendWva(q, &w);
    ByteReader r(w.bytes().data(), w.bytes().size());
    Wva loaded(0, 0, 0);
    std::string error;
    ASSERT_TRUE(ParseWva(&r, &loaded, &error)) << error;
    EXPECT_EQ(r.remaining(), 0u);
    ByteWriter again;
    AppendWva(loaded, &again);
    EXPECT_EQ(again.bytes(), w.bytes());
    EXPECT_EQ(q.transitions(), loaded.transitions());
    EXPECT_EQ(q.initial_states(), loaded.initial_states());
    EXPECT_EQ(q.final_states(), loaded.final_states());
  }
}

// ---- Header rejection ----

TEST(Serialize, RejectsBadMagicVersionAndEndianness) {
  const std::string good = Serialized(CompileTree(QuerySelectLabel(3, 1)));

  auto load = [](std::string bytes, std::string* error) {
    std::istringstream in(bytes, std::ios::binary);
    HomogenizedTva out;
    return LoadCompiled(in, &out, error);
  };

  std::string error;
  ASSERT_TRUE(load(good, &error)) << error;

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(load(bad_magic, &error));
  EXPECT_EQ(error, "bad magic");

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(0x7f);  // version -> 0x7f
  EXPECT_FALSE(load(bad_version, &error));
  EXPECT_EQ(error, "unsupported version");

  // Byte-swap the endian mark: a big-endian writer would produce exactly
  // this header for the same logical value.
  std::string bad_endian = good;
  std::swap(bad_endian[8], bad_endian[11]);
  std::swap(bad_endian[9], bad_endian[10]);
  EXPECT_FALSE(load(bad_endian, &error));
  EXPECT_EQ(error, "foreign byte order");

  std::string bad_kind = good;
  bad_kind[12] = static_cast<char>(0x63);
  EXPECT_FALSE(load(bad_kind, &error));
  EXPECT_EQ(error, "unknown record kind");
}

// ---- Truncation / corruption (no UB; run under ASan in CI) ----

TEST(Serialize, RejectsEveryTruncation) {
  const std::string good = Serialized(CompileTree(QueryMarkedAncestor(3, 1, 2)));
  for (size_t len = 0; len < good.size(); ++len) {
    std::istringstream in(good.substr(0, len), std::ios::binary);
    HomogenizedTva out;
    std::string error;
    EXPECT_FALSE(LoadCompiled(in, &out, &error)) << "prefix length " << len;
  }
}

TEST(Serialize, RejectsCorruptedPayloadAndChecksum) {
  const std::string good = Serialized(CompileTree(QuerySelectLeaves(3)));
  // Flip one byte at a time across the whole record: every single-byte
  // corruption must be rejected (header checks or checksum mismatch) —
  // never silently accepted, never UB.
  size_t rejected = 0;
  for (size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    std::istringstream in(bad, std::ios::binary);
    HomogenizedTva out;
    if (!LoadCompiled(in, &out, nullptr)) ++rejected;
  }
  EXPECT_EQ(rejected, good.size());
}

TEST(Serialize, RejectsOversizedPayloadLengthWithoutAllocating) {
  std::string good = Serialized(CompileTree(QuerySelectLabel(3, 0)));
  // Stamp a ~2^62 payload length into the header (offset 13, u64 LE).
  for (int i = 0; i < 8; ++i) good[13 + i] = static_cast<char>(0xff);
  good[13 + 7] = static_cast<char>(0x3f);
  std::istringstream in(good, std::ios::binary);
  HomogenizedTva out;
  std::string error;
  EXPECT_FALSE(LoadCompiled(in, &out, &error));
  EXPECT_EQ(error, "payload too large");
}

// ---- Whole-cache images ----

TEST(Serialize, CacheImageRoundTripsAndWarmStartsWithoutCompiling) {
  QueryCache cache;
  for (const UnrankedTva& q : LibraryTreeQueries()) cache.CompileTree(q);
  for (const Wva& q : LibraryWordQueries()) cache.CompileWord(q);
  const QueryCache::Stats cold = cache.stats();

  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(cache.SaveCache(out));

  QueryCache warmed;
  std::istringstream in(out.str(), std::ios::binary);
  std::string error;
  EXPECT_EQ(warmed.WarmStart(in, &error), cold.entries) << error;
  EXPECT_EQ(warmed.stats().entries, cold.entries);
  EXPECT_EQ(warmed.stats().source_entries, cold.source_entries);

  // Every library query is now served from the warm cache with zero
  // translation / homogenization work.
  for (const UnrankedTva& q : LibraryTreeQueries()) warmed.CompileTree(q);
  for (const Wva& q : LibraryWordQueries()) warmed.CompileWord(q);
  QueryCache::Stats warm = warmed.stats();
  EXPECT_EQ(warm.translations, 0u);
  EXPECT_EQ(warm.source_hits,
            LibraryTreeQueries().size() + LibraryWordQueries().size());

  // Warm plans are the same automata the cold cache compiled.
  QueryCache::Handle a = cache.CompileTree(QueryMarkedAncestor(3, 1, 2));
  QueryCache::Handle b = warmed.CompileTree(QueryMarkedAncestor(3, 1, 2));
  EXPECT_EQ(PlanBytes(*a), PlanBytes(*b));

  // A truncated image restores nothing.
  std::string bytes = out.str();
  std::istringstream cut(bytes.substr(0, bytes.size() / 2),
                         std::ios::binary);
  QueryCache empty;
  EXPECT_EQ(empty.WarmStart(cut, &error), 0u);
  EXPECT_EQ(empty.stats().entries, 0u);
}

// An image plan equal to a live one lands on the live entry (a canonical
// hit, same plan pointer), and the image's other plans serve later
// lookups from the source map.
TEST(Serialize, WarmStartMergesIntoANonEmptyCache) {
  QueryCache saved;
  saved.CompileTree(QueryMarkedAncestor(3, 1, 2));
  saved.CompileTree(QuerySelectLabel(3, 1));
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(saved.SaveCache(out));

  QueryCache cache;
  QueryCache::Handle live = cache.CompileTree(QueryMarkedAncestor(3, 1, 2));
  std::istringstream in(out.str(), std::ios::binary);
  std::string error;
  EXPECT_EQ(cache.WarmStart(in, &error), 2u) << error;
  QueryCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.canonical_hits, 1u);

  EXPECT_EQ(cache.CompileTree(QueryMarkedAncestor(3, 1, 2)).get(), live.get());
  const uint64_t source_hits = cache.stats().source_hits;
  cache.CompileTree(QuerySelectLabel(3, 1));
  s = cache.stats();
  EXPECT_EQ(s.source_hits, source_hits + 1);
  EXPECT_EQ(s.translations, 1u) << "only the live query was ever compiled";
}

// ---- Golden fixture ----

TEST(Serialize, GoldenFixtureStaysLoadable) {
  const std::string path =
      std::string(TREENUM_TEST_DATA_DIR) + "/compiled_select_label_v1.bin";
  const HomogenizedTva expected = CompileTree(QuerySelectLabel(3, 1));

  if (std::getenv("TREENUM_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(SaveCompiled(expected, out));
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path;
  HomogenizedTva loaded;
  std::string error;
  ASSERT_TRUE(LoadCompiled(in, &loaded, &error)) << error;
  EXPECT_EQ(PlanBytes(expected), PlanBytes(loaded))
      << "byte format or canonical form drifted from the checked-in fixture";
  EXPECT_EQ(Serialized(expected),
            Serialized(loaded));
}

// Pins the whole-cache image format: a cache holding one tree and one word
// query (one source each, so the order of sources in the image is fixed)
// saves exactly the checked-in bytes, and warm-starting them serves both
// queries without compiling.
TEST(Serialize, GoldenCacheImageStaysByteIdentical) {
  const std::string path =
      std::string(TREENUM_TEST_DATA_DIR) + "/cache_image_v1.bin";
  const UnrankedTva tree_query = QuerySelectLabel(3, 1);
  const Wva word_query = CompileRegexSpanner("a*<0:b>.*", 3, 1);
  QueryCache cache;
  cache.CompileTree(tree_query);
  cache.CompileWord(word_query);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(cache.SaveCache(out));
  const std::string image = out.str();

  if (std::getenv("TREENUM_REGEN_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.write(image.data(),
                           static_cast<std::streamsize>(image.size())));
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file) << "missing golden fixture " << path;
  const std::string golden((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(image, golden)
      << "cache image bytes drifted from the checked-in fixture";

  QueryCache warmed;
  std::istringstream in(golden, std::ios::binary);
  std::string error;
  EXPECT_EQ(warmed.WarmStart(in, &error), 2u) << error;
  warmed.CompileTree(tree_query);
  warmed.CompileWord(word_query);
  const QueryCache::Stats s = warmed.stats();
  EXPECT_EQ(s.translations, 0u);
  EXPECT_EQ(s.source_hits, 2u);
}

}  // namespace
}  // namespace treenum
