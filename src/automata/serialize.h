// Binary serialization of automata (libfive's `serialize` idiom).
//
// Compiled plans (canonical HomogenizedTva) and their pre-translation
// sources (UnrankedTva / Wva) are written as self-delimiting *records*:
//
//   magic "TNQA" | u32 version | u32 endian mark | u8 kind |
//   u64 payload length | payload bytes | u64 FNV-1a checksum of payload
//
// Every multi-byte integer — in the header and in payloads — is written
// little-endian with explicit byte shifts, so records are byte-identical
// across hosts; the endian mark (0x01020304) and version are rejected on
// mismatch rather than silently reinterpreted. Readers are fully bounds-
// checked: truncated, oversized or corrupted input yields a clean failure
// (false + error string), never undefined behavior — asserted under ASan
// by tests/serialize_test.cpp, with a golden fixture in tests/data/
// pinning the byte format.
//
// The process-wide QueryCache (automata/query_cache.h) composes these
// primitives into whole-cache images (SaveCache / WarmStart).
#ifndef TREENUM_AUTOMATA_SERIALIZE_H_
#define TREENUM_AUTOMATA_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "automata/homogenize.h"
#include "automata/unranked_tva.h"
#include "automata/wva.h"

namespace treenum {
namespace serialize {

/// Format version stamped into every record header; readers reject any
/// other value.
inline constexpr uint32_t kFormatVersion = 1;

/// Endianness canary stamped into every record header (always written as
/// the little-endian byte sequence 04 03 02 01); a reader that decodes a
/// different value is looking at a foreign or corrupted byte order.
inline constexpr uint32_t kEndianMark = 0x01020304u;

/// Record kinds (the u8 tag after the header).
enum class RecordKind : uint8_t {
  kHomogenizedTva = 1,  ///< A compiled (homogenized, canonical) plan.
  kUnrankedTva = 2,     ///< A pre-translation tree query.
  kWva = 3,             ///< A pre-translation word query (spanner).
  kCacheImage = 4,      ///< A whole QueryCache image (see query_cache.h).
};

/// Append-only little-endian byte buffer used to build record payloads.
class ByteWriter {
 public:
  /// Appends one byte.
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  /// Appends `v` as 4 little-endian bytes.
  void PutU32(uint32_t v);
  /// Appends `v` as 8 little-endian bytes.
  void PutU64(uint64_t v);
  /// Appends `bytes` verbatim.
  void PutBytes(const std::string& bytes) { buf_ += bytes; }
  /// The bytes written so far.
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader over a payload. Every getter
/// returns false (and reads nothing) once the input is exhausted, so
/// parsing truncated or corrupted payloads fails cleanly.
class ByteReader {
 public:
  /// Reads from `data[0, size)`; the buffer must outlive the reader.
  ByteReader(const char* data, size_t size) : p_(data), end_(data + size) {}
  /// Reads one byte into `*v`.
  bool GetU8(uint8_t* v);
  /// Reads 4 little-endian bytes into `*v`.
  bool GetU32(uint32_t* v);
  /// Reads 8 little-endian bytes into `*v`.
  bool GetU64(uint64_t* v);
  /// Bytes not yet consumed.
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const char* p_;
  const char* end_;
};

// ---- Payload codecs (no record framing) ----
// Append* writes the automaton body into `w`; Parse* is the bounds- and
// range-checked inverse (false + `*error` on malformed input). These are
// the building blocks the whole-cache image uses to nest many automata
// inside one checksummed record.

/// Appends the body of a compiled plan (sizes, kind vector, ι, δ, F).
void AppendHomogenizedTva(const HomogenizedTva& a, ByteWriter* w);
/// Parses a compiled-plan body; validates every state/label/var index.
bool ParseHomogenizedTva(ByteReader* r, HomogenizedTva* out,
                         std::string* error);
/// Appends the body of an unranked stepwise tree query.
void AppendUnrankedTva(const UnrankedTva& a, ByteWriter* w);
/// Parses an unranked-tree-query body with full index validation.
bool ParseUnrankedTva(ByteReader* r, UnrankedTva* out, std::string* error);
/// Appends the body of a word query (WVA / spanner).
void AppendWva(const Wva& a, ByteWriter* w);
/// Parses a word-query body with full index validation.
bool ParseWva(ByteReader* r, Wva* out, std::string* error);

// ---- Record framing ----

/// Writes one framed record (header, payload, checksum) to `out`.
/// Returns false iff the stream write fails.
bool WriteRecord(RecordKind kind, const std::string& payload,
                 std::ostream& out);

/// Reads one framed record from `in`: rejects bad magic, unknown version,
/// foreign endianness, truncation and checksum mismatch. On success fills
/// `*kind` and `*payload`.
bool ReadRecord(std::istream& in, RecordKind* kind, std::string* payload,
                std::string* error);

}  // namespace serialize

// ---- Compiled-plan convenience wrappers (the libfive-style surface) ----

/// Serializes one compiled plan as a single framed record.
bool SaveCompiled(const HomogenizedTva& a, std::ostream& out);

/// Deserializes one compiled plan written by SaveCompiled. Returns false
/// (with `*error` describing why, when non-null) on any malformed input —
/// wrong header, truncation, checksum mismatch, or out-of-range indices —
/// without invoking undefined behavior.
bool LoadCompiled(std::istream& in, HomogenizedTva* out,
                  std::string* error = nullptr);

}  // namespace treenum

#endif  // TREENUM_AUTOMATA_SERIALIZE_H_
