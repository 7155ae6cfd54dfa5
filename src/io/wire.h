#ifndef SKYSCRAPER_IO_WIRE_H_
#define SKYSCRAPER_IO_WIRE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "util/result.h"
#include "util/status.h"

namespace sky::io::wire {

/// Shared primitives of every Skyscraper on-disk format (models, fleet
/// checkpoints, serve checkpoints): raw little writers, the bounds-checked
/// Cursor reader, the FNV-1a integrity hash, the checksummed chunk
/// container, the Status codec, and the forecaster payload. The byte layout
/// lives in docs/model_format.md ("Shared container"); each file format
/// keeps only its own magic, version, chunk tags and chunk bodies on top of
/// these.

/// FNV-1a 64-bit over a byte range — cheap, dependency-free integrity check
/// (this guards against truncation and bit rot, not adversaries).
uint64_t Fnv1a64(const char* data, size_t n);

// --- Little writer ---------------------------------------------------------

void PutRaw(std::string* out, const void* data, size_t n);
void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutF64(std::string* out, double v);
void PutBool(std::string* out, bool v);
void PutU64Vec(std::string* out, const std::vector<size_t>& v);
void PutF64Vec(std::string* out, const std::vector<double>& v);

/// k rows of equal width, stored as (rows, cols, row-major payload).
Status PutF64Rows(std::string* out,
                  const std::vector<std::vector<double>>& rows);

void PutString(std::string* out, const std::string& s);

/// Appends one tagged chunk: 4-byte tag, u64 payload size, payload.
void PutChunk(std::string* out, const char tag[4], const std::string& payload);

bool TagIs(const char tag[4], const char expected[4]);

// --- Bounds-checked reader -------------------------------------------------

/// Sequential reader over serialized bytes. Every accessor checks the
/// remaining length first, so truncated or corrupted input surfaces as an
/// error Status instead of an out-of-bounds read.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), end_(size) {}

  size_t remaining() const { return end_ - pos_; }
  size_t pos() const { return pos_; }

  Status Read(void* out, size_t n);
  Status Skip(size_t n);

  Status ReadU8(uint8_t* v) { return Read(v, 1); }
  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  Status ReadI64(int64_t* v);
  Status ReadF64(double* v) { return Read(v, sizeof(*v)); }

  /// Reads a PutBool byte; anything but 0/1 is corruption, not a flag.
  Status ReadBool(bool* v);

  /// Reads a u64 count that the payload must still be able to satisfy at
  /// `elem_bytes` per element — rejects absurd counts from corrupt input
  /// before any allocation is attempted.
  Status ReadCount(size_t elem_bytes, uint64_t* count);

  Status ReadU64Vec(std::vector<size_t>* v);
  Status ReadF64Vec(std::vector<double>* v);
  Status ReadF64Rows(std::vector<std::vector<double>>* rows);
  Status ReadString(std::string* s);

 private:
  const char* data_;
  size_t pos_ = 0;
  size_t end_;
};

// --- Chunked container -----------------------------------------------------

/// Identity of one container format: an 8-byte magic, the only version this
/// build reads and writes, and a noun for error messages ("model file").
struct ContainerFormat {
  const char* magic;
  uint32_t version;
  const char* what;
};

/// The one writer of every container: bytes go straight into one buffer,
/// in a single pass. Chunk and string sizes are placeholders patched when
/// they end, so payloads — whole nested containers included — are never
/// built apart and copied in. Checksums (each container's CSUM trailer,
/// and record checksums such as an engine state's) are placeholders too;
/// Finish() fills them all in one interleaved FNV-1a pass, so a container
/// nested three deep costs one pass over its bytes, not three. The bytes
/// are exactly those of building each payload apart and checksumming it on
/// its own. A caller that reuses its buffer (clear() keeps the capacity)
/// writes every later checkpoint without growing it.
///
///   wire::Writer w(&buffer);              // appends after buffer's bytes
///   size_t c = w.BeginContainer(kFormat);
///   size_t k = w.BeginChunk(kTag);  PutU64(w.out(), 7);  w.EndChunk(k);
///   w.EndContainer(c);
///   w.Finish();                           // nothing is valid before this
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// The buffer, for the Put* writers.
  std::string* out() const { return out_; }

  /// Appends the 16-byte header — magic, version, and the native-endian
  /// marker a reader of the other byte order rejects — and returns the
  /// container's start offset, for EndContainer.
  size_t BeginContainer(const ContainerFormat& format);
  /// Appends the trailing CSUM chunk over the container begun at `start`.
  void EndContainer(size_t start);

  /// Appends a chunk's tag and size placeholder and returns the
  /// placeholder's offset; EndChunk patches in the payload size since.
  size_t BeginChunk(const char tag[4]);
  void EndChunk(size_t at);

  /// The same for a PutString-shaped field: its u64 length placeholder,
  /// then the length of whatever was appended after it.
  size_t BeginString();
  void EndString(size_t at);

  /// Appends a u64 placeholder for the FNV-1a-64 of out()[begin, here).
  void PutChecksum(size_t begin);

  /// Fills every checksum placeholder. Call once, after the last byte.
  void Finish();

  /// Empties the buffer and drops any unfinished checksum placeholders,
  /// keeping both capacities: the start of the next reused checkpoint.
  void Reset();

 private:
  /// The FNV-1a-64 of out_[begin, end), to be stored at out_[at], at >= end.
  struct Slot {
    size_t begin;
    size_t end;
    size_t at;
  };
  std::string* out_;
  std::vector<Slot> slots_;
};

/// Receives one chunk's tag and a cursor over exactly its payload.
using ChunkFn = std::function<Status(const char* tag, Cursor* payload)>;

/// Checks the header against `format`, then verifies the CSUM trailer over
/// the whole container before any chunk is parsed, then hands every chunk
/// in file order to `chunk_fn`. A payload the callback leaves unconsumed is
/// refused, as is a CSUM that is not the last chunk or a chunk running past
/// the end. Every failure is kInvalidArgument; the callback owns unknown
/// tags and its format's duplicate, required and ordering rules.
Status ReadContainer(const std::string& bytes, const ContainerFormat& format,
                     const ChunkFn& chunk_fn);

/// Reads a whole file. kNotFound if it cannot be opened, kInternal on a
/// read error; `what` names the file in the message.
Result<std::string> ReadFile(const std::string& path, const std::string& what);

// --- Status codec ----------------------------------------------------------

/// Appends a Status as u32 code + message string (empty when OK).
void PutStatus(std::string* out, const Status& status);

/// Parses a PutStatus payload; an unknown code is kInvalidArgument.
Status ReadStatus(Cursor* c, Status* status);

// --- Forecaster payload ----------------------------------------------------

/// Appends a self-contained forecaster payload (presence flag, options,
/// train report, net snapshot incl. Adam moments). Shared between the model
/// FCST chunk and engine checkpoints so the two formats cannot drift; round
/// trips are bitwise (online fine-tuning resumes identically).
void AppendForecaster(const std::optional<core::Forecaster>& forecaster,
                      std::string* out);

/// Parses a payload written by AppendForecaster.
Status ParseForecaster(Cursor* c, std::optional<core::Forecaster>* out);

}  // namespace sky::io::wire

#endif  // SKYSCRAPER_IO_WIRE_H_
