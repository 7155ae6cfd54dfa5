#ifndef SKYSCRAPER_IO_CHECKPOINT_IO_H_
#define SKYSCRAPER_IO_CHECKPOINT_IO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "io/wire.h"
#include "util/result.h"

namespace sky::io {

/// Version of the on-disk checkpoint format this build writes (and the only
/// one it reads — same versioning policy as the model format: bump on any
/// layout change, readers reject unknown versions rather than guessing).
inline constexpr uint32_t kCheckpointFormatVersion = 1;

/// Serializes a full engine session snapshot (core::IngestState) to bytes.
/// Doubles are raw IEEE-754 and the measurement RNG state is exact, so a
/// deserialize + IngestionEngine::Restore resumes the run bitwise — the
/// continuation is indistinguishable from never having stopped, including
/// the trace. The offline model is NOT embedded (checkpoints stay small);
/// deserialization borrows category/profile tables from the model the
/// engine already holds.
Status SerializeIngestState(const core::IngestState& state, std::string* out);

/// The same record appended through `w` (its trailing checksum covers only
/// the record and is filled by w->Finish()) — how a fleet checkpoint embeds
/// a live engine's state in place.
Status AppendIngestState(const core::IngestState& state, wire::Writer* w);

/// Parses bytes written by SerializeIngestState against `model` — which must
/// be the model of the engine the state will be restored into (bitwise the
/// same one that took the checkpoint, or the resumed run diverges).
/// Corrupted or truncated input, or a state inconsistent with the model's
/// shapes, yields an error — never a partially filled state.
Result<core::IngestState> DeserializeIngestState(
    const std::string& bytes, const core::OfflineModel& model);

/// Appends one EngineResult — every counter, every fault field, the full
/// trace, doubles as raw IEEE-754 — so round trips are bitwise. Shared by
/// engine checkpoints and the serve protocol's result frames (one layout,
/// two transports; they must never drift).
void AppendEngineResult(const core::EngineResult& r, std::string* out);

/// Parses a payload written by AppendEngineResult.
Status ParseEngineResult(wire::Cursor* c, core::EngineResult* r);

/// One stream's entry in a fleet checkpoint: its quarantine status and (for
/// streams that have started) the serialized engine state.
struct StreamCheckpoint {
  Status status;
  bool has_state = false;
  std::string state;  ///< SerializeIngestState bytes when has_state
};

/// A crash-consistent snapshot of an entire StreamSet, taken at a lockstep
/// plan boundary so every stream is at the same virtual time.
struct FleetCheckpoint {
  std::vector<StreamCheckpoint> streams;
};

/// One stream as the fleet checkpoint writer reads it: its status, its
/// has-state flag, and its engine state — either live (serialized in place,
/// never copied) or as bytes already serialized by SerializeIngestState
/// (written verbatim whatever the flag says, as a parsed file holds them).
/// Both null: an empty state.
struct StreamCheckpointSource {
  const Status* status = nullptr;
  bool has_state = false;
  const core::IngestState* live_state = nullptr;
  const std::string* state_bytes = nullptr;
};

/// The fleet checkpoint layout, written once: appends a whole fleet
/// container through `w` — the chunked, checksummed wire format (magic
/// SKYCKPT1, versioned header, META, one STRM chunk per stream, FNV-1a
/// trailer) — with `stream(v)` supplying stream v. The serve checkpoint
/// embeds the container in its own FLEE chunk through the same writer, so
/// the fleet layout has exactly one definition. The bytes are valid once
/// the caller's w->Finish() has run.
Status AppendFleetCheckpoint(
    size_t num_streams,
    const std::function<StreamCheckpointSource(size_t)>& stream,
    wire::Writer* w);

/// Renders a parsed (or hand-built) fleet checkpoint to bytes through
/// AppendFleetCheckpoint: identical bytes to the live writer's.
Status SerializeFleetCheckpoint(const FleetCheckpoint& ckpt,
                                std::string* out);

/// Parses bytes produced by SerializeFleetCheckpoint. kInvalidArgument for
/// corrupt, truncated, or wrong-version contents (the checksum is verified
/// before anything is parsed).
Result<FleetCheckpoint> ParseFleetCheckpoint(const std::string& bytes);

/// Reads a checkpoint file (StreamSet::SaveCheckpoint). kNotFound for a
/// missing file; kInvalidArgument for corrupt, truncated, or wrong-version
/// contents.
Result<FleetCheckpoint> LoadFleetCheckpoint(const std::string& path);

}  // namespace sky::io

#endif  // SKYSCRAPER_IO_CHECKPOINT_IO_H_
