#include "io/checkpoint_io.h"

#include <cstring>
#include <utility>

#include "io/wire.h"

namespace sky::io {

namespace {

using wire::Cursor;
using wire::Fnv1a64;
using wire::PutF64;
using wire::PutF64Rows;
using wire::PutF64Vec;
using wire::PutI64;
using wire::PutRaw;
using wire::PutString;
using wire::PutU32;
using wire::PutU64;
using wire::PutU64Vec;
using wire::PutU8;
using wire::TagIs;

constexpr wire::ContainerFormat kFormat = {
    "SKYCKPT1", kCheckpointFormatVersion, "checkpoint file"};

constexpr char kChunkMeta[4] = {'M', 'E', 'T', 'A'};
constexpr char kChunkStream[4] = {'S', 'T', 'R', 'M'};

}  // namespace

void AppendEngineResult(const core::EngineResult& r, std::string* p) {
  PutF64(p, r.total_quality);
  PutF64(p, r.mean_quality);
  PutU64(p, r.segments);
  PutF64(p, r.work_core_seconds);
  PutF64(p, r.onprem_core_seconds);
  PutF64(p, r.cloud_usd);
  PutU64(p, r.buffer_high_water_bytes);
  PutU64(p, r.overflow_events);
  PutU64(p, r.switch_count);
  PutU64(p, r.degraded_count);
  PutU64(p, r.misclassified);
  PutU64(p, r.type_a_errors);
  PutU64(p, r.type_b_errors);
  PutU64(p, r.cloud_failures);
  PutU64(p, r.cloud_retries);
  PutU64(p, r.cloud_giveups);
  PutF64(p, r.fault_backoff_s);
  PutU64(p, r.outage_segments);
  PutU64(p, r.outage_intervals);
  PutU64(p, r.udf_stall_segments);
  PutU64(p, r.trace.size());
  for (const core::TracePoint& t : r.trace) {
    PutF64(p, t.t);
    PutF64(p, t.quality);
    PutF64(p, t.work_core_s_per_s);
    PutF64(p, t.buffer_bytes);
    PutF64(p, t.cloud_usd_cumulative);
    PutF64(p, t.cloud_usd_planned);
    PutU64(p, t.config_idx);
    PutU64(p, t.category);
  }
}

Status ParseEngineResult(Cursor* c, core::EngineResult* r) {
  uint64_t u = 0;
  SKY_RETURN_NOT_OK(c->ReadF64(&r->total_quality));
  SKY_RETURN_NOT_OK(c->ReadF64(&r->mean_quality));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->segments = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&r->work_core_seconds));
  SKY_RETURN_NOT_OK(c->ReadF64(&r->onprem_core_seconds));
  SKY_RETURN_NOT_OK(c->ReadF64(&r->cloud_usd));
  SKY_RETURN_NOT_OK(c->ReadU64(&r->buffer_high_water_bytes));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->overflow_events = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->switch_count = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->degraded_count = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->misclassified = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->type_a_errors = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->type_b_errors = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->cloud_failures = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->cloud_retries = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->cloud_giveups = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&r->fault_backoff_s));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->outage_segments = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->outage_intervals = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  r->udf_stall_segments = u;
  uint64_t trace_n = 0;
  SKY_RETURN_NOT_OK(c->ReadCount(8 * sizeof(double), &trace_n));
  r->trace.resize(trace_n);
  for (core::TracePoint& t : r->trace) {
    SKY_RETURN_NOT_OK(c->ReadF64(&t.t));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.quality));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.work_core_s_per_s));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.buffer_bytes));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.cloud_usd_cumulative));
    SKY_RETURN_NOT_OK(c->ReadF64(&t.cloud_usd_planned));
    SKY_RETURN_NOT_OK(c->ReadU64(&u));
    t.config_idx = u;
    SKY_RETURN_NOT_OK(c->ReadU64(&u));
    t.category = u;
  }
  return Status::Ok();
}

Status SerializeIngestState(const core::IngestState& state, std::string* out) {
  out->clear();
  wire::Writer w(out);
  SKY_RETURN_NOT_OK(AppendIngestState(state, &w));
  w.Finish();
  return Status::Ok();
}

Status AppendIngestState(const core::IngestState& state, wire::Writer* w) {
  std::string* p = w->out();
  const size_t start = p->size();
  PutU32(p, kCheckpointFormatVersion);
  // Buffer capacity first: deserialization needs it to construct the state
  // before any other field can be filled.
  PutU64(p, state.buffer.capacity_bytes());

  PutF64(p, state.start_time);
  PutI64(p, state.first_segment);
  PutI64(p, state.n_segments);
  PutI64(p, state.segs_per_interval);
  PutU64(p, state.history_window);
  PutI64(p, state.next_index);
  PutU64(p, state.interval_index);

  PutString(p, state.noise.SaveState());
  wire::AppendForecaster(state.forecaster, p);

  PutU8(p, state.switcher.plan() != nullptr ? 1 : 0);
  PutU64(p, state.plan.alpha.rows());
  PutU64(p, state.plan.alpha.cols());
  if (!state.plan.alpha.data().empty()) {
    PutRaw(p, state.plan.alpha.data().data(),
           state.plan.alpha.data().size() * sizeof(double));
  }
  PutF64Vec(p, state.plan.forecast);
  PutF64(p, state.plan.expected_quality);
  PutF64(p, state.plan.expected_work);

  PutU8(p, state.boundary_prepared ? 1 : 0);
  PutU8(p, state.boundary_installed ? 1 : 0);
  PutF64Vec(p, state.boundary_forecast);
  PutF64Vec(p, state.plan_features);
  PutF64Vec(p, state.realized);
  PutU64Vec(p, state.history);
  PutU64(p, state.current_config);
  PutF64(p, state.last_measured);

  PutF64(p, state.lag_s);
  PutF64(p, state.buffered_bytes);
  PutU64(p, state.buffer.used_bytes());
  PutU64(p, state.buffer.high_water_bytes());
  PutF64(p, state.credits_remaining);
  PutF64(p, state.planned_usd_per_interval);

  AppendEngineResult(state.result, p);
  PutF64(p, state.next_trace_t);

  // Eq. 6 usage histograms — mid-interval restores must keep alpha-hat.
  Status rows_ok = PutF64Rows(p, state.switcher.usage_counts());
  if (!rows_ok.ok()) return rows_ok;
  PutF64Vec(p, state.switcher.usage_totals());
  // Trailing FNV-1a over everything above: a restored run must never start
  // from silently corrupted state, so bit flips are refused at load time.
  w->PutChecksum(start);
  return Status::Ok();
}

Result<core::IngestState> DeserializeIngestState(
    const std::string& bytes, const core::OfflineModel& model) {
  if (bytes.size() < sizeof(uint32_t) + sizeof(uint64_t)) {
    return Status::InvalidArgument("checkpoint state is truncated");
  }
  // Verify the trailing checksum before trusting any field.
  const size_t payload_size = bytes.size() - sizeof(uint64_t);
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, bytes.data() + payload_size, sizeof(stored_sum));
  if (stored_sum != Fnv1a64(bytes.data(), payload_size)) {
    return Status::InvalidArgument(
        "checkpoint state checksum mismatch (corrupted)");
  }
  Cursor c(bytes.data(), payload_size);
  uint32_t version = 0;
  SKY_RETURN_NOT_OK(c.ReadU32(&version));
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  uint64_t buffer_capacity = 0;
  SKY_RETURN_NOT_OK(c.ReadU64(&buffer_capacity));

  core::IngestState state(&model.categories, &model.profiles, buffer_capacity);

  SKY_RETURN_NOT_OK(c.ReadF64(&state.start_time));
  SKY_RETURN_NOT_OK(c.ReadI64(&state.first_segment));
  SKY_RETURN_NOT_OK(c.ReadI64(&state.n_segments));
  SKY_RETURN_NOT_OK(c.ReadI64(&state.segs_per_interval));
  if (state.segs_per_interval <= 0) {
    return Status::InvalidArgument(
        "checkpoint does not hold a started session");
  }
  uint64_t u = 0;
  SKY_RETURN_NOT_OK(c.ReadU64(&u));
  state.history_window = u;
  SKY_RETURN_NOT_OK(c.ReadI64(&state.next_index));
  SKY_RETURN_NOT_OK(c.ReadU64(&u));
  state.interval_index = u;

  std::string rng_state;
  SKY_RETURN_NOT_OK(c.ReadString(&rng_state));
  SKY_RETURN_NOT_OK(state.noise.LoadState(rng_state));
  SKY_RETURN_NOT_OK(wire::ParseForecaster(&c, &state.forecaster));

  bool has_plan = false;
  SKY_RETURN_NOT_OK(c.ReadBool(&has_plan));
  uint64_t rows = 0, cols = 0;
  SKY_RETURN_NOT_OK(c.ReadU64(&rows));
  SKY_RETURN_NOT_OK(c.ReadU64(&cols));
  if (cols > 0 && rows > c.remaining() / (cols * sizeof(double))) {
    return Status::InvalidArgument("checkpoint declares impossible plan size");
  }
  state.plan.alpha = ml::Matrix(rows, cols, 0.0);
  if (rows * cols > 0) {
    SKY_RETURN_NOT_OK(
        c.Read(state.plan.alpha.data().data(), rows * cols * sizeof(double)));
  }
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&state.plan.forecast));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.plan.expected_quality));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.plan.expected_work));
  if (has_plan &&
      (rows != model.categories.NumCategories() ||
       cols != model.profiles.size())) {
    return Status::InvalidArgument(
        "checkpoint plan shape does not match the model");
  }

  SKY_RETURN_NOT_OK(c.ReadBool(&state.boundary_prepared));
  SKY_RETURN_NOT_OK(c.ReadBool(&state.boundary_installed));
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&state.boundary_forecast));
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&state.plan_features));
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&state.realized));
  SKY_RETURN_NOT_OK(c.ReadU64Vec(&state.history));
  SKY_RETURN_NOT_OK(c.ReadU64(&u));
  if (u >= model.profiles.size()) {
    return Status::InvalidArgument(
        "checkpoint config index out of range for the model");
  }
  state.current_config = u;
  SKY_RETURN_NOT_OK(c.ReadF64(&state.last_measured));

  SKY_RETURN_NOT_OK(c.ReadF64(&state.lag_s));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.buffered_bytes));
  uint64_t buf_used = 0, buf_high = 0;
  SKY_RETURN_NOT_OK(c.ReadU64(&buf_used));
  SKY_RETURN_NOT_OK(c.ReadU64(&buf_high));
  if (buf_used > buffer_capacity) {
    return Status::InvalidArgument("checkpoint buffer fill exceeds capacity");
  }
  state.buffer.RestoreParts(buf_used, buf_high);
  SKY_RETURN_NOT_OK(c.ReadF64(&state.credits_remaining));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.planned_usd_per_interval));

  SKY_RETURN_NOT_OK(ParseEngineResult(&c, &state.result));
  SKY_RETURN_NOT_OK(c.ReadF64(&state.next_trace_t));

  std::vector<std::vector<double>> usage_counts;
  std::vector<double> usage_totals;
  SKY_RETURN_NOT_OK(c.ReadF64Rows(&usage_counts));
  SKY_RETURN_NOT_OK(c.ReadF64Vec(&usage_totals));
  // Install the plan pointer before the histograms: SetPlan resets usage.
  if (has_plan) state.switcher.SetPlan(&state.plan);
  SKY_RETURN_NOT_OK(state.switcher.RestoreUsage(usage_counts, usage_totals));

  if (c.remaining() != 0) {
    return Status::InvalidArgument("checkpoint state has trailing bytes");
  }
  // The return move runs IngestState's move constructor, which rebinds the
  // switcher to the moved plan object.
  return state;
}

Status AppendFleetCheckpoint(
    size_t num_streams,
    const std::function<StreamCheckpointSource(size_t)>& stream,
    wire::Writer* w) {
  std::string* out = w->out();
  const size_t start = w->BeginContainer(kFormat);
  size_t chunk = w->BeginChunk(kChunkMeta);
  PutU64(out, num_streams);
  w->EndChunk(chunk);
  for (size_t v = 0; v < num_streams; ++v) {
    const StreamCheckpointSource src = stream(v);
    chunk = w->BeginChunk(kChunkStream);
    PutU64(out, v);
    wire::PutStatus(out, *src.status);
    PutU8(out, src.has_state ? 1 : 0);
    if (src.live_state != nullptr) {
      const size_t state = w->BeginString();
      SKY_RETURN_NOT_OK(AppendIngestState(*src.live_state, w));
      w->EndString(state);
    } else {
      PutString(out, src.state_bytes != nullptr ? *src.state_bytes
                                                : std::string());
    }
    w->EndChunk(chunk);
  }
  w->EndContainer(start);
  return Status::Ok();
}

Status SerializeFleetCheckpoint(const FleetCheckpoint& ckpt,
                                std::string* out) {
  out->clear();
  wire::Writer w(out);
  SKY_RETURN_NOT_OK(AppendFleetCheckpoint(
      ckpt.streams.size(),
      [&](size_t v) {
        const StreamCheckpoint& sc = ckpt.streams[v];
        StreamCheckpointSource src;
        src.status = &sc.status;
        src.has_state = sc.has_state;
        src.state_bytes = &sc.state;
        return src;
      },
      &w));
  w.Finish();
  return Status::Ok();
}

Result<FleetCheckpoint> ParseFleetCheckpoint(const std::string& bytes) {
  FleetCheckpoint ckpt;
  bool seen_meta = false;
  uint64_t declared_streams = 0;
  SKY_RETURN_NOT_OK(wire::ReadContainer(
      bytes, kFormat, [&](const char* tag, Cursor* payload) {
        if (TagIs(tag, kChunkMeta)) {
          if (seen_meta) {
            return Status::InvalidArgument(
                "duplicate META chunk in checkpoint");
          }
          seen_meta = true;
          SKY_RETURN_NOT_OK(payload->ReadU64(&declared_streams));
          // Each stream needs its own chunk later in the file; a count the
          // file could not possibly hold is corruption, not a big fleet.
          if (declared_streams > bytes.size()) {
            return Status::InvalidArgument(
                "checkpoint declares impossible stream count");
          }
          ckpt.streams.reserve(declared_streams);
          return Status::Ok();
        }
        if (!TagIs(tag, kChunkStream)) {
          return Status::InvalidArgument(
              "unknown chunk tag in checkpoint file");
        }
        if (!seen_meta) {
          return Status::InvalidArgument("checkpoint stream chunk before META");
        }
        uint64_t index = 0;
        SKY_RETURN_NOT_OK(payload->ReadU64(&index));
        if (index != ckpt.streams.size() || index >= declared_streams) {
          return Status::InvalidArgument(
              "checkpoint stream chunks out of order");
        }
        StreamCheckpoint sc;
        SKY_RETURN_NOT_OK(wire::ReadStatus(payload, &sc.status));
        SKY_RETURN_NOT_OK(payload->ReadBool(&sc.has_state));
        SKY_RETURN_NOT_OK(payload->ReadString(&sc.state));
        ckpt.streams.push_back(std::move(sc));
        return Status::Ok();
      }));
  if (!seen_meta) {
    return Status::InvalidArgument("checkpoint file is missing META chunk");
  }
  if (ckpt.streams.size() != declared_streams) {
    return Status::InvalidArgument(
        "checkpoint stream count does not match META");
  }
  return ckpt;
}

Result<FleetCheckpoint> LoadFleetCheckpoint(const std::string& path) {
  SKY_ASSIGN_OR_RETURN(std::string bytes,
                       wire::ReadFile(path, "checkpoint file"));
  return ParseFleetCheckpoint(bytes);
}

}  // namespace sky::io
