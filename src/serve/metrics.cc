#include "serve/metrics.h"

#include <cstdio>

namespace sky::serve {

namespace {

void AppendKey(std::string* out, const char* key) {
  out->push_back('"');
  out->append(key);
  out->append("\": ");
}

void AppendF64(std::string* out, const char* key, double v) {
  char buf[64];
  // %.17g: shortest text that round-trips an IEEE-754 double exactly.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  AppendKey(out, key);
  out->append(buf);
}

void AppendU64(std::string* out, const char* key, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  AppendKey(out, key);
  out->append(buf);
}

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out->push_back('\\');
      out->push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(ch)));
      out->append(buf);
    } else {
      out->push_back(ch);
    }
  }
  out->push_back('"');
}

void AppendString(std::string* out, const char* key, const std::string& v) {
  AppendKey(out, key);
  AppendEscaped(out, v);
}

void AppendSessionObject(std::string* out, const SessionRecord& rec) {
  out->append("{");
  AppendU64(out, "id", rec.id);
  out->append(", ");
  AppendString(out, "workload", rec.spec.workload);
  out->append(", ");
  AppendString(out, "state", SessionStateName(rec.state));
  out->append(", ");
  AppendU64(out, "stream_index", rec.stream_index);
  if (rec.state == SessionState::kFailed) {
    out->append(", ");
    AppendString(out, "error", rec.error.ToString());
  }
  if (rec.state == SessionState::kDone) {
    const core::EngineResult& r = rec.result;
    out->append(", ");
    AppendF64(out, "total_quality", r.total_quality);
    out->append(", ");
    AppendF64(out, "mean_quality", r.mean_quality);
    out->append(", ");
    AppendU64(out, "segments", r.segments);
    out->append(", ");
    AppendF64(out, "work_core_seconds", r.work_core_seconds);
    out->append(", ");
    AppendF64(out, "onprem_core_seconds", r.onprem_core_seconds);
    out->append(", ");
    AppendF64(out, "cloud_usd", r.cloud_usd);
    out->append(", ");
    AppendU64(out, "buffer_high_water_bytes", r.buffer_high_water_bytes);
    out->append(", ");
    AppendU64(out, "overflow_events", r.overflow_events);
    out->append(", ");
    AppendU64(out, "switch_count", r.switch_count);
    out->append(", ");
    AppendU64(out, "degraded_count", r.degraded_count);
    out->append(", ");
    AppendU64(out, "misclassified", r.misclassified);
    out->append(", ");
    AppendU64(out, "type_a_errors", r.type_a_errors);
    out->append(", ");
    AppendU64(out, "type_b_errors", r.type_b_errors);
    out->append(", ");
    AppendU64(out, "cloud_failures", r.cloud_failures);
    out->append(", ");
    AppendU64(out, "cloud_retries", r.cloud_retries);
    out->append(", ");
    AppendU64(out, "cloud_giveups", r.cloud_giveups);
    out->append(", ");
    AppendF64(out, "fault_backoff_s", r.fault_backoff_s);
    out->append(", ");
    AppendU64(out, "outage_segments", r.outage_segments);
    out->append(", ");
    AppendU64(out, "outage_intervals", r.outage_intervals);
    out->append(", ");
    AppendU64(out, "udf_stall_segments", r.udf_stall_segments);
    out->append(", ");
    AppendU64(out, "trace_points", r.trace.size());
  }
  out->append("}");
}

}  // namespace

std::string RenderMetricsJson(const ServerMetrics& m) {
  static const std::vector<SessionRecord> kNone;
  const std::vector<SessionRecord>& sessions =
      m.sessions != nullptr ? *m.sessions : kNone;
  uint64_t running = 0, done = 0, failed = 0;
  for (const SessionRecord& rec : sessions) {
    switch (rec.state) {
      case SessionState::kRunning: ++running; break;
      case SessionState::kDone: ++done; break;
      case SessionState::kFailed: ++failed; break;
    }
  }
  std::string out;
  out.reserve(512 + sessions.size() * 256);
  out.append("{\n  ");
  AppendF64(&out, "uptime_s", m.uptime_s);
  out.append(",\n  ");
  AppendU64(&out, "sessions_accepted", m.sessions_accepted);
  out.append(",\n  ");
  AppendU64(&out, "sessions_rejected", m.sessions_rejected);
  out.append(",\n  ");
  AppendU64(&out, "sessions_running", running);
  out.append(",\n  ");
  AppendU64(&out, "sessions_done", done);
  out.append(",\n  ");
  AppendU64(&out, "sessions_failed", failed);
  out.append(",\n  ");
  AppendU64(&out, "boundaries_planned", m.boundaries_planned);
  out.append(",\n  ");
  AppendF64(&out, "boundary_p50_ms", m.boundary_p50_ms);
  out.append(",\n  ");
  AppendF64(&out, "boundary_p99_ms", m.boundary_p99_ms);
  out.append(",\n  ");
  AppendF64(&out, "shared_budget_core_s_per_video_s",
            m.shared_budget_core_s_per_video_s);
  out.append(",\n  ");
  AppendF64(&out, "cheapest_fleet_cost_core_s_per_video_s",
            m.cheapest_fleet_cost_core_s_per_video_s);
  out.append(",\n  ");
  AppendU64(&out, "fleet_restarts", m.fleet_restarts);
  out.append(",\n  ");
  AppendU64(&out, "checkpoints_written", m.checkpoints_written);
  out.append(",\n  ");
  AppendU64(&out, "checkpoint_failures", m.checkpoint_failures);
  out.append(",\n  ");
  AppendString(&out, "last_checkpoint_error", m.last_checkpoint_error);
  out.append(",\n  ");
  AppendKey(&out, "sessions");
  out.append("[");
  for (size_t i = 0; i < sessions.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendSessionObject(&out, sessions[i]);
  }
  out.append("]\n}\n");
  return out;
}

}  // namespace sky::serve
