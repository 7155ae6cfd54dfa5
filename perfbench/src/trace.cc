#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "json.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t TraceRecorder::Begin(const std::string& name, int track,
                             int64_t parent, int64_t stream) {
  int64_t now = NowNs();
  return Add(name, now, now, track, parent, stream);
}

void TraceRecorder::End(int64_t id) {
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t TraceRecorder::Add(const std::string& name, int64_t start_ns,
                           int64_t end_ns, int track, int64_t parent,
                           int64_t stream) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, track, stream});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void TraceRecorder::NameTrack(int track, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  track_names_.emplace(track, name);
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool TraceRecorder::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& [track, name] : track_names_) {
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": %s}}",
                 first ? "" : ",\n", track, JsonQuote(name).c_str());
    first = false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"ph\": \"X\", \"name\": %s, \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"stream\": %lld}}",
                 first ? "" : ",\n", JsonQuote(s.name).c_str(), s.track,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.stream));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(TraceRecorder* rec, const std::string& name,
                       int64_t parent, int64_t stream)
    : rec_(rec),
      id_(rec == nullptr ? -1 : rec->Begin(name, 0, parent, stream)),
      start_ns_(NowNs()) {}

int64_t ScopedSpan::Stop() {
  if (end_ns_ < 0) {
    end_ns_ = NowNs();
    if (rec_ != nullptr) rec_->End(id_);
  }
  return end_ns_ - start_ns_;
}

}  // namespace perfbench
