#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// One timed span: a call into a layer, or a stretch of work read from the
/// seam decorators' stamps. Times are NowNs() values.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  int track = 0;        ///< Perfetto thread row (0 = main thread)
  int64_t stream = -1;  ///< stream or session id, -1 when not per-stream
};

/// Spans kept in memory for the whole traced run and written once at the
/// end as Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) and
/// chrome://tracing open. Recording takes a lock: spans are coarse (one per
/// layer call at plan-interval or request granularity), never per segment.
class TraceRecorder {
 public:
  /// Opens a span now and returns its index, usable as a parent before the
  /// span ends.
  int64_t Begin(const std::string& name, int track = 0, int64_t parent = -1,
                int64_t stream = -1);
  /// Closes span `id` now.
  void End(int64_t id);

  /// Records a finished span and returns its index.
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int track = 0, int64_t parent = -1, int64_t stream = -1);

  /// Names a Perfetto thread row (the first name given to a row wins).
  void NameTrack(int track, const std::string& name);

  size_t size() const;

  /// Writes the trace to `path`; false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<int, std::string> track_names_;
};

/// Times the enclosing scope, into a recorder when one is given (a null
/// recorder only measures).
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* rec, const std::string& name, int64_t parent = -1,
             int64_t stream = -1);
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent) and returns its duration in ns.
  int64_t Stop();
  /// Index of this span in the recorder; -1 with a null recorder.
  int64_t id() const { return id_; }

 private:
  TraceRecorder* rec_;
  int64_t id_ = -1;
  int64_t start_ns_;
  int64_t end_ns_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
