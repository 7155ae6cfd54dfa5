#ifndef SKYSCRAPER_IO_ATOMIC_FILE_H_
#define SKYSCRAPER_IO_ATOMIC_FILE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "io/wire.h"
#include "util/status.h"

namespace sky::io {

/// Writes `bytes` to `path` crash-consistently: the bytes land in a
/// temporary file in the same directory (`path` + ".tmp"), are flushed to
/// disk, and only then renamed over `path` — an atomic operation on POSIX
/// filesystems. A crash (or injected failure) at ANY point leaves either the
/// previous contents of `path` or the new ones, never a torn file; a failed
/// write removes the temporary and leaves `path` untouched.
///
/// kNotFound when the temporary cannot be created (missing directory, no
/// permission), kInternal for write/flush/rename failures.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

/// Test-only failure injection for the write path: when set, the hook runs
/// after the temporary file is flushed and before the rename. A non-OK
/// return aborts the save (the temporary is removed, the target untouched) —
/// exactly the window a mid-save crash lands in. Pass nullptr to clear.
/// The hook may run on a CheckpointWriter's thread; install and clear it
/// while no write is in flight.
using AtomicWriteFaultHook = Status (*)(const std::string& tmp_path);
void SetAtomicWriteFaultHookForTest(AtomicWriteFaultHook hook);

/// Writes periodic checkpoint files off the caller's thread. The caller
/// serializes into the writer's one reused buffer (Begin), and Submit hands
/// the bytes to a background thread, which fills their checksums
/// (wire::Writer::Finish) and writes them with AtomicWriteFile. At most one
/// write is in flight: Begin waits for the previous one, so memory stays at
/// one buffer and a slow disk slows the caller instead of queueing. The
/// thread starts on the first Submit.
///
///   wire::Writer* w = writer.Begin();
///   Status s = AppendSomething(w);          // no w->Finish(): the thread does
///   if (s.ok()) writer.Submit(path); else writer.Fail(s);
///
/// Begin, Submit, Fail and Flush belong to one thread at a time (the
/// owner's); stats() may be read from any thread.
class CheckpointWriter {
 public:
  /// Outcomes of every checkpoint handed to the writer so far.
  struct Stats {
    uint64_t written = 0;  ///< writes that reached the disk
    uint64_t failed = 0;   ///< failed writes and Fail() calls
    Status last_error;     ///< the most recent failure (Ok when none)
  };

  CheckpointWriter() = default;
  /// Flushes, then joins the thread.
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Waits for any in-flight write, empties the buffer (keeping its
  /// capacity) and returns the writer to serialize the next checkpoint into.
  wire::Writer* Begin();
  /// Hands the bytes serialized since Begin to the thread, to be finished
  /// and written to `path`. Returns at once.
  void Submit(std::string path);
  /// Records a checkpoint that failed before it could be submitted (its
  /// serialization) as the latest outcome.
  void Fail(const Status& error);
  /// Waits for the in-flight write; returns the outcome of the latest
  /// checkpoint (Ok when there has been none).
  Status Flush();

  Stats stats() const;

 private:
  void Loop();
  void Record(const Status& outcome);  // under mu_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Owned by the caller between Begin and Submit, by the thread while a
  /// write is pending.
  std::string buffer_;
  wire::Writer writer_{&buffer_};
  std::string path_;
  bool pending_ = false;  ///< submitted and not yet written
  bool stop_ = false;
  Status last_;
  Stats stats_;
  std::thread thread_;
};

}  // namespace sky::io

#endif  // SKYSCRAPER_IO_ATOMIC_FILE_H_
