#include "io/atomic_file.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace sky::io {

namespace {
// Atomic: a CheckpointWriter's thread reads it.
std::atomic<AtomicWriteFaultHook> g_fault_hook{nullptr};
}  // namespace

void SetAtomicWriteFaultHookForTest(AtomicWriteFaultHook hook) {
  g_fault_hook.store(hook);
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  // The temporary must live in the target's directory: rename(2) is only
  // atomic within one filesystem.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + tmp + " for writing");
  }
  auto fail = [&](const std::string& what) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::Internal(what + " " + tmp);
  };
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    return fail("short write to");
  }
  if (std::fflush(f) != 0) {
    return fail("flush failed for");
  }
#ifndef _WIN32
  // Push the bytes to stable storage BEFORE the rename becomes visible;
  // otherwise a power loss could publish a zero-length file.
  if (fsync(fileno(f)) != 0) {
    return fail("fsync failed for");
  }
#endif
  if (AtomicWriteFaultHook hook = g_fault_hook.load(); hook != nullptr) {
    Status injected = hook(tmp);
    if (!injected.ok()) {
      std::fclose(f);
      std::remove(tmp.c_str());
      return injected;
    }
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("close failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // The thread writes what is pending before it sees stop_.
  if (thread_.joinable()) thread_.join();
}

wire::Writer* CheckpointWriter::Begin() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !pending_; });
  writer_.Reset();
  return &writer_;
}

void CheckpointWriter::Submit(std::string path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = std::move(path);
    pending_ = true;
    if (!thread_.joinable()) thread_ = std::thread([this] { Loop(); });
  }
  cv_.notify_all();
}

void CheckpointWriter::Fail(const Status& error) {
  std::lock_guard<std::mutex> lock(mu_);
  Record(error);
}

Status CheckpointWriter::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !pending_; });
  return last_;
}

CheckpointWriter::Stats CheckpointWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CheckpointWriter::Record(const Status& outcome) {
  last_ = outcome;
  if (outcome.ok()) {
    ++stats_.written;
  } else {
    ++stats_.failed;
    stats_.last_error = outcome;
  }
}

void CheckpointWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return pending_ || stop_; });
    if (!pending_) return;
    // The buffer and path are the thread's until pending_ clears, so the
    // checksum sweep and the disk run without the lock: stats() readers
    // are never held up by them.
    lock.unlock();
    Status written;
    try {
      writer_.Finish();
      written = AtomicWriteFile(path_, buffer_);
    } catch (const std::exception& e) {  // bad_alloc must not end the process
      written = Status::Internal(std::string("checkpoint write failed: ") +
                                 e.what());
    }
    lock.lock();
    Record(written);
    pending_ = false;
    cv_.notify_all();
  }
}

}  // namespace sky::io
