#ifndef MPPDB_RUNTIME_SPILL_SPILL_FILE_H_
#define MPPDB_RUNTIME_SPILL_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/row.h"

namespace mppdb {

/// One temporary file holding serialized row batches. Created through a
/// SpillFileManager; the file is unlinked when the SpillFile is destroyed,
/// so every control-flow path — success, cancellation, deadline expiry,
/// injected fault, retry teardown — reclaims the bytes as the owning
/// operator's state unwinds. Not thread-safe: each spill partition file is
/// written and read by one operator at a time.
///
/// I/O failures surface Status::Internal: a bad spill disk is an
/// environment fault, not a retriable query condition. Fault-injection
/// checks ("spill.open"/"spill.write"/"spill.read") live in the executor,
/// which consults FaultInjector and the QueryContext before each call here.
class SpillFile {
 public:
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Serializes `count` rows as one framed batch and appends it to the file:
  /// rows[order[i]] for i < count when `order` is given (a sort run writes
  /// straight from its permutation), else rows[0, count). Returns the number
  /// of bytes written (frame header included).
  Result<size_t> WriteBatch(const Row* rows, size_t count,
                            const uint32_t* order = nullptr);

  /// Flushes buffered writes and repositions to the start for reading.
  Status Rewind();

  /// Reads the next framed batch, appending its rows to `rows`. Returns the
  /// number of bytes read, or 0 at end-of-file.
  Result<size_t> ReadBatch(std::vector<Row>* rows);

  /// Rows written so far (frame counts summed).
  size_t num_rows() const { return num_rows_; }

  /// Bytes written so far.
  size_t bytes_written() const { return bytes_written_; }

  const std::string& path() const { return path_; }

 private:
  friend class SpillFileManager;
  SpillFile(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  std::string path_;
  std::FILE* file_ = nullptr;
  size_t num_rows_ = 0;
  size_t bytes_written_ = 0;
  std::string scratch_;  // reused encode/decode buffer
};

/// Owns a per-query spill directory. The directory is created lazily on the
/// first SpillFile (queries that never spill touch no filesystem state),
/// named uniquely per manager instance, and removed — with any stray
/// contents — by RemoveAll() or the destructor. Create() is thread-safe so
/// parallel segments can spill concurrently.
class SpillFileManager {
 public:
  /// Files go under `base_dir`, or std::filesystem::temp_directory_path()
  /// when empty.
  explicit SpillFileManager(std::string base_dir = "");
  ~SpillFileManager();

  SpillFileManager(const SpillFileManager&) = delete;
  SpillFileManager& operator=(const SpillFileManager&) = delete;

  /// Creates and opens a fresh spill file.
  Result<std::unique_ptr<SpillFile>> Create();

  /// Removes the spill directory and anything left in it. Idempotent.
  void RemoveAll();

 private:
  std::mutex mu_;
  std::string base_dir_;
  std::string dir_;  // empty until the first Create()
  uint64_t next_id_ = 0;
};

}  // namespace mppdb

#endif  // MPPDB_RUNTIME_SPILL_SPILL_FILE_H_
