#include "runtime/spill/spill_file.h"

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/macros.h"
#include "runtime/spill/row_codec.h"

namespace mppdb {

namespace {

// Batch frame header: row count + payload byte count, little-endian.
struct BatchHeader {
  uint32_t num_rows = 0;
  uint32_t payload_bytes = 0;
};

}  // namespace

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  if (!path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(path_, ec);  // best effort; dir sweep backs it up
  }
}

Result<size_t> SpillFile::WriteBatch(const Row* rows, size_t count,
                                     const uint32_t* order) {
  EncodeBatchBody(rows, count, order, &scratch_);
  BatchHeader header;
  header.num_rows = static_cast<uint32_t>(count);
  header.payload_bytes = static_cast<uint32_t>(scratch_.size());
  if (std::fwrite(&header, sizeof(header), 1, file_) != 1 ||
      (!scratch_.empty() &&
       std::fwrite(scratch_.data(), 1, scratch_.size(), file_) !=
           scratch_.size())) {
    return Status::Internal("spill write failed for " + path_);
  }
  const size_t bytes = sizeof(header) + scratch_.size();
  num_rows_ += count;
  bytes_written_ += bytes;
  return bytes;
}

Status SpillFile::Rewind() {
  if (std::fflush(file_) != 0) {
    return Status::Internal("spill flush failed for " + path_);
  }
  std::rewind(file_);
  return Status::OK();
}

Result<size_t> SpillFile::ReadBatch(std::vector<Row>* rows) {
  BatchHeader header;
  const size_t got = std::fread(&header, sizeof(header), 1, file_);
  if (got != 1) {
    if (std::feof(file_)) return static_cast<size_t>(0);
    return Status::Internal("spill read failed for " + path_);
  }
  scratch_.resize(header.payload_bytes);
  if (header.payload_bytes > 0 &&
      std::fread(scratch_.data(), 1, scratch_.size(), file_) !=
          scratch_.size()) {
    return Status::Internal("spill read truncated for " + path_);
  }
  MPPDB_RETURN_IF_ERROR(
      DecodeBatchBody(scratch_.data(), scratch_.size(), header.num_rows, rows));
  return sizeof(header) + static_cast<size_t>(header.payload_bytes);
}

SpillFileManager::SpillFileManager(std::string base_dir)
    : base_dir_(std::move(base_dir)) {}

SpillFileManager::~SpillFileManager() { RemoveAll(); }

Result<std::unique_ptr<SpillFile>> SpillFileManager::Create() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    std::error_code ec;
    std::filesystem::path base =
        base_dir_.empty() ? std::filesystem::temp_directory_path(ec)
                          : std::filesystem::path(base_dir_);
    if (ec) {
      return Status::Internal("spill: no temp directory available: " +
                              ec.message());
    }
    // Unique per manager instance: pid disambiguates processes sharing a
    // temp dir, the manager address disambiguates concurrent queries.
    std::filesystem::path dir =
        base / ("mppdb-spill-" + std::to_string(::getpid()) + "-" +
                std::to_string(reinterpret_cast<uintptr_t>(this)));
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("spill: cannot create directory " +
                              dir.string() + ": " + ec.message());
    }
    dir_ = dir.string();
  }
  std::string path =
      (std::filesystem::path(dir_) / ("part-" + std::to_string(next_id_++)))
          .string();
  std::FILE* file = std::fopen(path.c_str(), "w+b");
  if (file == nullptr) {
    return Status::Internal("spill: cannot open " + path + ": " +
                            std::strerror(errno));
  }
  return std::unique_ptr<SpillFile>(new SpillFile(std::move(path), file));
}

void SpillFileManager::RemoveAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  dir_.clear();
  next_id_ = 0;
}

}  // namespace mppdb
