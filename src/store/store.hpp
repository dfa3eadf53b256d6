// hjembed plan store: the read side.
//
// PlanStore::open maps a store file read-only (mmap) and validates the
// superblock and index checksums, the region geometry and the index sort
// order before returning — a truncated or superblock/index-corrupted file
// fails open() with a reason, it never yields a store that could hand out
// garbage offsets.
//
// Record payloads are *lazily* validated: lookup() re-checksums the record
// it lands on, and a mismatch (bit flip, torn write inside the data
// region) quarantines that index slot — subsequent lookups report Corrupt
// immediately — while every other record keeps serving. The caller
// (store::Server) treats Corrupt and Miss as "fall back to the live
// planner", so one flipped byte degrades one shape, not the daemon.
//
// Thread safety: lookups are const and may run concurrently; quarantine
// marks are relaxed atomics (monotone flags, so racing markers agree).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "store/format.hpp"

namespace hj::store {

class PlanStore {
 public:
  /// Open and structurally validate a store file. Throws
  /// std::runtime_error with a reason on any problem (missing file, short
  /// file, bad magic/version, checksum mismatch, index out of order or
  /// out of bounds).
  [[nodiscard]] static PlanStore open(const std::string& path);

  PlanStore(PlanStore&&) noexcept;
  PlanStore& operator=(PlanStore&&) noexcept;
  PlanStore(const PlanStore&) = delete;
  PlanStore& operator=(const PlanStore&) = delete;
  ~PlanStore();

  enum class Status : u8 { Hit, Miss, Corrupt };

  struct Lookup {
    Status status = Status::Miss;
    /// Filled on Hit: the decoded, checksum-verified record.
    Record record;
    /// Filled on Corrupt: why the record was rejected.
    std::string error;
  };

  /// Binary-search the index for `key`; checksum-verify and decode the
  /// record on a hit. Corrupt records are quarantined (sticky: later
  /// lookups of the same key return Corrupt without re-reading).
  [[nodiscard]] Lookup lookup(const Key& key) const;

  /// Mark a key's record as bad for reasons beyond checksums (e.g. its
  /// payload parsed but failed verification). No-op for unknown keys.
  void quarantine(const Key& key) const;

  [[nodiscard]] u64 record_count() const noexcept { return nrec_; }
  [[nodiscard]] u64 quarantined_count() const noexcept {
    return quarantine_hits_.load(std::memory_order_relaxed);
  }
  /// Key of index slot i (i < record_count()).
  [[nodiscard]] Key key_at(u64 i) const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// [first, last) byte range of the data region (for corruption-injection
  /// tooling that must avoid the superblock/index, whose checksums fail
  /// the whole open()).
  [[nodiscard]] std::pair<u64, u64> data_region() const noexcept {
    return {kSuperBytes, kSuperBytes + data_bytes_};
  }

 private:
  PlanStore() = default;
  [[nodiscard]] const unsigned char* index_entry(u64 i) const noexcept;
  /// Index slot of `key`, or nullopt.
  [[nodiscard]] std::optional<u64> find_slot(const Key& key) const noexcept;

  std::string path_;
  const unsigned char* data_ = nullptr;  // whole file
  u64 size_ = 0;
  void* map_ = nullptr;  // munmap target; null for an empty file
  u64 nrec_ = 0;
  u64 data_bytes_ = 0;
  u64 index_off_ = 0;
  // One sticky flag per index slot; unique_ptr keeps the store movable.
  std::unique_ptr<std::atomic<u8>[]> quarantined_;
  mutable std::atomic<u64> quarantine_hits_{0};
};

}  // namespace hj::store
