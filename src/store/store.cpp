#include "store/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <utility>

namespace hj::store {
namespace {

[[noreturn]] void open_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("plan store '" + path + "': " + what);
}

}  // namespace

PlanStore PlanStore::open(const std::string& path) {
  PlanStore s;
  s.path_ = path;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) open_fail(path, "cannot open file");
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    open_fail(path, "cannot stat file");
  }
  s.size_ = static_cast<u64>(st.st_size);
  if (s.size_ > 0) {
    void* m = ::mmap(nullptr, s.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (m == MAP_FAILED) open_fail(path, "mmap failed");
    s.map_ = m;
    s.data_ = static_cast<const unsigned char*>(m);
  } else {
    ::close(fd);
  }

  // --- superblock ---
  if (s.size_ < kSuperBytes) open_fail(path, "file shorter than a superblock");
  const unsigned char* p = s.data_;
  if (get_u64(p) != kSuperMagic) open_fail(path, "bad magic");
  if (get_u32(p + 8) != kFormatVersion)
    open_fail(path, "unsupported version " + std::to_string(get_u32(p + 8)));
  const u64 nrec = get_u64(p + 16);
  const u64 data_off = get_u64(p + 24);
  const u64 data_bytes = get_u64(p + 32);
  const u64 index_off = get_u64(p + 40);
  const u64 index_bytes = get_u64(p + 48);
  const u64 index_sum = get_u64(p + 56);
  if (fnv1a(p, 64) != get_u64(p + 64))
    open_fail(path, "superblock checksum mismatch");
  if (data_off != kSuperBytes || nrec > (u64{1} << 32) ||
      data_bytes > s.size_ || index_bytes > s.size_ ||
      index_bytes != nrec * kIndexEntryBytes ||
      index_off != data_off + data_bytes ||
      index_off + index_bytes != s.size_)
    open_fail(path, "region geometry inconsistent (truncated or torn file)");
  if (fnv1a(p + index_off, index_bytes) != index_sum)
    open_fail(path, "index checksum mismatch");

  s.nrec_ = nrec;
  s.data_bytes_ = data_bytes;
  s.index_off_ = index_off;

  // --- index sanity: sorted, unique, offsets inside the data region ---
  Key prev{};
  for (u64 i = 0; i < nrec; ++i) {
    const unsigned char* e = s.index_entry(i);
    Key k;
    for (u32 j = 0; j < kMaxRank; ++j) k.ext[j] = get_u64(e + 8 * j);
    if (i > 0 && !(prev < k))
      open_fail(path, "index keys not strictly sorted");
    prev = k;
    const u64 off = get_u64(e + 32);
    const u64 bytes = get_u64(e + 40);
    if (off < data_off || bytes < kRecordHeaderBytes ||
        off + bytes > index_off || off + bytes < off)
      open_fail(path, "index entry " + std::to_string(i) +
                          " points outside the data region");
  }

  s.quarantined_ = std::make_unique<std::atomic<u8>[]>(nrec ? nrec : 1);
  for (u64 i = 0; i < nrec; ++i)
    s.quarantined_[i].store(0, std::memory_order_relaxed);
  return s;
}

PlanStore::PlanStore(PlanStore&& o) noexcept { *this = std::move(o); }

PlanStore& PlanStore::operator=(PlanStore&& o) noexcept {
  if (this == &o) return *this;
  if (map_) ::munmap(map_, size_);
  path_ = std::move(o.path_);
  data_ = std::exchange(o.data_, nullptr);
  size_ = std::exchange(o.size_, 0);
  map_ = std::exchange(o.map_, nullptr);
  nrec_ = std::exchange(o.nrec_, 0);
  data_bytes_ = std::exchange(o.data_bytes_, 0);
  index_off_ = std::exchange(o.index_off_, 0);
  quarantined_ = std::move(o.quarantined_);
  quarantine_hits_.store(o.quarantine_hits_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  return *this;
}

PlanStore::~PlanStore() {
  if (map_) ::munmap(map_, size_);
}

const unsigned char* PlanStore::index_entry(u64 i) const noexcept {
  return data_ + index_off_ + i * kIndexEntryBytes;
}

Key PlanStore::key_at(u64 i) const {
  require(i < nrec_, "PlanStore::key_at: slot %llu out of range",
          static_cast<unsigned long long>(i));
  Key k;
  const unsigned char* e = index_entry(i);
  for (u32 j = 0; j < kMaxRank; ++j) k.ext[j] = get_u64(e + 8 * j);
  return k;
}

std::optional<u64> PlanStore::find_slot(const Key& key) const noexcept {
  u64 lo = 0, hi = nrec_;
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    Key k;
    const unsigned char* e = index_entry(mid);
    for (u32 j = 0; j < kMaxRank; ++j) k.ext[j] = get_u64(e + 8 * j);
    if (k == key) return mid;
    if (k < key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return std::nullopt;
}

PlanStore::Lookup PlanStore::lookup(const Key& key) const {
  Lookup out;
  const std::optional<u64> slot = find_slot(key);
  if (!slot) {
    out.status = Status::Miss;
    return out;
  }
  if (quarantined_[*slot].load(std::memory_order_relaxed)) {
    out.status = Status::Corrupt;
    out.error = "record quarantined by an earlier lookup";
    return out;
  }
  const unsigned char* e = index_entry(*slot);
  const u64 off = get_u64(e + 32);
  const u64 bytes = get_u64(e + 40);
  u64 total = 0;
  std::string err;
  // decode_record is bounds-limited to this record's index-declared span;
  // the span itself was validated against the data region at open().
  if (!decode_record(data_ + off, bytes, &out.record, &total, &err) ||
      total != bytes || out.record.key != key) {
    if (err.empty()) err = "record does not match its index entry";
    if (!quarantined_[*slot].exchange(1, std::memory_order_relaxed))
      quarantine_hits_.fetch_add(1, std::memory_order_relaxed);
    out.status = Status::Corrupt;
    out.record = Record{};
    out.error = err;
    return out;
  }
  out.status = Status::Hit;
  return out;
}

void PlanStore::quarantine(const Key& key) const {
  const std::optional<u64> slot = find_slot(key);
  if (!slot) return;
  if (!quarantined_[*slot].exchange(1, std::memory_order_relaxed))
    quarantine_hits_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hj::store
