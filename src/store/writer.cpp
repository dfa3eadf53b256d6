#include "store/writer.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace hj::store {

void Writer::add(Record r) { recs_.push_back(std::move(r)); }

std::string Writer::finish() const {
  // Encode the data region (records in insertion order) and remember each
  // record's span for the index.
  std::string data;
  std::vector<std::pair<u64, u64>> span(recs_.size());  // offset, bytes
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const u64 off = kSuperBytes + data.size();
    const std::size_t before = data.size();
    encode_record(data, recs_[i]);
    span[i] = {off, data.size() - before};
  }

  // Index entries sorted by key; duplicate keys are a caller bug.
  std::vector<std::size_t> order(recs_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return recs_[a].key < recs_[b].key;
  });
  for (std::size_t i = 1; i < order.size(); ++i)
    require(recs_[order[i - 1]].key < recs_[order[i]].key,
            "store::Writer: duplicate key %s",
            recs_[order[i]].key.to_string().c_str());

  std::string index;
  index.reserve(order.size() * kIndexEntryBytes);
  for (std::size_t i : order) {
    for (u64 e : recs_[i].key.ext) put_u64(index, e);
    put_u64(index, span[i].first);
    put_u64(index, span[i].second);
  }

  std::string sb;
  sb.reserve(kSuperBytes);
  put_u64(sb, kSuperMagic);
  put_u32(sb, kFormatVersion);
  put_u32(sb, 0);  // flags
  put_u64(sb, recs_.size());
  put_u64(sb, kSuperBytes);           // data_off
  put_u64(sb, data.size());           // data_bytes
  put_u64(sb, kSuperBytes + data.size());  // index_off
  put_u64(sb, index.size());          // index_bytes
  put_u64(sb, fnv1a(index));          // index checksum
  put_u64(sb, fnv1a(sb));             // superblock checksum (bytes [0,64))

  return sb + data + index;
}

namespace {

[[noreturn]] void io_fail(const std::string& path, const char* what) {
  throw std::runtime_error("plan store '" + path + "': " + what + ": " +
                           std::strerror(errno));
}

void write_all(int fd, const std::string& path, const char* p, u64 n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      io_fail(path, "write failed");
    }
    p += w;
    n -= static_cast<u64>(w);
  }
}

void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    (void)::fsync(dfd);  // best effort: some filesystems reject dir fsync
    ::close(dfd);
  }
}

}  // namespace

void atomic_write_file(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) io_fail(tmp, "cannot create temp file");
  write_all(fd, tmp, bytes.data(), bytes.size());
  if (::fsync(fd) != 0) {
    ::close(fd);
    io_fail(tmp, "fsync failed");
  }
  if (::close(fd) != 0) io_fail(tmp, "close failed");
  if (::rename(tmp.c_str(), path.c_str()) != 0) io_fail(path, "rename failed");
  fsync_parent_dir(path);
}

void append_file_sync(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) io_fail(path, "cannot open for append");
  write_all(fd, path, bytes.data(), bytes.size());
  if (::fsync(fd) != 0) {
    ::close(fd);
    io_fail(path, "fsync failed");
  }
  if (::close(fd) != 0) io_fail(path, "close failed");
}

}  // namespace hj::store
