#include "storage/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace laxml {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

// ---------------------------------------------------------------------------
// PosixFile

Result<std::unique_ptr<PosixFile>> PosixFile::Open(const std::string& path,
                                                   bool read_only) {
  // O_CLOEXEC: a forking/exec'ing host (laxml_server) must not leak
  // store fds into child processes.
  int fd = ::open(path.c_str(),
                  (read_only ? O_RDONLY : (O_RDWR | O_CREAT)) | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", path);
  struct stat sb;
  if (::fstat(fd, &sb) != 0) {
    Status st = Errno("stat", path);
    ::close(fd);
    return st;
  }
  return std::unique_ptr<PosixFile>(
      new PosixFile(fd, path, static_cast<uint64_t>(sb.st_size)));
}

PosixFile::~PosixFile() { ::close(fd_); }

Status PosixFile::ReadAt(uint64_t offset, size_t n, uint8_t* buf) {
  while (n > 0) {
    ssize_t r = ::pread(fd_, buf, n, static_cast<off_t>(offset));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path_);
    }
    if (r == 0) {  // end of file
      std::memset(buf, 0, n);
      break;
    }
    buf += r;
    n -= static_cast<size_t>(r);
    offset += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

Status PosixFile::WriteAt(uint64_t offset, Slice data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t off = offset;
  while (n > 0) {
    ssize_t w = ::pwrite(fd_, p, n, static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite", path_);
    }
    p += w;
    n -= static_cast<size_t>(w);
    off += static_cast<uint64_t>(w);
  }
  size_ = std::max(size_, offset + data.size());
  return Status::OK();
}

Status PosixFile::Sync() {
  if (::fdatasync(fd_) != 0) return Errno("fdatasync", path_);
  return Status::OK();
}

Status PosixFile::Resize(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate", path_);
  }
  size_ = size;
  return Status::OK();
}

Result<std::unique_ptr<File>> OpenWrapped(const std::string& path,
                                          bool read_only,
                                          const FileWrapper& wrapper) {
  LAXML_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                         PosixFile::Open(path, read_only));
  if (!wrapper) return file;
  file = wrapper(std::move(file));
  if (file == nullptr) {
    return Status::IOError("file wrapper rejected '" + path + "'");
  }
  return file;
}

// ---------------------------------------------------------------------------
// MemFile

Status MemFile::ReadAt(uint64_t offset, size_t n, uint8_t* buf) {
  const uint64_t have =
      offset < bytes_.size() ? std::min<uint64_t>(n, bytes_.size() - offset)
                             : 0;
  if (have > 0) std::memcpy(buf, bytes_.data() + offset, have);
  std::memset(buf + have, 0, n - have);
  return Status::OK();
}

Status MemFile::WriteAt(uint64_t offset, Slice data) {
  if (offset + data.size() > bytes_.size()) {
    bytes_.resize(offset + data.size());
  }
  if (!data.empty()) {
    std::memcpy(bytes_.data() + offset, data.data(), data.size());
  }
  return Status::OK();
}

Status MemFile::Resize(uint64_t size) {
  bytes_.resize(size);
  return Status::OK();
}

}  // namespace laxml
