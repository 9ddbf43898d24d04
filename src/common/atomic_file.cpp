#include "common/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "plrupart/common/assert.hpp"

namespace plrupart {
namespace {

[[noreturn]] void io_error(const std::string& what, const std::filesystem::path& path, int err) {
  throw InvariantError(what + " " + path.string() + ": " + std::strerror(err));
}

/// open(2) with EINTR retry.
int open_retry(const char* path, int flags, mode_t mode) {
  for (;;) {
    const int fd = ::open(path, flags, mode);  // NOLINT(cppcoreguidelines-pro-type-vararg)
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

/// Write the whole buffer, retrying short writes and EINTR.
bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ::ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

void close_quiet(int fd) noexcept {
  // POSIX leaves fd state unspecified after EINTR from close; retrying risks
  // closing a recycled descriptor, so a single call is the correct move.
  ::close(fd);
}

/// Refuse a target that exists and is not a regular file (a FIFO, a device):
/// the rename would swap its directory entry for a regular file, and a probe
/// that opened it could block. stat(2) follows symlinks.
void require_regular_or_absent(const std::filesystem::path& target) {
  struct stat st {};
  if (::stat(target.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    throw InvariantError("cannot write '" + target.string() + "': not a regular file");
  }
}

/// fsync the directory containing `path` so the rename itself is durable.
void sync_parent_dir(const std::filesystem::path& path) {
  std::filesystem::path dir = path.parent_path();
  if (dir.empty()) dir = ".";
  const int fd = open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY, 0);
  if (fd < 0) return;  // best effort: some filesystems refuse O_DIRECTORY opens
  while (::fsync(fd) < 0 && errno == EINTR) {
  }
  close_quiet(fd);
}

}  // namespace

AtomicFile::AtomicFile(std::filesystem::path target) : target_(std::move(target)) {}

AtomicFile::~AtomicFile() = default;  // nothing on disk until commit()

void AtomicFile::commit() {
  PLRUPART_ASSERT_MSG(!committed_, "AtomicFile::commit called twice");
  require_regular_or_absent(target_);
  const std::string bytes = buf_.str();
  std::filesystem::path tmp = target_;
  tmp += ".tmp." + std::to_string(::getpid());

  const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) io_error("cannot create temp file", tmp, errno);
  if (!write_all(fd, bytes.data(), bytes.size())) {
    const int err = errno;
    close_quiet(fd);
    ::unlink(tmp.c_str());
    io_error("cannot write", tmp, err);
  }
  int rc = 0;
  while ((rc = ::fsync(fd)) < 0 && errno == EINTR) {
  }
  if (rc < 0) {
    const int err = errno;
    close_quiet(fd);
    ::unlink(tmp.c_str());
    io_error("cannot fsync", tmp, err);
  }
  close_quiet(fd);

  if (::rename(tmp.c_str(), target_.c_str()) < 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    io_error("cannot rename into", target_, err);
  }
  sync_parent_dir(target_);
  committed_ = true;
}

void AtomicFile::write_file(const std::filesystem::path& target, std::string_view bytes) {
  AtomicFile f(target);
  f.stream().write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.commit();
}

void AtomicFile::probe_writable(const std::filesystem::path& target) {
  require_regular_or_absent(target);
  std::filesystem::path tmp = target;
  tmp += ".tmp." + std::to_string(::getpid());
  const int fd = open_retry(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw InvariantError("cannot open '" + target.string() +
                         "' for writing: " + std::strerror(errno));
  }
  close_quiet(fd);
  ::unlink(tmp.c_str());
}

void AtomicFile::remove_file(const std::filesystem::path& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return;
  io_error("cannot remove", path, errno);
}

}  // namespace plrupart
