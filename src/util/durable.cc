#include "util/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/prof.h"

namespace tlsharm {
namespace {

// Performance-plane sites: "durable.fsync" wraps every fsync this file
// issues (file and directory alike), so the prof plane's commit-latency
// totals cover the warehouse and capture-tape segments and MANIFESTs, the
// fold checkpoints, the campaign's state writes and the journal.
// Wall-clock only — see obs/prof.h.
const obs::ProfSite kProfFsync("durable.fsync", obs::kProfNoTrace);
const obs::ProfSite kProfDurableWrite("durable.write");

std::atomic<std::uint64_t> g_barriers{0};

// TLSHARM_CRASH_AFTER, parsed once. 0 = crash injection off.
std::uint64_t CrashAfter() {
  static const std::uint64_t target = [] {
    const char* env = std::getenv("TLSHARM_CRASH_AFTER");
    if (env == nullptr || *env == '\0') return std::uint64_t{0};
    char* end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    return (end != nullptr && *end == '\0') ? static_cast<std::uint64_t>(value)
                                            : std::uint64_t{0};
  }();
  return target;
}

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

// Passes one durability barrier: bumps the process-wide counter and, when
// it reaches TLSHARM_CRASH_AFTER, terminates the process.
void CrashPoint() {
  const std::uint64_t n = g_barriers.fetch_add(1) + 1;
  const std::uint64_t target = CrashAfter();
  if (target != 0 && n == target) {
    // Fail-stop: no atexit handlers, no buffered-stream flushes. Everything
    // not yet write()n to the kernel is lost, exactly like kill -9.
    _exit(137);
  }
}

}  // namespace

std::uint64_t CrashPointsPassed() { return g_barriers.load(); }

bool FsyncParentDir(const std::string& path, std::string* error) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("cannot open directory", dir);
    return false;
  }
  bool ok;
  {
    obs::ProfScope prof_span(kProfFsync);
    ok = ::fsync(fd) == 0;
  }
  if (!ok && error != nullptr) *error = Errno("cannot fsync directory", dir);
  ::close(fd);
  return ok;
}

bool DurableWriteFile(const std::string& path, ByteView bytes,
                      std::string* error) {
  obs::ProfScope prof_span(kProfDurableWrite);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = Errno("cannot create", tmp);
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("cannot write", tmp);
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  {
    obs::ProfScope fsync_span(kProfFsync);
    if (::fsync(fd) != 0) {
      if (error != nullptr) *error = Errno("cannot fsync", tmp);
      ::close(fd);
      return false;
    }
  }
  ::close(fd);
  CrashPoint();  // temp durable, target untouched -> orphaned *.tmp
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = Errno("cannot rename over", path);
    return false;
  }
  CrashPoint();  // renamed, directory entry not yet synced
  if (!FsyncParentDir(path, error)) return false;
  CrashPoint();  // fully durable
  return true;
}

}  // namespace tlsharm
