#include "net/io.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/wire.h"

namespace subfed::net {

Deadline Deadline::after_ms(long long ms) {
  Deadline d;
  if (ms > 0) {
    d.armed_ = true;
    d.when_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  }
  return d;
}

bool Deadline::expired() const {
  return armed_ && std::chrono::steady_clock::now() >= when_;
}

int Deadline::remaining_ms() const {
  if (!armed_) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      when_ - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

namespace {

/// The most a frame's buffer grows ahead of the bytes that have arrived.
constexpr std::size_t kFrameGrowBytes = std::size_t{1} << 20;

/// Waits until `fd` is ready for `events` or the deadline passes. True when
/// the following syscall may proceed (also on POLLHUP/POLLERR — the syscall
/// itself then observes the EOF or error, which is the diagnosis we want).
bool wait_single(int fd, short events, const Deadline& deadline) {
  while (true) {
    if (deadline.expired()) return false;
    struct pollfd pfd = {fd, events, 0};
    const int ready = ::poll(&pfd, 1, deadline.remaining_ms());
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) return false;  // timed out
    return true;
  }
}

}  // namespace

bool write_exact(int fd, const void* data, std::size_t n, const Deadline& deadline) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    if (!deadline.unlimited() && !wait_single(fd, POLLOUT, deadline)) return false;
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE (→ false), not
    // as a process-killing SIGPIPE. Pipes say ENOTSOCK; retry with write().
    ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL);
    if (written < 0 && errno == ENOTSOCK) written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t n, const Deadline& deadline) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    if (!deadline.unlimited() && !wait_single(fd, POLLIN, deadline)) return false;
    const ssize_t got = ::read(fd, p, n);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;  // EOF (dead peer) or error
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_frame(int fd, std::span<const std::uint8_t> bytes, const Deadline& deadline) {
  const telemetry::StopWatch watch;
  std::uint8_t prefix[4];
  wire::store(prefix, static_cast<std::uint32_t>(bytes.size()));
  const bool ok = write_exact(fd, prefix, 4, deadline) &&
                  write_exact(fd, bytes.data(), bytes.size(), deadline);
  if (ok && watch.armed()) {
    static telemetry::Counter& frames = telemetry::counter("net.frames_sent");
    static telemetry::Counter& sent = telemetry::counter("net.bytes_sent");
    static telemetry::Histogram& sizes = telemetry::histogram("net.frame_bytes_sent");
    static telemetry::Timer& time = telemetry::timer("net.write_seconds");
    frames.add();
    sent.add(bytes.size() + 4);
    sizes.record(bytes.size());
    time.add_seconds(watch.seconds());
  }
  return ok;
}

bool read_frame(int fd, std::vector<std::uint8_t>* out, const Deadline& deadline,
                std::size_t max_bytes) {
  const telemetry::StopWatch watch;
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, 4, deadline)) return false;
  const auto size = wire::load<std::uint32_t>(prefix);
  if (size > max_bytes) return false;  // reject before the allocation, not after
  // Grow with the bytes that arrive, a bounded step at a time: a length
  // prefix alone must not commit the memory it claims.
  out->clear();
  bool ok = true;
  while (ok && out->size() < size) {
    const std::size_t got = out->size();
    out->resize(got + std::min<std::size_t>(size - got, kFrameGrowBytes));
    ok = read_exact(fd, out->data() + got, out->size() - got, deadline);
  }
  if (ok && watch.armed()) {
    static telemetry::Counter& frames = telemetry::counter("net.frames_received");
    static telemetry::Counter& received = telemetry::counter("net.bytes_received");
    static telemetry::Histogram& sizes = telemetry::histogram("net.frame_bytes_received");
    static telemetry::Timer& time = telemetry::timer("net.read_seconds");
    frames.add();
    received.add(size + 4ULL);
    sizes.record(size);
    time.add_seconds(watch.seconds());
  }
  return ok;
}

std::vector<std::size_t> wait_readable(std::span<const int> fds, int timeout_ms) {
  std::vector<struct pollfd> pfds;
  pfds.reserve(fds.size());
  for (const int fd : fds) pfds.push_back({fd, POLLIN, 0});
  while (true) {
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      SUBFEDAVG_CHECK(false, "poll() failed: errno " << errno);
    }
    break;
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) out.push_back(i);
  }
  return out;
}

}  // namespace subfed::net
