// File-descriptor I/O shared by the pipe (subprocess) and socket (tcp)
// transports: exact-length reads/writes, u32-length-prefixed frames, poll
// readiness, and monotonic deadlines.
//
// Everything here reports failure by return value (EOF, a dead peer, or an
// expired deadline all look the same to the caller: the exchange is over);
// only programmer errors throw. That keeps the transports' failure paths
// allocation-free and lets a dead socket map onto the existing straggler
// eviction machinery instead of unwinding the round.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace subfed::net {

/// Frames larger than this are rejected BEFORE allocating — a corrupted or
/// hostile length prefix must not become a multi-gigabyte resize.
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

/// A monotonic-clock deadline. Default-constructed = no deadline (waits
/// forever); after_ms(0) also means no deadline, so configuration knobs can
/// use 0 as "off".
class Deadline {
 public:
  Deadline() = default;

  static Deadline after_ms(long long ms);

  bool unlimited() const noexcept { return !armed_; }
  bool expired() const;
  /// Milliseconds left, clamped to >= 0; -1 when unlimited (poll() style).
  int remaining_ms() const;

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point when_{};
};

/// Writes/reads exactly `n` bytes, retrying on EINTR. False on error, EOF, or
/// an expired deadline. The deadline is enforced with poll() before each
/// syscall, so a peer that stops mid-frame cannot park the caller forever.
bool write_exact(int fd, const void* data, std::size_t n,
                 const Deadline& deadline = {});
bool read_exact(int fd, void* data, std::size_t n, const Deadline& deadline = {});

/// u32-little-endian length prefix, then the bytes — the framing both the
/// subprocess pipes and the tcp message layer speak.
bool write_frame(int fd, std::span<const std::uint8_t> bytes,
                 const Deadline& deadline = {});
/// Reads one frame into `out`. A length prefix above `max_bytes` fails
/// without allocating; below it, `out` grows as the payload arrives, at most
/// 1 MiB ahead of the bytes received.
bool read_frame(int fd, std::vector<std::uint8_t>* out, const Deadline& deadline = {},
                std::size_t max_bytes = kMaxFrameBytes);

/// Polls every fd for readability (POLLIN; POLLHUP/POLLERR count too — they
/// mean "read now and observe the EOF/error") and returns the indices into
/// `fds` that are ready, in fds order. timeout_ms as in poll(): -1 waits
/// forever, 0 returns immediately. Retries EINTR. Throws CheckError only on a
/// poll() failure that cannot be retried.
std::vector<std::size_t> wait_readable(std::span<const int> fds, int timeout_ms);

}  // namespace subfed::net
