#include "net/socket.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.h"
#include "util/wire.h"

namespace subfed::net {

namespace {

constexpr std::uint32_t kNetMagic = 0x53464E54;  // "SFNT"
/// Magic, frame kind and tag; the payload's length prefix follows.
constexpr std::size_t kHeaderBytes = 4 + 1 + 8;

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK)) >= 0;
}

/// getaddrinfo over the numeric-friendly path; the caller owns the result.
struct addrinfo* resolve(const HostPort& addr) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* result = nullptr;
  const std::string service = std::to_string(addr.port);
  if (::getaddrinfo(addr.host.c_str(), service.c_str(), &hints, &result) != 0) {
    return nullptr;
  }
  return result;
}

}  // namespace

HostPort parse_host_port(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  SUBFEDAVG_CHECK(colon != std::string::npos && colon > 0 && colon + 1 < text.size(),
                  "expected host:port, got '" << text << "'");
  HostPort out;
  out.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  unsigned long port = 0;
  for (const char c : port_text) {
    SUBFEDAVG_CHECK(c >= '0' && c <= '9', "bad port in '" << text << "'");
    port = port * 10 + static_cast<unsigned long>(c - '0');
    SUBFEDAVG_CHECK(port <= 65535, "port out of range in '" << text << "'");
  }
  out.port = static_cast<std::uint16_t>(port);
  return out;
}

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConn::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

TcpConn TcpConn::connect(const HostPort& addr, const Deadline& deadline) {
  struct addrinfo* info = resolve(addr);
  if (info == nullptr) return {};
  TcpConn conn;
  for (struct addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    // Nonblocking connect so a black-holed peer honors the deadline: start
    // the handshake, poll for writability, then read the outcome from
    // SO_ERROR and restore blocking mode for the framing layer.
    if (!set_nonblocking(fd, true)) {
      ::close(fd);
      continue;
    }
    int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      struct pollfd pfd = {fd, POLLOUT, 0};
      while (true) {
        const int ready = ::poll(&pfd, 1, deadline.remaining_ms());
        if (ready < 0 && errno == EINTR) continue;
        rc = ready == 1 ? 0 : -1;
        break;
      }
      if (rc == 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) rc = -1;
      }
    }
    if (rc != 0 || !set_nonblocking(fd, false)) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    conn = TcpConn(fd);
    break;
  }
  ::freeaddrinfo(info);
  return conn;
}

TcpListener::TcpListener(const HostPort& addr, int backlog) : host_(addr.host) {
  struct addrinfo* info = resolve(addr);
  SUBFEDAVG_CHECK(info != nullptr, "cannot resolve listen address '" << addr.host << "'");
  std::string error = "cannot bind " + addr.host + ":" + std::to_string(addr.port);
  for (struct addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 || ::listen(fd, backlog) != 0) {
      error += std::string(": ") + std::strerror(errno);
      ::close(fd);
      continue;
    }
    fd_ = fd;
    break;
  }
  ::freeaddrinfo(info);
  SUBFEDAVG_CHECK(fd_ >= 0, error);
  // Resolve the actual port (ephemeral binds ask for 0).
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), host_(std::move(other.host_)), port_(other.port_) {
  other.fd_ = -1;
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

TcpConn TcpListener::accept(const Deadline& deadline) {
  while (true) {
    struct pollfd pfd = {fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, deadline.remaining_ms());
    if (ready < 0 && errno == EINTR) continue;
    if (ready != 1) return {};
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return {};
    }
    set_nodelay(fd);
    return TcpConn(fd);
  }
}

bool send_frame(const TcpConn& conn, FrameKind kind, std::uint64_t tag,
                std::span<const std::uint8_t> payload, const Deadline& deadline) {
  if (!conn.valid()) return false;
  std::uint8_t header[kHeaderBytes];
  wire::store(header, kNetMagic);
  header[4] = static_cast<std::uint8_t>(kind);
  wire::store(header + 5, tag);
  return write_exact(conn.fd(), header, sizeof(header), deadline) &&
         write_frame(conn.fd(), payload, deadline);
}

bool send_frame(const TcpConn& conn, const NetFrame& frame, const Deadline& deadline) {
  return send_frame(conn, frame.kind, frame.tag, frame.payload, deadline);
}

bool recv_frame(const TcpConn& conn, NetFrame* out, const Deadline& deadline,
                std::size_t max_payload) {
  if (!conn.valid()) return false;
  std::uint8_t header[kHeaderBytes];
  if (!read_exact(conn.fd(), header, sizeof(header), deadline)) return false;
  if (wire::load<std::uint32_t>(header) != kNetMagic) return false;
  const std::uint8_t kind = header[4];
  if (kind < static_cast<std::uint8_t>(FrameKind::kHello) ||
      kind > static_cast<std::uint8_t>(FrameKind::kMetricsTail)) {
    return false;
  }
  out->kind = static_cast<FrameKind>(kind);
  out->tag = wire::load<std::uint64_t>(header + 5);
  return read_frame(conn.fd(), &out->payload, deadline, max_payload);
}

}  // namespace subfed::net
