#include "comm/transport.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>

#include "net/io.h"
#include "net/socket.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace subfed {

std::vector<TransportArrival> Transport::collect(
    std::span<const std::vector<std::uint8_t>> requests, const TransportHandler& handler,
    const ArrivalModel& arrival) {
  // In-process default: compute every reply, then deliver them in the order
  // the arrival model says they would have landed.
  std::vector<std::vector<std::uint8_t>> responses = round_trip(requests, handler);
  std::vector<std::size_t> order(responses.size());
  std::iota(order.begin(), order.end(), 0);
  if (arrival != nullptr) {
    std::vector<double> seconds(responses.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      seconds[i] = arrival(i, requests[i].size(), responses[i].size());
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return seconds[a] < seconds[b]; });
  }
  std::vector<TransportArrival> arrivals;
  arrivals.reserve(responses.size());
  for (const std::size_t i : order) arrivals.push_back({i, std::move(responses[i]), true, {}});
  return arrivals;
}

namespace {

// ---------------------------------------------------------------------------
// loopback

class LoopbackTransport final : public Transport {
 public:
  std::string name() const override { return "loopback"; }
  bool detached() const noexcept override { return false; }

  std::vector<std::vector<std::uint8_t>> round_trip(
      std::span<const std::vector<std::uint8_t>> requests,
      const TransportHandler& handler) override {
    std::vector<std::vector<std::uint8_t>> responses(requests.size());
    ThreadPool::global().parallel_for(requests.size(), [&](std::size_t i) {
      responses[i] = handler(requests[i], i);
    });
    return responses;
  }
};

// ---------------------------------------------------------------------------
// subprocess
//
// Pipe framing and fd readiness come from src/net/ (the same helpers the tcp
// transport uses on sockets): u32-little-endian length prefix, then the
// bytes, reaped with net::wait_readable.

/// Writing to a worker that already died must surface as an error frame, not
/// kill the parent with SIGPIPE. Shared with the tcp transport.
void ignore_sigpipe() {
  static std::once_flag sigpipe_once;
  std::call_once(sigpipe_once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

class SubprocessTransport final : public Transport {
 public:
  explicit SubprocessTransport(std::size_t workers)
      : workers_(workers != 0 ? workers
                              : std::max<std::size_t>(
                                    1, std::thread::hardware_concurrency())) {}

  std::string name() const override { return "subprocess"; }
  bool detached() const noexcept override { return true; }

  std::vector<std::vector<std::uint8_t>> round_trip(
      std::span<const std::vector<std::uint8_t>> requests,
      const TransportHandler& handler) override {
    std::vector<std::vector<std::uint8_t>> responses(requests.size());
    // Waves of at most `workers_` concurrent children. Every child in a wave
    // is forked first (each blocks reading its request pipe), then the parent
    // streams the requests — children start computing as soon as their frame
    // lands — and finally collects the responses as they land. A child that
    // dies before replying (crash, kill, handler _exit) produces a short read
    // and fails only this batch's run.
    for (std::size_t base = 0; base < requests.size(); base += workers_) {
      const std::size_t wave = std::min(workers_, requests.size() - base);
      run_wave(requests.subspan(base, wave), base, handler,
               {responses.data() + base, wave}, nullptr);
    }
    return responses;
  }

  std::vector<TransportArrival> collect(std::span<const std::vector<std::uint8_t>> requests,
                                        const TransportHandler& handler,
                                        const ArrivalModel& arrival) override {
    (void)arrival;  // genuine pipe-arrival order needs no simulation
    std::vector<std::vector<std::uint8_t>> responses(requests.size());
    std::vector<std::size_t> order;
    order.reserve(requests.size());
    for (std::size_t base = 0; base < requests.size(); base += workers_) {
      const std::size_t wave = std::min(workers_, requests.size() - base);
      run_wave(requests.subspan(base, wave), base, handler,
               {responses.data() + base, wave}, &order);
    }
    std::vector<TransportArrival> arrivals;
    arrivals.reserve(order.size());
    for (const std::size_t i : order) arrivals.push_back({i, std::move(responses[i]), true, {}});
    return arrivals;
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int request_fd = -1;   // parent writes
    int response_fd = -1;  // parent reads
  };

  static void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  /// `arrival_order`, when non-null, receives the absolute request indices in
  /// the order their response frames started landing on the parent's pipes.
  void run_wave(std::span<const std::vector<std::uint8_t>> requests, std::size_t base,
                const TransportHandler& handler,
                std::span<std::vector<std::uint8_t>> responses,
                std::vector<std::size_t>* arrival_order) {
    ignore_sigpipe();

    std::vector<Worker> workers(requests.size());
    std::string error;

    for (std::size_t i = 0; i < requests.size(); ++i) {
      int request_pipe[2] = {-1, -1};
      int response_pipe[2] = {-1, -1};
      if (::pipe(request_pipe) != 0 || ::pipe(response_pipe) != 0) {
        close_fd(request_pipe[0]);
        close_fd(request_pipe[1]);
        error = "transport: pipe() failed";
        break;
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        for (int fd : {request_pipe[0], request_pipe[1], response_pipe[0],
                       response_pipe[1]}) {
          ::close(fd);
        }
        error = "transport: fork() failed";
        break;
      }
      if (pid == 0) {
        // Worker: single-threaded from here on (fork keeps only this thread);
        // route any nested parallel_for inline instead of at the parent's
        // pool, whose worker threads do not exist in this process.
        ThreadPool::enter_forked_child();
        ::close(request_pipe[1]);
        ::close(response_pipe[0]);
        std::vector<std::uint8_t> request;
        int status = 0;
        if (net::read_frame(request_pipe[0], &request)) {
          try {
            const std::vector<std::uint8_t> response = handler(request, base + i);
            if (!net::write_frame(response_pipe[1], response)) status = 1;
          } catch (...) {
            status = 1;  // parent reports the short read as a worker death
          }
        } else {
          status = 1;
        }
        ::close(request_pipe[0]);
        ::close(response_pipe[1]);
        ::_exit(status);  // skip atexit/static destructors shared with parent
      }
      workers[i].pid = pid;
      workers[i].request_fd = request_pipe[1];
      workers[i].response_fd = response_pipe[0];
      ::close(request_pipe[0]);
      ::close(response_pipe[1]);
    }

    if (error.empty()) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!net::write_frame(workers[i].request_fd, requests[i])) {
          error = "transport: worker " + std::to_string(base + i) +
                  " died before receiving its request";
        }
        close_fd(workers[i].request_fd);  // EOF tells the child no more frames
        if (!error.empty()) break;
      }
    }
    if (error.empty()) {
      // Reap replies as they land: poll every pending response pipe and read
      // whichever becomes readable first. A child writes its whole frame in
      // one go (blocking once the pipe fills), so first-readable is the order
      // rounds actually finished — the arrival order buffered aggregation
      // closes on. A child that died instead presents EOF here and fails the
      // batch with the same short-read diagnosis as before.
      std::vector<bool> pending(requests.size(), true);
      std::size_t remaining = requests.size();
      while (remaining > 0 && error.empty()) {
        std::vector<int> fds;
        std::vector<std::size_t> slot;
        fds.reserve(remaining);
        for (std::size_t i = 0; i < requests.size(); ++i) {
          if (!pending[i]) continue;
          fds.push_back(workers[i].response_fd);
          slot.push_back(i);
        }
        std::vector<std::size_t> ready;
        try {
          ready = net::wait_readable(fds, -1);
        } catch (const std::exception& e) {
          error = std::string("transport: ") + e.what();
          break;
        }
        for (const std::size_t f : ready) {
          const std::size_t i = slot[f];
          if (!net::read_frame(workers[i].response_fd, &responses[i])) {
            error = "transport: worker " + std::to_string(base + i) +
                    " died before replying (crash or kill in client-side work)";
            break;
          }
          pending[i] = false;
          --remaining;
          if (arrival_order != nullptr) arrival_order->push_back(base + i);
        }
      }
    }

    // Close every pipe before reaping: a straggler blocked writing its
    // response sees EPIPE and exits instead of deadlocking the waitpid.
    for (Worker& worker : workers) {
      close_fd(worker.request_fd);
      close_fd(worker.response_fd);
    }
    for (Worker& worker : workers) {
      if (worker.pid > 0) {
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
      }
    }
    SUBFEDAVG_CHECK(error.empty(), error);
  }

  std::size_t workers_;
};

// ---------------------------------------------------------------------------
// tcp
//
// The coordinator side of the remote protocol (src/net/socket.h): bind at
// construction (fail fast), wait for the configured worker fleet on the first
// batch, then keep one exchange in flight per connection, recording replies
// in genuine socket-arrival order. Workers that join late, reconnect, or die
// mid-exchange are absorbed round by round: a dead connection fails only the
// exchange it was serving, and only tolerantly (ok == false) when buffered
// aggregation is there to evict the straggler.

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TransportOptions options)
      : options_(std::move(options)),
        expected_workers_(std::max<std::size_t>(1, options_.workers)),
        listener_(net::parse_host_port(options_.listen)) {
    ignore_sigpipe();
  }

  ~TcpTransport() override {
    for (Conn& c : conns_) {
      if (c.conn.valid()) {
        net::send_frame(c.conn, {net::FrameKind::kShutdown, 0, {}},
                        net::Deadline::after_ms(1000));
      }
    }
  }

  std::string name() const override { return "tcp"; }
  bool detached() const noexcept override { return true; }
  bool remote() const noexcept override { return true; }
  std::string endpoint() const override { return listener_.endpoint(); }
  std::size_t connected_peers() const noexcept override { return live_count(); }
  int accept_fd() const noexcept override { return listener_.fd(); }

  std::size_t admit_pending() override {
    std::size_t admitted = 0;
    while (admit_worker(net::Deadline::after_ms(1))) ++admitted;
    prune_hangups();
    return admitted;
  }

  std::vector<std::vector<std::uint8_t>> round_trip(
      std::span<const std::vector<std::uint8_t>> requests,
      const TransportHandler& handler) override {
    (void)handler;  // exchanges are computed by the remote workers
    std::vector<TransportArrival> arrivals = run_batch(requests, /*tolerate=*/false);
    std::vector<std::vector<std::uint8_t>> responses(requests.size());
    for (TransportArrival& a : arrivals) responses[a.index] = std::move(a.response);
    return responses;
  }

  std::vector<TransportArrival> collect(std::span<const std::vector<std::uint8_t>> requests,
                                        const TransportHandler& handler,
                                        const ArrivalModel& arrival) override {
    (void)handler;  // exchanges are computed by the remote workers
    (void)arrival;  // genuine socket-arrival order needs no simulation
    return run_batch(requests, options_.tolerate_failures);
  }

 private:
  struct Conn {
    net::TcpConn conn;
    bool busy = false;
    std::size_t index = 0;  ///< request in flight (valid while busy)
    net::Deadline deadline;
  };

  net::Deadline exchange_deadline() const {
    return net::Deadline::after_ms(options_.rpc_timeout_ms);
  }

  net::FrameKind request_kind() const {
    return options_.whole_runs ? net::FrameKind::kRunSpec : net::FrameKind::kExchange;
  }
  net::FrameKind reply_kind() const {
    return options_.whole_runs ? net::FrameKind::kRunResult : net::FrameKind::kReply;
  }

  std::size_t live_count() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.conn.valid() ? 1 : 0;
    return n;
  }

  /// Drops idle connections whose peer hung up. An idle worker never speaks
  /// first, so a readable idle connection can only mean EOF (or protocol
  /// garbage) — either way it is dead weight a participant count must not
  /// include.
  void prune_hangups() {
    std::vector<int> fds;
    std::vector<std::size_t> slot;
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      const Conn& c = conns_[ci];
      if (!c.conn.valid() || c.busy) continue;
      fds.push_back(c.conn.fd());
      slot.push_back(ci);
    }
    if (fds.empty()) return;
    for (const std::size_t f : net::wait_readable(fds, 0)) {
      conns_[slot[f]].conn.close();
    }
    std::erase_if(conns_, [](const Conn& c) { return !c.conn.valid(); });
  }

  /// Accepts one pending connection and handshakes it into the fleet
  /// (recv kHello, send kSetup). False when nothing usable arrived in time.
  bool admit_worker(const net::Deadline& wait) {
    net::TcpConn conn = listener_.accept(wait);
    if (!conn.valid()) return false;
    net::NetFrame hello;
    // A worker's kHello carries no payload; anything longer is not a worker.
    if (!net::recv_frame(conn, &hello, net::Deadline::after_ms(5000), /*max_payload=*/0) ||
        hello.kind != net::FrameKind::kHello) {
      return false;  // not a worker speaking our protocol; drop it
    }
    if (!net::send_frame(conn, {net::FrameKind::kSetup, 0, options_.setup},
                         net::Deadline::after_ms(30000))) {
      return false;
    }
    conns_.push_back({std::move(conn), false, 0, {}});
    return true;
  }

  std::vector<TransportArrival> run_batch(std::span<const std::vector<std::uint8_t>> requests,
                                          bool tolerate) {
    std::vector<TransportArrival> arrivals;
    arrivals.reserve(requests.size());
    if (requests.empty()) return arrivals;

    // First batch: wait for the configured fleet to join. Later batches run
    // with whoever is still connected, plus any reconnects admitted below.
    if (!joined_once_) {
      const net::Deadline join = exchange_deadline();
      while (live_count() < expected_workers_) {
        if (!admit_worker(join) && join.expired()) {
          SUBFEDAVG_CHECK(false, "tcp: only " << live_count() << " of " << expected_workers_
                                              << " workers joined " << listener_.endpoint()
                                              << " within " << options_.rpc_timeout_ms
                                              << " ms (start workers with: worker --connect "
                                              << listener_.endpoint() << ")");
        }
      }
      joined_once_ = true;
    }

    std::deque<std::size_t> queue;
    for (std::size_t i = 0; i < requests.size(); ++i) queue.push_back(i);
    std::size_t unresolved = requests.size();
    std::string sync_error;

    const auto fail_exchange = [&](std::size_t index, const std::string& message) {
      if (tolerate) {
        arrivals.push_back({index, {}, false, message});
      } else if (sync_error.empty()) {
        sync_error = message;
      }
      --unresolved;
    };

    while (unresolved > 0 && sync_error.empty()) {
      // Admit workers that (re)connected while we were busy.
      while (admit_worker(net::Deadline::after_ms(1))) {
      }

      // One exchange in flight per idle connection.
      for (Conn& c : conns_) {
        if (queue.empty()) break;
        if (!c.conn.valid() || c.busy) continue;
        const std::size_t index = queue.front();
        queue.pop_front();
        if (!net::send_frame(c.conn, request_kind(), index, requests[index],
                             exchange_deadline())) {
          c.conn.close();
          queue.push_front(index);  // never acknowledged; try another worker
          continue;
        }
        c.busy = true;
        c.index = index;
        c.deadline = exchange_deadline();
      }

      std::size_t busy = 0;
      for (const Conn& c : conns_) busy += (c.conn.valid() && c.busy) ? 1 : 0;
      if (busy == 0) {
        if (queue.empty()) continue;  // everything resolved this pass
        // Every worker is gone with work left. Give a reconnecting worker one
        // deadline's grace (bounded even with rpc_timeout off — a fleet that
        // fully died must fail the round, never hang it).
        const net::Deadline grace = options_.rpc_timeout_ms > 0 ? exchange_deadline()
                                                                : net::Deadline::after_ms(5000);
        if (live_count() == 0 && !admit_worker(grace)) {
          while (!queue.empty()) {
            fail_exchange(queue.front(), "tcp: no live workers left for exchange " +
                                             std::to_string(queue.front()));
            queue.pop_front();
          }
        }
        continue;
      }

      // Wait for replies (or joins), bounded by the earliest in-flight
      // deadline so a silent worker cannot park the round.
      std::vector<int> fds;
      std::vector<std::size_t> slot;
      int timeout_ms = -1;
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        const Conn& c = conns_[ci];
        if (!c.conn.valid() || !c.busy) continue;
        fds.push_back(c.conn.fd());
        slot.push_back(ci);
        if (!c.deadline.unlimited()) {
          const int left = c.deadline.remaining_ms();
          timeout_ms = timeout_ms < 0 ? left : std::min(timeout_ms, left);
        }
      }
      fds.push_back(listener_.fd());
      slot.push_back(static_cast<std::size_t>(-1));
      const std::vector<std::size_t> ready = net::wait_readable(fds, timeout_ms);

      for (const std::size_t f : ready) {
        const std::size_t ci = slot[f];
        if (ci == static_cast<std::size_t>(-1)) continue;  // join; admitted next pass
        Conn& c = conns_[ci];
        if (!c.conn.valid() || !c.busy) continue;
        net::NetFrame reply;
        if (!net::recv_frame(c.conn, &reply, c.deadline) || reply.tag != c.index ||
            (reply.kind != reply_kind() && reply.kind != net::FrameKind::kError)) {
          c.conn.close();
          c.busy = false;
          fail_exchange(c.index, "tcp: worker serving exchange " + std::to_string(c.index) +
                                     " died before replying");
          continue;
        }
        c.busy = false;
        if (reply.kind == net::FrameKind::kError) {
          // The worker survives — only this exchange failed (handler threw).
          fail_exchange(c.index, "tcp: exchange " + std::to_string(c.index) +
                                     " failed on worker: " +
                                     std::string(reply.payload.begin(), reply.payload.end()));
          continue;
        }
        arrivals.push_back({c.index, std::move(reply.payload), true, {}});
        --unresolved;
      }

      // Evict in-flight exchanges whose deadline passed with no reply.
      for (Conn& c : conns_) {
        if (!c.conn.valid() || !c.busy || !c.deadline.expired()) continue;
        c.conn.close();
        c.busy = false;
        fail_exchange(c.index, "tcp: exchange " + std::to_string(c.index) +
                                   " timed out after " +
                                   std::to_string(options_.rpc_timeout_ms) + " ms");
      }
    }

    std::erase_if(conns_, [](const Conn& c) { return !c.conn.valid(); });

    if (!sync_error.empty()) {
      // Drop every connection: workers reconnect with a fresh handshake, so a
      // stale in-flight reply can never leak into a later round's stream.
      conns_.clear();
      SUBFEDAVG_CHECK(false, sync_error);
    }
    return arrivals;
  }

  TransportOptions options_;
  std::size_t expected_workers_;
  net::TcpListener listener_;
  std::vector<Conn> conns_;
  bool joined_once_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_transport(const std::string& name,
                                          const TransportOptions& options) {
  if (name == "loopback") return std::make_unique<LoopbackTransport>();
  if (name == "subprocess") return std::make_unique<SubprocessTransport>(options.workers);
  if (name == "tcp") {
    SUBFEDAVG_CHECK(!options.listen.empty(),
                    "transport=tcp needs listen=host:port on the coordinator "
                    "(workers join it with: worker --connect <host:port>)");
    return std::make_unique<TcpTransport>(options);
  }
  SUBFEDAVG_CHECK(false,
                  "unknown transport '" << name << "' (loopback | subprocess | tcp)");
  return nullptr;
}

bool has_transport(const std::string& name) {
  return name == "loopback" || name == "subprocess" || name == "tcp";
}

}  // namespace subfed
