#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <sstream>

#include "comm/serialize.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/json.h"
#include "util/logging.h"

namespace subfed {

namespace {

net::Deadline request_io_deadline() { return net::Deadline::after_ms(5000); }

/// Largest operator request payload: requests carry nothing or a short ASCII
/// integer (a tail cursor or a client index), so a peer claiming more is
/// dropped at its length prefix instead of read until the deadline.
constexpr std::size_t kMaxRequestBytes = 4096;

/// Largest kMetricsTail reply chunk: big enough to drain thousands of round
/// records per page, small enough to never stress the framing layer.
constexpr std::size_t kTailChunkBytes = 256 * 1024;

/// Captures the round-end/eval facts tick_round logs, chained in front of the
/// caller's observer so recording never changes what tests/operators see.
class RoundRecorder final : public RoundObserver {
 public:
  void on_round_end(const RoundEndInfo& info) override {
    saw_round_ = true;
    sampled_ = info.sampled.size();
    up_bytes_ = info.round_up_bytes;
    down_bytes_ = info.round_down_bytes;
    round_seconds_ = info.round_seconds;
  }
  void on_eval(std::size_t round, double avg_accuracy) override {
    (void)round;
    saw_eval_ = true;
    accuracy_ = avg_accuracy;
  }

  bool saw_round() const noexcept { return saw_round_; }
  std::size_t sampled() const noexcept { return sampled_; }
  std::uint64_t up_bytes() const noexcept { return up_bytes_; }
  std::uint64_t down_bytes() const noexcept { return down_bytes_; }
  double round_seconds() const noexcept { return round_seconds_; }
  bool saw_eval() const noexcept { return saw_eval_; }
  double accuracy() const noexcept { return accuracy_; }

 private:
  bool saw_round_ = false;
  std::size_t sampled_ = 0;
  std::uint64_t up_bytes_ = 0;
  std::uint64_t down_bytes_ = 0;
  double round_seconds_ = 0.0;
  bool saw_eval_ = false;
  double accuracy_ = 0.0;
};

}  // namespace

ServerLoop::ServerLoop(ServeOptions options)
    : options_(std::move(options)),
      session_(FederationSession::from_spec(options_.spec)),
      request_listener_(net::parse_host_port(options_.spec.status_listen)) {
  SUBFEDAVG_CHECK(options_.spec.serve == 1,
                  "ServerLoop needs a serve=1 spec (got serve=" << options_.spec.serve << ")");
  transport_ = session_->algorithm().channel().transport();
  SUBFEDAVG_CHECK(transport_ != nullptr && transport_->accept_fd() >= 0,
                  "ServerLoop needs a remote (tcp) transport");
  checkpoint_path_ = options_.spec.resolved_checkpoint_path();
  // buffer_k is the natural quorum: a buffered round closes on its first
  // buffer_k replies, so that many connected workers keep a round from
  // stalling on an empty fleet. min_participants overrides it for operators
  // that want a larger (or smaller) bar.
  min_participants_ = options_.spec.min_participants > 0
                          ? options_.spec.min_participants
                          : std::max<std::size_t>(1, options_.spec.buffer_k);
  if (std::filesystem::exists(checkpoint_path_)) {
    session_->restore(checkpoint_path_);
    resumed_ = true;
    resumed_from_ = session_->round();
    SUBFEDAVG_LOG(kInfo) << "serve: resumed federation at round " << resumed_from_
                         << " from " << checkpoint_path_;
  }
  // Observability flags only ever RAISE the level: --telemetry-log needs the
  // counters tier for phase stopwatches, --telemetry-trace the span buffers.
  if (!options_.telemetry_trace.empty() &&
      !telemetry::enabled(telemetry::Level::kTrace)) {
    telemetry::set_level(telemetry::Level::kTrace);
  }
  if (!options_.telemetry_log.empty()) {
    if (!telemetry::enabled(telemetry::Level::kCounters)) {
      telemetry::set_level(telemetry::Level::kCounters);
    }
    event_log_ = std::make_unique<telemetry::EventLog>(options_.telemetry_log,
                                                       options_.telemetry_log_rotate);
    std::ostringstream os;
    os << "{\"event\": " << (resumed_ ? "\"resume\"" : "\"start\"")
       << ", \"round\": " << session_->round()
       << ", \"checkpoint_path\": ";
    write_json_string(os, checkpoint_path_);
    os << "}";
    log_event(os.str());
  }
}

std::string ServerLoop::worker_endpoint() const { return transport_->endpoint(); }

void ServerLoop::log_event(const std::string& line) noexcept {
  if (!event_log_) return;
  try {
    event_log_->append(line);
  } catch (const std::exception& e) {
    SUBFEDAVG_LOG(kWarn) << "serve: telemetry log append failed: " << e.what();
  }
}

std::string ServerLoop::status_json() const {
  const RunResult& progress = session_->progress();
  const Channel& channel = session_->algorithm().channel();
  const double rounds_per_sec =
      wall_seconds_ticking_ > 0.0
          ? static_cast<double>(rounds_this_process_) / wall_seconds_ticking_
          : 0.0;
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"algorithm\": ";
  write_json_string(os, session_->algorithm().name());
  os << ",\n  \"round\": " << session_->round()
     << ",\n  \"rounds_this_process\": " << rounds_this_process_
     << ",\n  \"rounds_per_sec\": " << rounds_per_sec
     << ",\n  \"resumed_from\": " << resumed_from_
     << ",\n  \"workers\": " << transport_->connected_peers()
     << ",\n  \"min_participants\": " << min_participants_
     << ",\n  \"up_bytes\": " << session_->total_up_bytes()
     << ",\n  \"down_bytes\": " << session_->total_down_bytes()
     << ",\n  \"total_bytes\": " << session_->total_up_bytes() + session_->total_down_bytes()
     << ",\n  \"simulated_seconds\": " << progress.simulated_seconds
     << ",\n  \"dropped_clients\": " << progress.dropped_clients
     << ",\n  \"skipped_rounds\": " << progress.skipped_rounds
     << ",\n  \"stale_updates\": " << channel.stale_updates()
     << ",\n  \"evicted_updates\": " << channel.evicted_updates()
     << ",\n  \"parked_updates\": " << channel.parked_updates()
     << ",\n  \"last_eval_round\": " << last_eval_round_
     << ",\n  \"last_eval_accuracy\": " << last_eval_accuracy_
     << ",\n  \"snapshots\": " << snapshots_
     << ",\n  \"checkpoint_path\": ";
  write_json_string(os, checkpoint_path_);
  os << ",\n  \"telemetry_level\": ";
  write_json_string(os, telemetry::level_name(telemetry::level()));
  os << ",\n  \"requests_served\": " << requests_served_ << "\n}\n";
  return os.str();
}

void ServerLoop::run(RoundObserver* observer) {
  SUBFEDAVG_LOG(kInfo) << "serve: workers join " << worker_endpoint() << "; requests on "
                       << request_endpoint() << " (round " << session_->round() << ")";
  while (!stop_.load(std::memory_order_relaxed)) {
    transport_->admit_pending();
    service_requests();
    if (stop_.load(std::memory_order_relaxed)) break;
    if (options_.max_rounds > 0 && rounds_this_process_ >= options_.max_rounds) break;
    if (transport_->connected_peers() >= min_participants_) {
      tick_round(observer);
      continue;
    }
    wait_for_events();
  }
  // One last snapshot so a clean exit loses nothing, whatever the cadence.
  session_->save(checkpoint_path_);
  ++snapshots_;
  if (event_log_) {
    std::ostringstream os;
    os << "{\"event\": \"stop\", \"round\": " << session_->round()
       << ", \"rounds_this_process\": " << rounds_this_process_ << "}";
    log_event(os.str());
  }
  if (!options_.telemetry_trace.empty()) {
    try {
      telemetry::write_chrome_trace(options_.telemetry_trace, telemetry::drain_spans());
      SUBFEDAVG_LOG(kInfo) << "serve: wrote Chrome trace to " << options_.telemetry_trace;
    } catch (const std::exception& e) {
      SUBFEDAVG_LOG(kWarn) << "serve: Chrome trace export failed: " << e.what();
    }
  }
  SUBFEDAVG_LOG(kInfo) << "serve: stopped at round " << session_->round() << " ("
                       << rounds_this_process_ << " this process), checkpoint at "
                       << checkpoint_path_;
}

void ServerLoop::wait_for_events() {
  std::vector<int> fds;
  fds.push_back(request_listener_.fd());
  for (const net::TcpConn& conn : request_conns_) fds.push_back(conn.fd());
  if (transport_->accept_fd() >= 0) fds.push_back(transport_->accept_fd());
  net::wait_readable(fds, static_cast<int>(options_.idle_wait_ms));
}

void ServerLoop::tick_round(RoundObserver* observer) {
  const auto start = std::chrono::steady_clock::now();
  // The recorder rides in front of the caller's observer only when the event
  // log is open — the no-telemetry tick stays exactly the historical path.
  RoundRecorder recorder;
  ObserverChain chain;
  RoundObserver* effective = observer;
  if (event_log_) {
    chain.attach(&recorder);
    if (observer != nullptr) chain.attach(observer);
    effective = &chain;
  }
  try {
    session_->advance_round(effective);
    ++rounds_this_process_;
    if (options_.spec.eval_every > 0 && session_->round() % options_.spec.eval_every == 0) {
      last_eval_accuracy_ = session_->evaluate(effective);
      last_eval_round_ = session_->round();
    }
    if (session_->round() % options_.spec.checkpoint_every == 0) {
      session_->save(checkpoint_path_);
      ++snapshots_;
    }
    if (event_log_) {
      const FederationSession::RoundPhases& phases = session_->last_phases();
      std::ostringstream os;
      os.precision(std::numeric_limits<double>::max_digits10);
      os << "{\"event\": \"round\", \"round\": " << session_->round()
         << ", \"sampled\": " << recorder.sampled()
         << ", \"skipped\": " << (recorder.saw_round() ? "false" : "true")
         << ", \"up_bytes\": " << recorder.up_bytes()
         << ", \"down_bytes\": " << recorder.down_bytes()
         << ", \"round_seconds\": " << recorder.round_seconds()
         << ", \"workers\": " << transport_->connected_peers()
         << ", \"phases\": {\"sample\": " << phases.sample
         << ", \"broadcast_encode\": " << phases.broadcast_encode
         << ", \"transport_exchange\": " << phases.transport_exchange
         << ", \"collect\": " << phases.collect
         << ", \"aggregate\": " << phases.aggregate
         << ", \"eval\": " << phases.eval << "}";
      if (recorder.saw_eval()) os << ", \"eval_accuracy\": " << recorder.accuracy();
      os << "}";
      log_event(os.str());
    }
  } catch (const std::exception& e) {
    // A failed round (fleet died mid-exchange in fail-fast mode, say) must
    // not take the service down: workers reconnect with the usual backoff
    // and the next quorum tick retries. The round counter HAS advanced —
    // matching a dropout-skipped round — so the stream stays deterministic.
    ++rounds_this_process_;
    SUBFEDAVG_LOG(kWarn) << "serve: round " << session_->round() << " failed: " << e.what();
    if (event_log_) {
      std::ostringstream os;
      os << "{\"event\": \"round_failed\", \"round\": " << session_->round()
         << ", \"error\": ";
      write_json_string(os, e.what());
      os << "}";
      log_event(os.str());
    }
  }
  wall_seconds_ticking_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void ServerLoop::service_requests() {
  // Paging clients (fedctl tail) send one request per reply; if servicing ran
  // exactly once per round tick, such a client could never catch up with an
  // event log that gains a record every round. Keep draining while the
  // conversation is hot — the follow-up request (or reconnect: the listener
  // is part of the poll set) lands within a scheduling quantum on any sane
  // link — bounded so a chatty operator cannot starve the rounds. Idle
  // connections cost nothing (the first poll is non-blocking) and a finished
  // conversation costs one trailing wait.
  for (int spin = 0; spin < 64; ++spin) {
    // Admit operator connections (no handshake: the first frame is a request).
    while (true) {
      net::TcpConn conn = request_listener_.accept(net::Deadline::after_ms(1));
      if (!conn.valid()) break;
      request_conns_.push_back(std::move(conn));
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    std::vector<int> fds;
    fds.reserve(request_conns_.size() + 1);
    fds.push_back(request_listener_.fd());
    for (const net::TcpConn& conn : request_conns_) fds.push_back(conn.fd());
    const std::vector<std::size_t> ready = net::wait_readable(fds, spin == 0 ? 0 : 10);
    if (ready.empty()) return;
    for (const std::size_t i : ready) {
      if (i == 0) continue;  // listener: accepted at the top of the next spin
      net::TcpConn& conn = request_conns_[i - 1];
      net::NetFrame frame;
      if (!net::recv_frame(conn, &frame, request_io_deadline(), kMaxRequestBytes) ||
          !handle_request(conn, frame)) {
        conn.close();
      }
    }
    std::erase_if(request_conns_, [](const net::TcpConn& c) { return !c.valid(); });
  }
}

bool ServerLoop::handle_request(net::TcpConn& conn, const net::NetFrame& frame) {
  const auto reply = [&](std::span<const std::uint8_t> payload) {
    return net::send_frame(conn, net::FrameKind::kReply, frame.tag, payload,
                           request_io_deadline());
  };
  const auto reply_text = [&](const std::string& text) {
    return reply(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  };
  const auto reply_error = [&](const std::string& text) {
    return net::send_frame(
        conn, net::FrameKind::kError, frame.tag,
        std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(text.data()),
                                      text.size()),
        request_io_deadline());
  };
  ++requests_served_;
  switch (frame.kind) {
    case net::FrameKind::kStatus: {
      // Conditional poll (fedctl status --watch): same stamp protocol as
      // kGetModel — an unchanged round earns an empty not-modified reply.
      const std::uint64_t stamp = static_cast<std::uint64_t>(session_->round()) + 1;
      if ((frame.tag & kModelConditionalTag) != 0 &&
          (frame.tag & ~kModelConditionalTag) == stamp) {
        return net::send_frame(conn, net::FrameKind::kReply, stamp, {},
                               request_io_deadline());
      }
      const std::string text = status_json();
      return net::send_frame(
          conn, net::FrameKind::kReply, stamp,
          std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(text.data()),
                                        text.size()),
          request_io_deadline());
    }
    case net::FrameKind::kMetrics:
      return reply_text(telemetry::metrics_json());
    case net::FrameKind::kMetricsTail: {
      try {
        SUBFEDAVG_CHECK(event_log_ != nullptr,
                        "telemetry log not enabled (start serve with --telemetry-log)");
        std::uint64_t cursor = 0;
        if (!frame.payload.empty()) {
          const std::string text(frame.payload.begin(), frame.payload.end());
          std::size_t parsed = 0;
          cursor = std::stoull(text, &parsed);
          SUBFEDAVG_CHECK(parsed == text.size(), "tail cursor '" << text << "'");
        }
        std::uint64_t next = cursor;
        const std::string chunk = event_log_->tail(cursor, kTailChunkBytes, &next);
        return net::send_frame(
            conn, net::FrameKind::kReply, next,
            std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(chunk.data()), chunk.size()),
            request_io_deadline());
      } catch (const std::exception& e) {
        return reply_error(e.what());
      }
    }
    case net::FrameKind::kGetModel: {
      try {
        if (frame.payload.empty()) {
          // Round-stamped byte cache: the global model is encoded at most
          // once per round; every further request until the next round tick
          // serves the identical bytes.
          if (model_cache_round_ != session_->round()) {
            model_cache_.clear();
            put_sections(model_cache_, {session_->algorithm().global_model()});
            model_cache_round_ = session_->round();
            ++model_encodes_;
          }
          const std::uint64_t stamp = static_cast<std::uint64_t>(session_->round()) + 1;
          if ((frame.tag & kModelConditionalTag) != 0 &&
              (frame.tag & ~kModelConditionalTag) == stamp) {
            // Not modified: the requester already holds this round's model.
            return net::send_frame(conn, net::FrameKind::kReply, stamp, {},
                                   request_io_deadline());
          }
          return net::send_frame(conn, net::FrameKind::kReply, stamp, model_cache_,
                                 request_io_deadline());
        }
        // Non-empty payload: an ASCII client index — that client's
        // personalized (pruned) side-band state, or its view of the global
        // model for algorithms without per-client state.
        const std::string text(frame.payload.begin(), frame.payload.end());
        std::size_t parsed = 0;
        const unsigned long long k = std::stoull(text, &parsed);
        SUBFEDAVG_CHECK(parsed == text.size(), "client index '" << text << "'");
        SUBFEDAVG_CHECK(k < session_->algorithm().num_clients(),
                        "client " << k << " out of range (federation has "
                                  << session_->algorithm().num_clients() << ")");
        std::vector<StateDict> sections =
            session_->algorithm().client_sections(static_cast<std::size_t>(k));
        if (sections.empty()) sections.push_back(session_->algorithm().global_model());
        std::vector<std::uint8_t> body;
        put_sections(body, sections);
        return reply(body);
      } catch (const std::exception& e) {
        return reply_error(e.what());
      }
    }
    case net::FrameKind::kCheckpointNow:
      try {
        session_->save(checkpoint_path_);
        ++snapshots_;
        return reply_text(checkpoint_path_);
      } catch (const std::exception& e) {
        return reply_error(e.what());
      }
    case net::FrameKind::kShutdown:
      request_stop();
      return reply_text("stopping");
    default:
      // Unknown request kinds get an error but keep the connection — a newer
      // fedctl talking to an older server should see the message, not a hangup.
      return reply_error("unsupported request kind");
  }
}

}  // namespace subfed
