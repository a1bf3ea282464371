// Pluggable byte transports for the client↔server channel.
//
// A Transport moves one encoded request (server → client) and one encoded
// response (client → server) per exchange; it knows nothing about envelopes
// or codecs — comm/channel.h owns those. Three backends:
//
//   loopback    — in-process: the handler runs on the calling process's
//                 thread pool, but every request/response is a real byte
//                 buffer the handler must decode, so measured traffic is
//                 materialized, not estimated.
//   subprocess  — fork-per-round worker pool: each exchange runs in a forked
//                 child speaking length-prefixed envelopes over pipes. The
//                 child inherits the federation state copy-on-write, computes
//                 the client's round, replies, and exits. A crashed or killed
//                 worker fails only the exchange (and hence the run) it was
//                 serving — the sweep engine's failure isolation contains it.
//   tcp         — real sockets (src/net/): the coordinator listens on
//                 TransportOptions::listen and dispatches exchanges to worker
//                 processes (tools/worker) that joined it. Requests carry the
//                 client's full side-band state down (the handler cannot
//                 touch this process's memory at all), replies report genuine
//                 network arrival order, and a dead or timed-out connection
//                 fails only its exchange: in tolerant (buffered) mode it
//                 surfaces as TransportArrival::ok == false — an evicted
//                 straggler — never a hung round.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace subfed {

/// Client-side half of an exchange: request bytes in, response bytes out.
/// `index` identifies the exchange within the batch (for per-slot state).
/// Must be safe to call concurrently for distinct indices.
using TransportHandler =
    std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>, std::size_t index)>;

/// One reply as it landed: `index` names the request it answers. A tolerant
/// transport (tcp under buffered aggregation) reports a dead or timed-out
/// exchange as ok == false with an empty response instead of throwing.
struct TransportArrival {
  std::size_t index = 0;
  std::vector<std::uint8_t> response;
  bool ok = true;
  std::string error;  ///< diagnosis when !ok
};

/// Everything a transport can be configured with. Loopback ignores all of it;
/// subprocess uses `workers`; tcp uses the rest.
struct TransportOptions {
  /// Subprocess: fork fan-out per wave (0 → hardware concurrency).
  /// Tcp: worker connections to wait for before the first round (0 → 1).
  std::size_t workers = 0;
  std::string listen;       ///< tcp: coordinator bind address "host:port"
  int rpc_timeout_ms = 0;   ///< tcp: per-exchange deadline; 0 = wait forever
  /// Tcp: opaque session blob (an ExperimentSpec kv text) sent to every
  /// joining worker so it can mirror the federation before serving.
  std::vector<std::uint8_t> setup;
  /// Tcp: report dead exchanges as ok == false arrivals instead of throwing
  /// (buffered aggregation evicts them as stragglers). When false, a dead
  /// worker fails the round like a subprocess crash does.
  bool tolerate_failures = false;
  /// Tcp: each request is a whole experiment spec (kRunSpec → kRunResult)
  /// rather than one channel exchange (kExchange → kReply) — the sweep
  /// engine's run-sharding mode. The byte contract is unchanged: request
  /// bytes out, response bytes back, arrival order preserved.
  bool whole_runs = false;
};

/// Simulated completion time of exchange `index` whose request/response
/// framed to the given byte counts — in-process transports, which compute
/// every reply locally, use it to order replies the way a heterogeneous
/// fleet (comm/round_time.h's LinkFleet) would have delivered them.
using ArrivalModel = std::function<double(std::size_t index, std::size_t request_bytes,
                                          std::size_t response_bytes)>;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::string name() const = 0;

  /// True when the handler runs outside the caller's address space (so any
  /// client-side state mutation must be shipped back inside the response).
  virtual bool detached() const noexcept = 0;

  /// True when exchanges run on remote machines: requests must additionally
  /// carry all per-client state DOWN (the remote end shares no memory with
  /// the caller, not even copy-on-write).
  virtual bool remote() const noexcept { return false; }

  /// Address peers connect to ("host:port" with any ephemeral port
  /// resolved); empty for in-process and fork transports.
  virtual std::string endpoint() const { return {}; }

  /// Remote peers currently connected; 0 for in-process and fork transports.
  /// The resident server gates round ticks on this (serve/server.h).
  virtual std::size_t connected_peers() const noexcept { return 0; }

  /// Admits every peer waiting to join or rejoin, without blocking, and
  /// drops idle connections whose peer hung up (so connected_peers() stays
  /// honest between batches). Returns the number admitted. No-op for
  /// transports without peers.
  virtual std::size_t admit_pending() { return 0; }

  /// Listening fd an event loop can poll for incoming joins (net/io.h
  /// wait_readable); -1 when the transport accepts no connections.
  virtual int accept_fd() const noexcept { return -1; }

  /// Round-trips every request through the handler, returning the responses
  /// in request order. Implementations may run handlers concurrently; a
  /// handler that throws (or a worker that dies) surfaces as CheckError here.
  virtual std::vector<std::vector<std::uint8_t>> round_trip(
      std::span<const std::vector<std::uint8_t>> requests,
      const TransportHandler& handler) = 0;

  /// Round-trips every request like round_trip, but returns replies in
  /// ARRIVAL order — the seam buffered aggregation closes a round on.
  /// Subprocess reports genuine pipe-arrival order (the order response frames
  /// started landing); in-process transports order by `arrival` (ties broken
  /// by index), falling back to request order when no model is given. Every
  /// request is always answered, reported as a failed (ok == false) arrival
  /// by a tolerant transport, or the call throws: a caller that closes its
  /// round after the first K replies parks the rest — workers are never
  /// abandoned mid-reply and no pipe outlives the call.
  virtual std::vector<TransportArrival> collect(
      std::span<const std::vector<std::uint8_t>> requests, const TransportHandler& handler,
      const ArrivalModel& arrival = nullptr);
};

/// Builds a transport by name ("loopback" | "subprocess" | "tcp"). Throws
/// CheckError on unknown names ("memory" is not a Transport — the channel
/// short-circuits it without materializing bytes) and on a tcp configuration
/// with no listen address.
std::unique_ptr<Transport> make_transport(const std::string& name,
                                          const TransportOptions& options);

/// True for names make_transport accepts.
bool has_transport(const std::string& name);

}  // namespace subfed
