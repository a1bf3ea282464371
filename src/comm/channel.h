// Typed client↔server message channel with a composable codec stack.
//
// Every exchange the federation makes is a real message: a Broadcast carries
// the (optionally masked) server state down, a ClientUpdate carries the
// client's (masked state, mask, example count) back up. Payloads pass through
// a codec stack before they count against the byte ledger:
//
//   sparse   — mask-aware bitmap + kept values (comm/serialize.h; always on)
//   delta    — uplink values sent relative to the broadcast the client
//              received this round (codec=delta); near-zero residuals are
//              what make the quantizers bite
//   quantize — fp16 / int8 kept-value precision, applied mask-aware (fp16
//              through comm/quantize.h's scalar conversion)
//
// Transports (comm/transport.h) decide where the client half runs:
//
//   memory     — the legacy fast path: no bytes are materialized, the ledger
//                charges comm/serialize.h's payload model (no headers), and
//                lossy codecs are rejected. Bit-identical to the pre-channel
//                in-memory implementation.
//   loopback   — every payload genuinely round-trips encode → decode in
//                process; the ledger charges the materialized message bytes.
//   subprocess — like loopback, but the client half runs in forked workers
//                speaking length-prefixed envelopes over pipes (crash
//                isolation). Requests carry the client's state down and
//                replies carry its new state back, as side-band sections
//                that are never charged.
//   tcp        — like subprocess, but the client half runs in remote worker
//                processes (tools/worker) joined over real sockets, and a
//                worker that dies or times out mid-exchange is evicted as a
//                straggler in buffered mode instead of hanging the round.
//
// One decode path serves the client half everywhere: serve_exchange decodes
// a request, runs the ClientFn and encodes the reply, for the loopback
// handler, the subprocess child and the tcp worker alike.
//
// Corruption (FlContext's corrupt_fraction/corrupt_noise) is injected after
// the server decodes an upload — post-codec, so a corrupted update is exactly
// what a byzantine sender could have put on the wire — with the same RNG
// stream for every transport, keeping runs comparable.
//
// Aggregation modes (ChannelConfig::buffered):
//
//   sync     — the round closes when every sampled client replied; round time
//              is the slowest participant (comm/round_time.h's max).
//   buffered — FedBuff-style: the round closes after the first `buffer_k`
//              replies (parked updates from earlier rounds fill buffer slots
//              first); later replies are parked for the next round with a
//              staleness counter and delivered down-weighted by
//              1/(1+staleness)^staleness_decay (ClientUpdate::weight, honored
//              mask-aware by every aggregation rule). Updates parked past
//              max_staleness are evicted. Arrival order comes from the
//              transport: subprocess reports genuine pipe order, loopback and
//              memory order by each client's simulated link+compute time
//              under the LinkFleet. Round time is the K-th arrival instead of
//              the max. With buffer_k == sampled count nothing is ever parked
//              and the mode is bit-identical to sync.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/ledger.h"
#include "comm/round_time.h"
#include "comm/serialize.h"
#include "comm/transport.h"
#include "core/aggregate.h"
#include "nn/parameter.h"
#include "pruning/mask.h"

namespace subfed {

// ---------------------------------------------------------------------------
// Codec configuration (QuantCodec and the payload codec are comm/serialize.h's)

struct ChannelConfig {
  std::string transport = "memory";  ///< memory | loopback | subprocess | tcp
  bool delta = false;                ///< uplink delta vs the received broadcast
  QuantCodec quantize = QuantCodec::kNone;
  std::size_t workers = 0;           ///< subprocess fan-out / tcp fleet size
  double corrupt_fraction = 0.0;     ///< post-decode upload corruption
  double corrupt_noise = 1.0;
  std::uint64_t seed = 1;            ///< corruption stream seed
  // Remote (tcp) transport — see comm/transport.h's TransportOptions.
  std::string listen;                ///< tcp coordinator bind "host:port"
  int rpc_timeout_ms = 120000;       ///< tcp per-exchange deadline; 0 = forever
  std::vector<std::uint8_t> remote_setup;  ///< session blob for joining workers
  // Buffered (FedBuff-style) aggregation — see the header comment.
  bool buffered = false;             ///< close rounds after buffer_k replies
  std::size_t buffer_k = 0;          ///< replies that close a round; 0 → all
  double staleness_decay = 0.5;      ///< weight = 1/(1+staleness)^decay
  std::size_t max_staleness = 4;     ///< parked updates older than this drop
};

// ---------------------------------------------------------------------------
// Envelopes

enum class MessageKind : std::uint8_t { kBroadcast = 1, kClientUpdate = 2 };

/// One message: a fixed header plus length-prefixed payload sections.
/// Section 0 is the codec-encoded logical payload (the bytes the ledger
/// charges); further sections are uncharged side-band client state (detached
/// transports).
struct Envelope {
  MessageKind kind = MessageKind::kBroadcast;
  std::uint32_t round = 0;
  std::uint32_t client = 0;
  std::uint64_t num_examples = 0;  ///< ClientUpdate only
  QuantCodec quantize = QuantCodec::kNone;
  bool delta = false;
  std::vector<std::vector<std::uint8_t>> sections;
};

std::vector<std::uint8_t> encode_envelope(const Envelope& envelope);
Envelope decode_envelope(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Delta codec

/// Subtracts `reference` from `state` in place — kept positions of covered
/// entries, every position of uncovered ones. Entries absent from `reference`
/// are left untouched. apply_delta adds it back: the uplink delta codec.
void subtract_reference(StateDict& state, const ModelMask* mask, const StateDict& reference);
void apply_reference(StateDict& state, const ModelMask* mask, const StateDict& reference);

// ---------------------------------------------------------------------------
// Channel

/// One sampled client's work order, built by the algorithm.
struct ClientJob {
  std::size_t client = 0;
  const StateDict* broadcast = nullptr;  ///< server payload down (required)
  const ModelMask* mask = nullptr;       ///< limits the broadcast to kept entries
  /// Side-band client state shipped DOWN with the broadcast (uncharged). Fill
  /// only when Channel::detached(): a detached client sees nothing of this
  /// process, so each exchange carries everything the client needs in.
  std::vector<StateDict> state;
};

/// What the client-side computation returns.
struct ClientResult {
  ClientUpdate update;            ///< uplink payload (mask optional)
  std::vector<StateDict> state;   ///< the client's new state (side-band)
};

/// The server-side view of one completed exchange. Synchronous rounds yield
/// them in sampled order; buffered rounds yield parked (stale) deliveries
/// first, then this round's fresh arrivals in sampled order.
struct Exchange {
  std::size_t client = 0;
  ClientUpdate update;            ///< as decoded by the server (post-codec,
                                  ///< post-corruption; `weight` carries the
                                  ///< staleness down-weight)
  std::vector<StateDict> state;   ///< side-band client state, as the reply
                                  ///< carried it
  bool corrupted = false;
  std::size_t staleness = 0;      ///< rounds this update waited parked
};

/// Client-side computation: receives the round, its job and the broadcast AS
/// RECEIVED (post-codec — lossy codecs affect training exactly as deployed).
/// The memory path passes the caller's job; serve_exchange rebuilds it from
/// the wire: `job.client`, `job.state` (side-band sections shipped down) and
/// `job.broadcast == &received` (no pre-codec server state crosses). Must be
/// safe to call concurrently for distinct jobs.
using ClientFn = std::function<ClientResult(std::size_t round, const ClientJob& job,
                                            const StateDict& received)>;

class Channel {
 public:
  /// Validates the configuration (lossy codecs need a materializing
  /// transport) and constructs the transport backend. `ledger` must outlive
  /// the channel.
  Channel(ChannelConfig config, CommLedger* ledger);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const ChannelConfig& config() const noexcept { return config_; }

  /// True when the client half runs outside this process (subprocess, tcp):
  /// jobs must carry each client's state down (ClientJob::state) and replies
  /// carry its new state back.
  bool detached() const noexcept { return transport_ != nullptr && transport_->detached(); }

  /// The transport's accept address ("host:port" with any ephemeral port
  /// resolved); empty for in-process backends. Workers join it.
  std::string transport_endpoint() const {
    return transport_ != nullptr ? transport_->endpoint() : std::string{};
  }

  /// The transport itself (null on the memory fast path) — the resident
  /// server (serve/server.h) admits joins and counts participants through it
  /// between rounds.
  Transport* transport() noexcept { return transport_.get(); }

  /// Client side of one exchange: decodes a request (a Broadcast envelope),
  /// runs `fn`, and encodes the reply envelope through the codec stack. The
  /// loopback handler, the subprocess child and the tcp worker all answer
  /// through here, which is what makes their rounds byte-identical.
  /// `charged_bytes`, when non-null, receives the reply's charged
  /// (section-0) size.
  std::vector<std::uint8_t> serve_exchange(std::span<const std::uint8_t> request_bytes,
                                           const ClientFn& fn,
                                           std::size_t* charged_bytes = nullptr) const;

  /// Heterogeneous link endowments for the round-time model and buffered
  /// arrival ordering. Not owned; must outlive the channel (or be reset).
  /// Null (the default) means every client runs at the nominal LinkModel
  /// rates.
  void set_link_fleet(const LinkFleet* fleet) noexcept { fleet_ = fleet; }

  /// Runs one round of exchanges: broadcast down, client compute, update up —
  /// through the configured transport and codec stack. Records per-client
  /// bytes in the ledger (sampled order) and retains them for the round-time
  /// model. In buffered mode, closes the round after the first buffer_k
  /// replies and parks the rest (see the header comment). Throws CheckError
  /// when a transport worker dies.
  std::vector<Exchange> run_round(std::size_t round, std::span<const ClientJob> jobs,
                                  const ClientFn& client_fn);

  /// Per-client costs of the most recent round (for comm/round_time.h).
  const std::vector<ClientRoundCost>& last_round_costs() const noexcept {
    return last_round_costs_;
  }

  /// Wall-clock phase breakdown of the most recent run_round, in seconds.
  /// All zeros when telemetry is off (the stopwatches never read the clock).
  /// `encode` is the broadcast-encode fan-out, `exchange` the transport
  /// round-trip, `collect` the reply decode + round bookkeeping; the memory
  /// fast path reports its single fused pass as `exchange`.
  struct PhaseSeconds {
    double encode = 0.0;
    double exchange = 0.0;
    double collect = 0.0;
  };
  const PhaseSeconds& last_phase_seconds() const noexcept { return last_phase_seconds_; }

  /// Simulated duration of the most recent round under the link fleet: the
  /// slowest participant in sync mode, the K-th arrival in buffered mode.
  double last_round_seconds() const noexcept { return last_round_seconds_; }

  /// Updates delivered late (staleness ≥ 1) so far (buffered mode).
  std::size_t stale_updates() const noexcept { return stale_updates_; }
  /// Updates evicted after waiting parked past max_staleness.
  std::size_t evicted_updates() const noexcept { return evicted_updates_; }
  /// Updates currently parked for a future round.
  std::size_t parked_updates() const noexcept { return parked_.size(); }

  /// Uploads replaced by noise so far (corrupt_fraction injection).
  std::size_t corrupted_updates() const noexcept { return corrupted_updates_; }

  /// What the same exchanges would have cost as dense fp32 (4 bytes/scalar,
  /// no masks, no codecs) — the compression baseline.
  std::uint64_t dense_reference_bytes() const noexcept { return dense_reference_bytes_; }
  /// Bytes actually charged to the ledger by this channel.
  std::uint64_t charged_bytes() const noexcept { return charged_bytes_; }
  /// dense_reference_bytes / charged_bytes (0 when nothing was exchanged).
  double compression_ratio() const noexcept;

 private:
  struct Slot;  // per-job scratch shared between the transport lambda and the
                // post-processing pass

  /// A reply that landed after its round closed, waiting to join a later one.
  struct ParkedUpdate {
    Exchange exchange;
    std::size_t origin_round = 0;  ///< round whose exchange produced it
    std::size_t arrival_rank = 0;  ///< arrival position within origin round
    /// Simulated time this straggler is still in flight past its origin
    /// round's close; decremented by each subsequent round's duration. A
    /// round that fills its buffer from parked updates cannot close before
    /// they actually land, so their remaining flight time floors the round
    /// duration — straggler overhang carries across rounds instead of
    /// vanishing.
    double remaining_seconds = 0.0;
  };

  std::vector<Exchange> run_in_memory(std::size_t round, std::span<const ClientJob> jobs,
                                      const ClientFn& client_fn);
  std::vector<Exchange> run_materialized(std::size_t round, std::span<const ClientJob> jobs,
                                         const ClientFn& client_fn);
  /// `dense_scalars[i]` is exchange i's logical fp32-dense scalar count (down
  /// + up) — the compression baseline. Also derives each exchange's simulated
  /// completion time and the synchronous round duration.
  void finish_round(std::size_t round, std::span<const ClientJob> jobs,
                    std::vector<Exchange>& exchanges,
                    std::span<const std::size_t> up_bytes,
                    std::span<const std::size_t> down_bytes,
                    std::span<const std::size_t> dense_scalars);
  /// Buffered close: selects the round's buffer (parked first, then fresh in
  /// arrival order), parks the overflow, applies staleness weights and the
  /// K-th-arrival round time. `arrival_order` holds fresh-exchange indices in
  /// arrival order.
  std::vector<Exchange> close_buffered_round(std::size_t round,
                                             std::vector<Exchange> fresh,
                                             std::span<const std::size_t> arrival_order);
  double arrival_seconds(const ClientRoundCost& cost) const;

  ChannelConfig config_;
  CommLedger* ledger_;
  std::unique_ptr<Transport> transport_;  ///< null for the memory fast path
  const LinkFleet* fleet_ = nullptr;      ///< not owned; null → nominal rates
  std::vector<ClientRoundCost> last_round_costs_;
  std::vector<double> last_arrival_seconds_;  ///< aligned with fresh exchanges
  /// Fresh-exchange indices in transport arrival order; empty on the memory
  /// fast path (simulated order is derived from last_arrival_seconds_).
  std::vector<std::size_t> last_fresh_arrival_order_;
  /// True when the last round ran in memory (arrival order must be simulated
  /// from last_arrival_seconds_). A genuine transport order stays authoritative
  /// even when shorter than the round — tcp reports failed exchanges by
  /// omission, and those are evictions, not candidates for re-sorting.
  bool last_order_simulated_ = true;
  /// Per-exchange failure flags for the last materialized round (tcp worker
  /// deaths); empty means every exchange delivered.
  std::vector<char> last_failed_;
  double last_round_seconds_ = 0.0;
  PhaseSeconds last_phase_seconds_;
  std::vector<ParkedUpdate> parked_;
  std::size_t stale_updates_ = 0;
  std::size_t evicted_updates_ = 0;
  std::size_t corrupted_updates_ = 0;
  std::uint64_t dense_reference_bytes_ = 0;
  std::uint64_t charged_bytes_ = 0;
};

/// Names Channel accepts for ChannelConfig::transport.
bool has_channel_transport(const std::string& name);

}  // namespace subfed
