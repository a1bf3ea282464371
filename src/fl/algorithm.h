// Federated-algorithm interface and shared context.
//
// Every algorithm (the paper's Sub-FedAvg variants and the Table-1 baselines)
// implements the same round/evaluate contract so the driver, benches and
// examples treat them interchangeably. Accuracy is always *personalized*:
// client k's model is scored on the global test pool filtered to k's labels
// (paper §4.1) — for global-model methods that means scoring the single
// global model per-client.
//
// Per-client state (a personal model, Sub-FedAvg's masks) lives in the one
// ClientStateStore this base owns, as each client's sections. The base is the
// only code that moves those sections: exchange_round ships them down to an
// out-of-process client and stores what its reply carries back,
// serve_remote stores what a request carries, and the checkpoint helpers
// write and restore them. Every section from outside the process passes
// store_client's layout check before anything is replaced. An algorithm's
// run_client only reads its client's sections and returns the new ones.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "comm/ledger.h"
#include "data/client_data.h"
#include "fl/client_state.h"
#include "nn/model_zoo.h"
#include "nn/trainer.h"
#include "util/rng.h"

namespace subfed {

/// Everything an algorithm needs to run: the federation's data, the shared
/// architecture, and the paper's local-training hyper-parameters.
struct FlContext {
  const FederatedData* data = nullptr;
  ModelSpec spec;
  TrainConfig train{};  ///< 5 local epochs, batch 10 (§4.1)
  SgdConfig sgd{};      ///< lr 0.01, momentum 0.5 (§4.1)
  std::uint64_t seed = 1;
  /// Math backend name for every model built from `spec` ("auto" = keep the
  /// spec's choice / process default); applied to `spec` by the
  /// FederatedAlgorithm constructor.
  std::string backend = "auto";
  /// Row-panel cap for a single GEMM, applied process-wide when nonzero by
  /// the FederatedAlgorithm constructor (0 = inherit). Affects only
  /// wall-clock time — kernel results are thread-count independent.
  std::size_t math_threads = 0;
  /// Robustness fault injection: each upload is replaced by N(0,
  /// corrupt_noise) with probability corrupt_fraction — injected by the
  /// channel after the server decodes the payload, so it composes with every
  /// transport and codec. When robust_filter > 0 the FedAvg family and
  /// Sub-FedAvg drop updates whose (mask-aware) distance from the previous
  /// global exceeds robust_filter × the cohort median before aggregating.
  double corrupt_fraction = 0.0;
  double corrupt_noise = 1.0;
  double robust_filter = 0.0;
  /// Client↔server channel (comm/channel.h): where uploads/downloads run and
  /// which codecs they pass through. transport: memory | loopback |
  /// subprocess | tcp; codec: sparse | delta; quantize: none | fp16 | int8.
  std::string transport = "memory";
  std::string codec = "sparse";
  std::string quantize = "none";
  /// Subprocess-transport fan-out per round; tcp worker connections to wait
  /// for before round 0 (0 → hardware concurrency / one worker).
  std::size_t channel_workers = 0;
  /// Remote (tcp) transport: coordinator bind address "host:port" (port 0
  /// binds an ephemeral port — Channel::transport_endpoint() reports it).
  std::string listen;
  /// Per-exchange deadline for remote workers; 0 waits forever.
  std::size_t rpc_timeout_ms = 120000;
  /// Opaque session blob (an ExperimentSpec kv text) handed to every joining
  /// worker so it can mirror this federation before serving exchanges.
  std::string remote_setup;
  /// Straggler model (comm/round_time.h): every client draws a log-uniform
  /// slowdown in [1/link_spread, 1] of the nominal edge link once per run.
  double link_spread = 1.0;
  /// Round aggregation (comm/channel.h): "sync" waits for every sampled
  /// client; "buffered" closes the round after the first buffer_k replies
  /// (0 → all sampled) and parks late updates for the next round, delivered
  /// down-weighted by 1/(1+staleness)^staleness_decay and evicted past
  /// max_staleness.
  std::string aggregation = "sync";
  std::size_t buffer_k = 0;
  double staleness_decay = 0.5;
  std::size_t max_staleness = 4;
  /// Lazy-residency cap for per-client algorithm state (mirrors
  /// FederatedDataConfig::client_cache): 0 keeps every touched client's
  /// side-band state resident (the historical behavior); > 0 bounds resident
  /// clients, spilling the rest through the checkpoint container
  /// (fl/client_state.h) so memory is O(active), not O(population).
  std::size_t client_cache = 0;
};

class FederatedAlgorithm {
 public:
  explicit FederatedAlgorithm(FlContext ctx);
  /// Restores the process math-thread cap if this algorithm overrode it.
  virtual ~FederatedAlgorithm();

  FederatedAlgorithm(const FederatedAlgorithm&) = delete;
  FederatedAlgorithm& operator=(const FederatedAlgorithm&) = delete;

  virtual std::string name() const = 0;

  /// Executes one communication round over the sampled client indices.
  /// Implementations train sampled clients in parallel and record traffic.
  virtual void run_round(std::size_t round, std::span<const std::size_t> sampled) = 0;

  /// Personalized test accuracy of client k under this algorithm's current
  /// model(s). Must be safe to call concurrently for distinct k. Uncached:
  /// every call evaluates (all_test_accuracies keeps the table).
  virtual double client_test_accuracy(std::size_t k) = 0;

  /// One client's round, runnable ANYWHERE — this process (memory,
  /// loopback), a forked child (subprocess), or a remote worker (tcp). Reads
  /// the client's sections from the store (the sections a job carries are
  /// stored before this runs) and returns its new sections in
  /// ClientResult::state; it never writes the store. Every built-in algorithm
  /// overrides this (run_round routes through it via exchange_round); the
  /// base implementation throws CheckError so out-of-tree algorithms that
  /// never leave the process keep compiling.
  virtual ClientResult run_client(std::size_t round, const ClientJob& job,
                                  const StateDict& received);
  /// The pre-store signature, kept for bench/round's probe: with `detached`
  /// false the returned sections are stored here, as an in-process round
  /// does, and ClientResult::state comes back empty.
  ClientResult run_client(std::size_t round, const ClientJob& job, const StateDict& received,
                          bool detached);

  /// Client k's current sections (the shared initial ones while untouched);
  /// empty for algorithms without per-client state. Cache-neutral. What an
  /// out-of-process exchange ships down and the resident server's
  /// per-client kGetModel serves.
  StateSections client_sections(std::size_t k) const;

  /// Client sections reloaded from the store's spill file (lazy-mode
  /// observability; 0 without per-client state).
  std::size_t client_refaults() const noexcept { return clients_.refaults(); }

  /// Worker side of one remote exchange: decodes the request, stores the
  /// client's sections it carries, runs run_client and returns the encoded
  /// reply with the client's new sections (fl/worker.h drives it).
  std::vector<std::uint8_t> serve_remote(std::span<const std::uint8_t> request_bytes);

  /// Named state sections that fully describe this algorithm's mutable state,
  /// in the order restore_checkpoint_state expects them back, so
  /// fl/checkpoint.h can snapshot any run. The base pair writes and restores
  /// every client's sections, client by client — all the state Standalone
  /// and MTL keep; algorithms with server state override it, and without
  /// per-client state it throws CheckError.
  virtual std::vector<StateDict> checkpoint_state();
  /// Inverse of checkpoint_state: replaces the algorithm's mutable state.
  /// Throws CheckError when the sections do not match this federation.
  virtual void restore_checkpoint_state(std::vector<StateDict> sections);

  /// The current server-side global model — what the resident coordinator
  /// serves to kGetModel requests. Default: the first checkpoint_state
  /// section, which every built-in algorithm lays out as its global/shared
  /// state (for fully-local algorithms like standalone that is client 0's
  /// model — the closest thing they have to one). FedAvg-family and
  /// Sub-FedAvg override this with a direct copy of their global state.
  virtual StateDict global_model();

  std::size_t num_clients() const noexcept { return ctx_.data->num_clients(); }
  const FlContext& context() const noexcept { return ctx_; }
  const CommLedger& ledger() const noexcept { return ledger_; }
  /// The message channel every built-in algorithm exchanges through.
  const Channel& channel() const noexcept { return *channel_; }
  /// Mutable access (the resident server admits transport joins through it).
  Channel& channel() noexcept { return *channel_; }
  /// Per-client byte costs of the most recent round, for the round-time
  /// model (empty before the first round).
  const std::vector<ClientRoundCost>& last_round_costs() const noexcept {
    return channel_->last_round_costs();
  }
  /// Simulated duration of the most recent round under the link fleet:
  /// slowest participant in sync mode, K-th arrival in buffered mode.
  double last_round_seconds() const noexcept { return channel_->last_round_seconds(); }
  /// Rebuilds the link fleet when `spread`/`seed` differ from the current
  /// draw — the driver honors DriverConfig::link_spread (and its seed, which
  /// may differ from ctx.seed for direct-API callers) this way. The draw uses
  /// the same "link-fleet" stream the driver used before it moved here.
  void apply_link_spread(double spread, std::uint64_t seed);

  /// Mean personalized accuracy over ALL clients (all_test_accuracies).
  double average_test_accuracy();
  /// Per-client personalized accuracies, incremental: a client whose
  /// evaluation_key equals the key of its last evaluation gets that
  /// evaluation's accuracy, which is exactly what recomputing would give;
  /// the rest are evaluated in parallel on the global pool, where each task
  /// writes only its client's slot. Keys are read and the table updated on
  /// the calling thread, so this is not thread-safe: call it from the
  /// coordinator between rounds (FederationSession::evaluate/finish and
  /// ServerLoop do), never concurrently with itself or a round.
  std::vector<double> all_test_accuracies();

 protected:
  /// The shared initial model state θ_0 every algorithm starts from — derived
  /// only from the seed so different algorithms are comparable run-to-run.
  const StateDict& initial_state() const noexcept { return initial_state_; }

  /// Deterministic per-(client, round) RNG stream.
  Rng client_round_rng(std::size_t client, std::size_t round) const;

  /// Version of everything client_test_accuracy(k) reads that can change
  /// after construction; all_test_accuracies re-evaluates client k only when
  /// it moves. Return a key only when the accuracy is a pure function of the
  /// keyed state, the client's test slices and the construction-time
  /// architecture and device. The default, nullopt, evaluates every time:
  /// right for accuracies that read a global model every round replaces.
  virtual std::optional<std::uint64_t> evaluation_key(std::size_t k);

  /// Runs one round of exchanges through the channel, routing each client's
  /// compute to run_client. In process, each client's new sections are
  /// stored as it finishes. Out of process (Channel::detached()), every job
  /// first carries its client's sections down, and every reply's sections
  /// are stored before this returns. Either way the exchanges come back with
  /// empty `state`. Algorithms call this instead of channel_->run_round.
  std::vector<Exchange> exchange_round(std::size_t round, std::span<ClientJob> jobs);

  /// Gives every client `initial_sections` (shared, not copied per client);
  /// at most ctx.client_cache touched clients stay resident. Algorithms with
  /// per-client state call this once from their constructor; the rest keep
  /// zero sections per client.
  void init_clients(StateSections initial_sections);
  /// Stores client k's sections after check_client. Sub-FedAvg overrides it
  /// to record the pruned fractions, and must check first.
  virtual void store_client(std::size_t k, StateSections sections);
  /// Throws CheckError unless `sections` match the initial sections: the same
  /// count, and per section the same entry names and shapes.
  void check_client(std::span<const StateDict> sections) const;
  /// Appends every client's sections, client by client (cache-neutral): the
  /// client part of a checkpoint.
  void append_client_sections(std::vector<StateDict>& out) const;
  /// Inverse of append_client_sections over exactly those sections: checks
  /// every client, then replaces every client's sections.
  void restore_client_sections(std::span<StateDict> sections);

  FlContext ctx_;
  CommLedger ledger_;
  /// Built from ctx_'s transport/codec/quantize/corruption fields; records
  /// into ledger_. Subclasses route every upload/download through it.
  std::unique_ptr<Channel> channel_;
  /// Every client's sections (init_clients); untouched clients share the
  /// initial ones.
  ClientStateStore clients_;

 private:
  /// Stores the sections a job carries, then runs run_client.
  ClientResult serve_job(std::size_t round, const ClientJob& job, const StateDict& received);
  /// store_client(k, sections), leaving `sections` empty.
  void keep_client(std::size_t k, StateSections& sections);

  StateDict initial_state_;
  /// Heterogeneous per-client links (ctx.link_spread); the channel holds a
  /// pointer for arrival ordering and round timing.
  std::unique_ptr<LinkFleet> fleet_;
  double fleet_spread_ = 1.0;
  std::uint64_t fleet_seed_ = 0;
  /// Previous process-wide math-thread cap when ctx.math_threads overrode it.
  std::optional<std::size_t> restore_math_threads_;
  /// all_test_accuracies' table: each client's last accuracy and the
  /// evaluation_key it was computed at (nullopt: unkeyed or never
  /// evaluated). Sized by the first evaluation.
  std::vector<double> eval_accuracies_;
  std::vector<std::optional<std::uint64_t>> eval_keys_;
};

}  // namespace subfed
