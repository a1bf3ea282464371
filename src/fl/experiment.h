// Declarative experiment description.
//
// An ExperimentSpec bundles everything one federation run needs — dataset,
// partition, model, local-training and driver parameters, and the algorithm
// name + hyper-parameters — in one value that:
//   * parses from argv-style flags (`--dataset cifar10 --algo subfedavg_hy`),
//   * round-trips through a key=value text form (`to_kv` / `from_kv`), so a
//     finished run's exact configuration is a reproducible artifact,
//   * builds all the runtime pieces (FederatedData config, FlContext,
//     DriverConfig, and the algorithm via the registry).
// The JSON result writer pairs a spec with its RunResult so sweeps emit
// machine-readable accuracy curves and communication totals.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "data/client_data.h"
#include "fl/driver.h"
#include "fl/registry.h"

namespace subfed {

/// Per-round prune step calibrated to the run length: a client participates
/// in ≈ rounds × sample_rate rounds and must reach `target` within them.
/// The paper prunes 5-20% of remaining per round over 300-500 rounds; scaled
/// runs compress that schedule the same way.
double adaptive_prune_step(double target, std::size_t rounds, double sample_rate);

/// Position of the extension dot in `path`'s final component (dots in
/// directory names don't count), or std::string::npos when it has none.
/// Shared by checkpoint-path derivation here and in the sweep runner.
std::size_t path_extension_dot(const std::string& path);

struct ExperimentSpec {
  // Data.
  std::string dataset = "mnist";     ///< mnist | emnist | cifar10 | cifar100
  std::string partition = "shards";  ///< shards | dirichlet
  double alpha = 0.5;                ///< Dirichlet concentration
  std::size_t clients = 16;
  std::size_t shards_per_client = 2;
  std::size_t shard = 40;            ///< shard size; 0 → dataset's paper value
  std::size_t test_per_class = 16;
  // Model.
  std::string model = "auto";        ///< auto | cnn5 | lenet5 | cnn_deep
  // Compute (tensor/device.h).
  std::string backend = "auto";      ///< auto | naive | blocked | sparse
  std::size_t math_threads = 0;      ///< GEMM row-panel cap; 0 → process setting
  // Communication (comm/channel.h, comm/transport.h, comm/round_time.h).
  std::string transport = "memory";  ///< memory | loopback | subprocess | tcp
  std::string codec = "sparse";      ///< sparse | delta (uplink vs broadcast)
  std::string quantize = "none";     ///< none | fp16 | int8 kept-value precision
  std::size_t channel_workers = 0;   ///< subprocess fan-out / tcp fleet size
  double link_spread = 1.0;          ///< straggler tail: slowest link = 1/spread
  // Remote federation (transport=tcp): this run is the COORDINATOR and binds
  // `listen`; worker processes on other machines join it with the worker
  // tool (`worker --connect host:port`). `connect` is rejected here with a
  // pointer at that tool — a spec describes one coordinator run.
  std::string listen;                ///< coordinator bind "host:port"; port 0 = ephemeral
  std::string connect;               ///< (workers only — use the worker tool)
  std::size_t rpc_timeout_ms = 120000;  ///< per-exchange worker deadline; 0 = forever
  // Round aggregation (comm/channel.h): buffered closes a round after the
  // first buffer_k replies and parks stragglers' updates for the next round,
  // staleness-down-weighted by 1/(1+s)^staleness_decay, evicted past
  // max_staleness.
  std::string aggregation = "sync";  ///< sync | buffered
  std::size_t buffer_k = 0;          ///< replies closing a buffered round; 0 → all
  double staleness_decay = 0.5;      ///< stale-update down-weight exponent
  std::size_t max_staleness = 4;     ///< parked updates older than this drop
  // Scale (data/client_data.h, fl/client_state.h): bounds resident per-client
  // data AND per-client algorithm state to the cache size, synthesizing /
  // spilling the rest on demand — memory O(active set), not O(population).
  // 0 keeps everything resident (the historical default, bit-identical).
  std::size_t client_cache = 0;
  // Local training.
  std::size_t epochs = 3;
  std::size_t batch = 10;
  double lr = 0.01;
  double momentum = 0.5;
  // Driver.
  std::size_t rounds = 12;
  double sample = 0.4;
  std::size_t eval_every = 0;        ///< 0 → evaluate only after the last round
  double dropout = 0.0;
  // Event-driven population (serve/session.h): when arrivals > 0 clients join
  // the federation at exponential interarrival times (arrivals per simulated
  // second, in a pseudorandom order) and each round samples only among
  // clients that have arrived; dwell > 0 gives each arrival an exponential
  // mean-dwell stay before it departs for good. 0 = the static population
  // round loop (bit-identical to previous behavior).
  double arrivals = 0.0;
  double dwell = 0.0;
  /// Replay arrivals from a timestamp file (one non-decreasing simulated
  /// second per line, '#' comments) instead of the exponential process —
  /// mutually exclusive with arrivals > 0; the population is capped at the
  /// file's line count.
  std::string arrival_trace;
  std::uint64_t seed = 1;
  // Robustness (fl/robust.h; honored by the FedAvg family).
  double corrupt_fraction = 0.0;     ///< chance an upload is replaced by noise
  double corrupt_noise = 1.0;        ///< stddev of the corruption noise
  double robust_filter = 0.0;        ///< median-distance filter factor; 0 → off
  // Algorithm.
  std::string algo = "subfedavg_un"; ///< any registry() name
  double target = 0.5;               ///< pruning target (Sub-FedAvg variants)
  double step = 0.0;                 ///< per-round prune rate; 0 → adaptive
  AlgoParams algo_params;            ///< extra per-algorithm overrides
  // Output.
  std::string tag;                   ///< free-form run label, carried into results
  std::string out;                   ///< JSON result path; empty → no file
  // Observability (telemetry/telemetry.h): off | counters | trace. Empty (the
  // default) leaves the process level alone — i.e. whatever the
  // SUBFEDAVG_TELEMETRY env var selected. Applied by FederationSession::
  // from_spec, so batch runs, the resident server, and remote workers all
  // share one switch. Never affects results: telemetry is timing-only.
  std::string telemetry;
  // Checkpointing (fl/checkpoint.h).
  std::size_t checkpoint_every = 0;  ///< snapshot every N rounds; 0 → off
  std::string checkpoint_path;       ///< empty → derived from `out` (.ckpt)
  // Resident service (serve/server.h): serve=1 turns the spec into a
  // long-lived coordinator — no fixed `rounds` horizon; rounds tick whenever
  // enough workers are connected, and the session checkpoints itself so a
  // crash-restart resumes mid-federation. Start one with the serve tool.
  std::size_t serve = 0;             ///< 1 = resident coordinator (tools/serve)
  std::string status_listen;         ///< request-API bind "host:port" (serve=1)
  std::size_t min_participants = 0;  ///< workers needed to tick a round; 0 → max(1, buffer_k)

  bool help_requested = false;       ///< set by parse_args on --help / -h

  /// Applies `--key value` flags to this spec (so callers can pre-seed
  /// defaults). Flag names are the kv keys with '_' → '-'; algorithm extras
  /// pass as repeated `--algo-param key=value`; `--spec path` applies a saved
  /// kv file (later flags override it). Throws CheckError on unknown flags,
  /// bad values, and a trailing flag with no value.
  void parse_args(int argc, char** argv);

  /// One `key=value` per line, in a fixed order; algorithm extras serialize
  /// as `algo.key=value`.
  std::string to_kv() const;
  /// Applies kv lines over the current values. Blank lines and `#` comments
  /// are skipped; unknown keys throw CheckError.
  void apply_kv(const std::string& text);
  /// Defaults + apply_kv — inverse of to_kv.
  static ExperimentSpec from_kv(const std::string& text);

  /// Flag reference plus the registered algorithm names.
  static std::string help_text();

  /// Validates everything that needs no data — transport/codec/aggregation
  /// names, the tcp listen/connect rules — so misconfigurations fail at
  /// spec-parse time with actionable messages, before any dataset synthesis
  /// or training. Called by make_context and execute_experiment; throws
  /// CheckError.
  void validate() const;

  // -- runtime pieces ------------------------------------------------------
  DatasetSpec dataset_spec() const;
  FederatedDataConfig data_config() const;
  /// Resolves "auto" to the paper's architecture for the dataset (LeNet-5
  /// for 3-channel inputs, CNN-5 otherwise).
  ModelSpec model_spec() const;
  FlContext make_context(const FederatedData& data) const;
  DriverConfig driver_config() const;
  /// step (adaptive when 0) and target merged over `algo_params`; explicit
  /// algo_params entries win.
  AlgoParams resolved_algo_params() const;
  /// Builds the algorithm through the registry.
  std::unique_ptr<FederatedAlgorithm> make_algorithm(const FlContext& ctx) const;
  /// checkpoint_path, or when empty a path derived from `out` (extension
  /// replaced by .ckpt), falling back to "checkpoint.ckpt".
  std::string resolved_checkpoint_path() const;
};

/// A completed run: the algorithm's display name, the driver result, and
/// algorithm-specific scalar metrics (e.g. `unstructured_pruned` /
/// `structured_pruned` for Sub-FedAvg, `finetune_steps` for FedAvg+FT).
struct ExecutedRun {
  std::string algorithm_name;
  RunResult result;
  std::map<std::string, double> metrics;
};

/// One call from spec to finished run: builds the data/context/algorithm,
/// attaches a CheckpointObserver when `checkpoint_every` > 0 (chained with
/// `observer` when both are present), runs the federation, collects the
/// algorithm's extra metrics, and writes the JSON result when `out` is set.
/// This is the execution path shared by run_experiment and the sweep engine.
/// `shared_data`, when non-null, must have been synthesized from this spec's
/// dataset_spec()/data_config() — the sweep engine passes a cached federation
/// so grid points sharing one data configuration synthesize it once.
ExecutedRun execute_experiment(const ExperimentSpec& spec, RoundObserver* observer = nullptr,
                               const FederatedData* shared_data = nullptr);

/// JSON document pairing the spec with its result: algorithm name, the full
/// spec, the accuracy curve, per-client accuracies, up/down byte totals, and
/// any extra scalar metrics.
std::string run_result_json(const ExperimentSpec& spec, const std::string& algorithm_name,
                            const RunResult& result,
                            const std::map<std::string, double>& metrics = {});

/// Writes run_result_json to `path` (overwrites). Throws CheckError on I/O
/// failure.
void write_run_result_json(const std::string& path, const ExperimentSpec& spec,
                           const std::string& algorithm_name, const RunResult& result,
                           const std::map<std::string, double>& metrics = {});

}  // namespace subfed
