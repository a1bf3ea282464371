#include "fl/experiment.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "fl/checkpoint.h"
#include "fl/fedavg_ft.h"
#include "fl/subfedavg.h"
#include "net/socket.h"
#include "serve/session.h"
#include "telemetry/telemetry.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/parse.h"

namespace subfed {

namespace {

/// One serializable/flag-settable spec field. Getter renders the kv value,
/// setter parses it (throwing CheckError on bad input).
struct Field {
  const char* key;
  const char* help;
  std::string (*get)(const ExperimentSpec&);
  void (*set)(ExperimentSpec&, const std::string&);
};

#define SUBFED_STRING_FIELD(name, help)                                     \
  Field{#name, help, [](const ExperimentSpec& s) { return s.name; },        \
        [](ExperimentSpec& s, const std::string& v) { s.name = v; }}
#define SUBFED_DOUBLE_FIELD(name, help)                                       \
  Field{#name, help,                                                          \
        [](const ExperimentSpec& s) { return format_double_shortest(s.name); }, \
        [](ExperimentSpec& s, const std::string& v) {                         \
          s.name = parse_double_strict(#name, v);                             \
        }}
#define SUBFED_UINT_FIELD(name, help)                                         \
  Field{#name, help,                                                          \
        [](const ExperimentSpec& s) {                                         \
          return std::to_string(static_cast<std::uint64_t>(s.name));          \
        },                                                                    \
        [](ExperimentSpec& s, const std::string& v) {                         \
          s.name = static_cast<decltype(s.name)>(parse_uint64_strict(#name, v)); \
        }}

const Field kFields[] = {
    SUBFED_STRING_FIELD(dataset, "mnist | emnist | cifar10 | cifar100"),
    SUBFED_STRING_FIELD(partition, "shards | dirichlet"),
    SUBFED_DOUBLE_FIELD(alpha, "Dirichlet concentration (dirichlet partition)"),
    SUBFED_UINT_FIELD(clients, "number of clients"),
    SUBFED_UINT_FIELD(shards_per_client, "shards assigned to each client"),
    SUBFED_UINT_FIELD(shard, "shard size; 0 = dataset's paper value"),
    SUBFED_UINT_FIELD(test_per_class, "test pool size per class"),
    SUBFED_STRING_FIELD(model, "auto | cnn5 | lenet5 | cnn_deep"),
    SUBFED_STRING_FIELD(backend, "compute device: auto | naive | blocked"),
    SUBFED_UINT_FIELD(math_threads, "GEMM row-panel cap; 0 = process setting"),
    SUBFED_STRING_FIELD(transport, "channel transport: memory | loopback | subprocess | tcp"),
    SUBFED_STRING_FIELD(codec, "uplink codec: sparse | delta"),
    SUBFED_STRING_FIELD(quantize, "payload precision: none | fp16 | int8"),
    SUBFED_UINT_FIELD(channel_workers, "subprocess fan-out / tcp fleet size; 0 = hardware"),
    SUBFED_DOUBLE_FIELD(link_spread, "straggler tail; slowest link = 1/spread"),
    SUBFED_STRING_FIELD(listen, "tcp coordinator bind host:port; port 0 = ephemeral"),
    SUBFED_STRING_FIELD(connect, "worker role only; see the worker tool"),
    SUBFED_UINT_FIELD(rpc_timeout_ms, "per-exchange worker deadline; 0 = forever"),
    SUBFED_STRING_FIELD(aggregation, "round aggregation: sync | buffered"),
    SUBFED_UINT_FIELD(buffer_k, "replies closing a buffered round; 0 = all sampled"),
    SUBFED_DOUBLE_FIELD(staleness_decay, "stale update weight = 1/(1+s)^decay"),
    SUBFED_UINT_FIELD(max_staleness, "evict updates parked more rounds than this"),
    SUBFED_UINT_FIELD(client_cache, "resident per-client cap; 0 = keep all (eager)"),
    SUBFED_UINT_FIELD(epochs, "local epochs per round"),
    SUBFED_UINT_FIELD(batch, "local batch size"),
    SUBFED_DOUBLE_FIELD(lr, "SGD learning rate"),
    SUBFED_DOUBLE_FIELD(momentum, "SGD momentum"),
    SUBFED_UINT_FIELD(rounds, "communication rounds"),
    SUBFED_DOUBLE_FIELD(sample, "client sampling rate per round"),
    SUBFED_UINT_FIELD(eval_every, "evaluate every N rounds; 0 = final only"),
    SUBFED_DOUBLE_FIELD(dropout, "per-round client dropout probability"),
    SUBFED_DOUBLE_FIELD(arrivals, "client arrivals per simulated second; 0 = static"),
    SUBFED_DOUBLE_FIELD(dwell, "mean seconds an arrived client stays; 0 = forever"),
    SUBFED_STRING_FIELD(arrival_trace,
                        "replay arrivals from a timestamp file; excludes arrivals > 0"),
    SUBFED_UINT_FIELD(seed, "master seed"),
    SUBFED_DOUBLE_FIELD(corrupt_fraction, "chance an upload is replaced by noise"),
    SUBFED_DOUBLE_FIELD(corrupt_noise, "stddev of the corruption noise"),
    SUBFED_DOUBLE_FIELD(robust_filter, "median-distance filter factor; 0 = off"),
    SUBFED_STRING_FIELD(algo, "algorithm name (see list below)"),
    SUBFED_DOUBLE_FIELD(target, "pruning target (Sub-FedAvg variants)"),
    SUBFED_DOUBLE_FIELD(step, "per-round prune rate; 0 = adaptive"),
    SUBFED_STRING_FIELD(tag, "free-form run label"),
    SUBFED_STRING_FIELD(out, "JSON result path; empty = no file"),
    SUBFED_STRING_FIELD(telemetry, "off | counters | trace; empty = SUBFEDAVG_TELEMETRY"),
    SUBFED_UINT_FIELD(checkpoint_every, "snapshot every N rounds; 0 = off"),
    SUBFED_STRING_FIELD(checkpoint_path, "snapshot path; empty = derive from out"),
    SUBFED_UINT_FIELD(serve, "1 = resident coordinator (see the serve tool)"),
    SUBFED_STRING_FIELD(status_listen, "serve request-API bind host:port; port 0 = ephemeral"),
    SUBFED_UINT_FIELD(min_participants, "workers needed to tick a round; 0 = max(1, buffer_k)"),
};

#undef SUBFED_STRING_FIELD
#undef SUBFED_DOUBLE_FIELD
#undef SUBFED_UINT_FIELD

const Field* find_field(const std::string& key) {
  for (const Field& field : kFields) {
    if (key == field.key) return &field;
  }
  return nullptr;
}

constexpr char kAlgoParamPrefix[] = "algo.";

std::string flag_name(const std::string& key) {
  std::string flag = "--" + key;
  for (char& c : flag) {
    if (c == '_') c = '-';
  }
  return flag;
}

std::string key_from_flag(const std::string& flag) {
  std::string key = flag.substr(2);
  for (char& c : key) {
    if (c == '-') c = '_';
  }
  return key;
}

void set_algo_param_kv(ExperimentSpec& spec, const std::string& assignment) {
  const std::size_t eq = assignment.find('=');
  SUBFEDAVG_CHECK(eq != std::string::npos && eq > 0,
                  "--algo-param expects key=value, got '" << assignment << "'");
  spec.algo_params.set(assignment.substr(0, eq), assignment.substr(eq + 1));
}

void append_json_escaped(std::ostringstream& os, const std::string& value) {
  os << '"';
  for (const char c : value) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

double adaptive_prune_step(double target, std::size_t rounds, double sample_rate) {
  if (target <= 0.0) return 0.0;
  const double participations =
      std::max(2.0, static_cast<double>(rounds) * sample_rate * 0.7);
  return 1.0 - std::pow(1.0 - target, 1.0 / participations);
}

void ExperimentSpec::parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      help_requested = true;
      continue;
    }
    SUBFEDAVG_CHECK(flag.rfind("--", 0) == 0,
                    "expected a flag, got '" << flag << "' (see --help)");
    SUBFEDAVG_CHECK(i + 1 < argc, "flag " << flag << " expects a value");
    const std::string value = argv[++i];
    if (flag == "--algo-param") {
      set_algo_param_kv(*this, value);
      continue;
    }
    if (flag == "--spec") {
      std::ifstream file(value);
      SUBFEDAVG_CHECK(file.good(), "cannot read spec file '" << value << "'");
      std::ostringstream text;
      text << file.rdbuf();
      apply_kv(text.str());
      continue;
    }
    const Field* field = find_field(key_from_flag(flag));
    SUBFEDAVG_CHECK(field != nullptr, "unknown flag " << flag << " (see --help)");
    field->set(*this, value);
  }
}

std::string ExperimentSpec::to_kv() const {
  std::ostringstream os;
  for (const Field& field : kFields) {
    os << field.key << '=' << field.get(*this) << '\n';
  }
  for (const auto& [key, value] : algo_params.entries()) {
    os << kAlgoParamPrefix << key << '=' << value << '\n';
  }
  return os.str();
}

void ExperimentSpec::apply_kv(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    line = line.substr(start);
    if (line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    SUBFEDAVG_CHECK(eq != std::string::npos && eq > 0,
                    "expected key=value, got '" << line << "'");
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key.rfind(kAlgoParamPrefix, 0) == 0) {
      algo_params.set(key.substr(sizeof(kAlgoParamPrefix) - 1), value);
      continue;
    }
    const Field* field = find_field(key);
    SUBFEDAVG_CHECK(field != nullptr, "unknown spec key '" << key << "'");
    field->set(*this, value);
  }
}

ExperimentSpec ExperimentSpec::from_kv(const std::string& text) {
  ExperimentSpec spec;
  spec.apply_kv(text);
  return spec;
}

std::string ExperimentSpec::help_text() {
  const ExperimentSpec defaults;
  std::ostringstream os;
  os << "flags (all optional, --key value):\n";
  for (const Field& field : kFields) {
    std::string flag = flag_name(field.key);
    flag.resize(std::max<std::size_t>(flag.size(), 20), ' ');
    os << "  " << flag << field.help;
    const std::string fallback = field.get(defaults);
    os << "  [" << (fallback.empty() ? "unset" : fallback) << "]\n";
  }
  os << "  --algo-param k=v    extra algorithm hyper-parameter (repeatable)\n";
  os << "  --spec path         apply a saved key=value spec file; later flags override\n";
  os << "  --help              print this reference\n\nalgorithms:\n";
  for (const std::string& name : list_algorithms()) {
    std::string padded = name;
    padded.resize(std::max<std::size_t>(padded.size(), 14), ' ');
    os << "  " << padded << registry().info(name).description << '\n';
  }
  return os.str();
}

void ExperimentSpec::validate() const {
  if (backend != "auto" && !has_device(backend)) {
    std::string known = "auto";
    for (const std::string& name : list_devices()) known += " | " + name;
    SUBFEDAVG_CHECK(false, "unknown backend '" << backend << "' (" << known << ")");
  }
  // "auto" resolves SUBFEDAVG_BACKEND lazily — force it here so a bad env
  // value fails before training instead of deep inside the first forward.
  if (backend == "auto") default_device();
  SUBFEDAVG_CHECK(has_channel_transport(transport),
                  "unknown transport '" << transport
                                        << "' (memory | loopback | subprocess | tcp)");
  SUBFEDAVG_CHECK(codec == "sparse" || codec == "delta",
                  "unknown codec '" << codec << "' (sparse | delta)");
  parse_quant_codec(quantize);
  SUBFEDAVG_CHECK(transport != "memory" || (codec == "sparse" && quantize == "none"),
                  "codec=" << codec << " quantize=" << quantize
                           << " require transport=loopback, subprocess, or tcp");
  SUBFEDAVG_CHECK(aggregation == "sync" || aggregation == "buffered",
                  "unknown aggregation '" << aggregation << "' (sync | buffered)");
  SUBFEDAVG_CHECK(link_spread >= 1.0, "link_spread " << link_spread << " must be >= 1");
  // Remote-federation roles. A spec always describes a coordinator run;
  // `connect` belongs to the worker binary, which has no spec of its own.
  SUBFEDAVG_CHECK(connect.empty(),
                  "connect=" << connect
                             << " describes a worker, not a run — start one with: worker "
                                "--connect " << connect);
  if (transport == "tcp") {
    SUBFEDAVG_CHECK(!listen.empty(),
                    "transport=tcp needs listen=host:port on the coordinator "
                    "(workers join it with: worker --connect <host:port>)");
    net::parse_host_port(listen);  // throws with the offending text
  } else {
    SUBFEDAVG_CHECK(listen.empty(),
                    "listen=" << listen << " requires transport=tcp (got transport="
                              << transport << ")");
  }
  // Event-driven population: dwell only means something once clients arrive
  // over time, and an arrival-driven session has no save/restore replay yet —
  // keep it out of the resident/checkpointing paths.
  SUBFEDAVG_CHECK(arrivals >= 0.0, "arrivals " << arrivals << " must be >= 0");
  SUBFEDAVG_CHECK(dwell >= 0.0, "dwell " << dwell << " must be >= 0");
  SUBFEDAVG_CHECK(arrival_trace.empty() || arrivals == 0.0,
                  "arrival_trace=" << arrival_trace << " and arrivals=" << arrivals
                                   << " are mutually exclusive — the trace file IS the "
                                      "arrival process");
  SUBFEDAVG_CHECK(dwell == 0.0 || arrivals > 0.0 || !arrival_trace.empty(),
                  "dwell=" << dwell << " requires arrivals > 0 or arrival_trace (an "
                                       "event-driven population)");
  if (arrivals > 0.0 || !arrival_trace.empty()) {
    const char* knob = arrivals > 0.0 ? "arrivals > 0" : "arrival_trace";
    SUBFEDAVG_CHECK(serve == 0, knob << " is not supported by the resident "
                                        "coordinator yet (serve=1)");
    SUBFEDAVG_CHECK(checkpoint_every == 0,
                    knob << " does not checkpoint yet — the event queue has no "
                            "save/restore replay (set checkpoint_every=0)");
  }
  // Telemetry is validated here but applied by FederationSession::from_spec —
  // batch runs, serve, and remote workers all build through that one path.
  if (!telemetry.empty()) telemetry::parse_level(telemetry);
  // Resident-service fields (serve/server.h).
  SUBFEDAVG_CHECK(serve <= 1, "serve=" << serve << " must be 0 or 1");
  if (serve == 1) {
    SUBFEDAVG_CHECK(transport == "tcp",
                    "serve=1 runs the resident coordinator over real sockets — set "
                    "transport=tcp listen=host:port (got transport=" << transport << ")");
    SUBFEDAVG_CHECK(checkpoint_every >= 1,
                    "serve=1 requires checkpoint_every >= 1: a resident federation "
                    "snapshots itself so a crash-restart resumes mid-federation instead "
                    "of losing every round since startup");
    SUBFEDAVG_CHECK(!status_listen.empty(),
                    "serve=1 needs status_listen=host:port for the request API "
                    "(kGetModel/kStatus/kCheckpointNow/kShutdown; port 0 = ephemeral)");
    net::parse_host_port(status_listen);  // throws with the offending text
  } else {
    SUBFEDAVG_CHECK(status_listen.empty(),
                    "status_listen=" << status_listen
                                     << " requires serve=1 (the resident coordinator — "
                                        "start one with the serve tool)");
    SUBFEDAVG_CHECK(min_participants == 0,
                    "min_participants=" << min_participants
                                        << " requires serve=1 — a batch run always waits "
                                           "for every sampled client");
  }
}

DatasetSpec ExperimentSpec::dataset_spec() const { return DatasetSpec::by_name(dataset); }

FederatedDataConfig ExperimentSpec::data_config() const {
  SUBFEDAVG_CHECK(partition == "shards" || partition == "dirichlet",
                  "unknown partition '" << partition << "' (shards | dirichlet)");
  const PartitionKind kind =
      partition == "dirichlet" ? PartitionKind::kDirichlet : PartitionKind::kShards;
  FederatedDataConfig config;
  config.partition = {clients, shards_per_client, shard, kind, alpha};
  config.test_per_class = test_per_class;
  config.seed = seed;
  config.client_cache = client_cache;
  return config;
}

ModelSpec ExperimentSpec::model_spec() const {
  const DatasetSpec data_spec = dataset_spec();
  if (model == "auto") {
    // Paper §4.1: 5-layer CNN for MNIST/EMNIST, LeNet-5 for CIFAR-10/100.
    return data_spec.channels == 3 ? ModelSpec::lenet5(data_spec.num_classes)
                                   : ModelSpec::cnn5(data_spec.num_classes);
  }
  if (model == "cnn5") return ModelSpec::cnn5(data_spec.num_classes);
  if (model == "lenet5") return ModelSpec::lenet5(data_spec.num_classes);
  SUBFEDAVG_CHECK(model == "cnn_deep",
                  "unknown model '" << model << "' (auto | cnn5 | lenet5 | cnn_deep)");
  return ModelSpec::cnn_deep(data_spec.num_classes);
}

FlContext ExperimentSpec::make_context(const FederatedData& data) const {
  // Device, channel and role misconfigurations (an unknown backend or
  // transport, a lossy codec over the memory fast path, tcp without a listen
  // address) are caught here, before training — and by execute_experiment
  // even before data synthesis.
  validate();
  FlContext ctx;
  ctx.data = &data;
  ctx.spec = model_spec();
  ctx.train = {epochs, batch};
  ctx.sgd = {static_cast<float>(lr), static_cast<float>(momentum), /*weight_decay=*/0.0f};
  ctx.seed = seed;
  ctx.backend = backend;
  ctx.math_threads = math_threads;
  ctx.corrupt_fraction = corrupt_fraction;
  ctx.corrupt_noise = corrupt_noise;
  ctx.robust_filter = robust_filter;
  ctx.transport = transport;
  ctx.codec = codec;
  ctx.quantize = quantize;
  ctx.channel_workers = channel_workers;
  ctx.listen = listen;
  ctx.rpc_timeout_ms = rpc_timeout_ms;
  if (transport == "tcp") {
    // Workers mirror this exact federation from the spec blob the
    // coordinator hands them at join time (the worker overrides the
    // transport/output fields that only make sense coordinator-side).
    ctx.remote_setup = to_kv();
  }
  ctx.link_spread = link_spread;
  ctx.aggregation = aggregation;
  ctx.buffer_k = buffer_k;
  ctx.staleness_decay = staleness_decay;
  ctx.max_staleness = max_staleness;
  ctx.client_cache = client_cache;
  return ctx;
}

DriverConfig ExperimentSpec::driver_config() const {
  DriverConfig config;
  config.rounds = rounds;
  config.sample_rate = sample;
  config.eval_every = eval_every;
  config.seed = seed;
  config.dropout_prob = dropout;
  config.link_spread = link_spread;
  config.arrival_rate = arrivals;
  config.dwell = dwell;
  config.arrival_trace = arrival_trace;
  return config;
}

AlgoParams ExperimentSpec::resolved_algo_params() const {
  AlgoParams params = algo_params;
  if (!params.has("target")) params.set_double("target", target);
  // Calibrate the adaptive step to the target actually in effect — an
  // explicit algo_params target overrides the spec field.
  const double effective_target = params.get_double("target", target);
  if (!params.has("step")) {
    params.set_double(
        "step", step > 0.0 ? step : adaptive_prune_step(effective_target, rounds, sample));
  }
  // Hybrid runs prune channels toward min(50%, target) — channel pruning past
  // ~50% kills personal parameters (paper §4.2.3) — unless overridden.
  if (!params.has("channel_target") && registry().contains(algo) &&
      registry().info(algo).name == "subfedavg_hy") {
    params.set_double("channel_target", std::min(0.5, effective_target));
  }
  return params;
}

std::unique_ptr<FederatedAlgorithm> ExperimentSpec::make_algorithm(const FlContext& ctx) const {
  return registry().create(algo, ctx, resolved_algo_params());
}

std::size_t path_extension_dot(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.find_last_of('/');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  return has_ext ? dot : std::string::npos;
}

std::string ExperimentSpec::resolved_checkpoint_path() const {
  if (!checkpoint_path.empty()) return checkpoint_path;
  if (out.empty()) return "checkpoint.ckpt";
  const std::size_t dot = path_extension_dot(out);
  return (dot == std::string::npos ? out : out.substr(0, dot)) + ".ckpt";
}

ExecutedRun execute_experiment(const ExperimentSpec& spec, RoundObserver* observer,
                               const FederatedData* shared_data) {
  // math_threads/backend flow through FlContext and take effect in the
  // FederatedAlgorithm constructor. math_threads is a process-wide knob
  // (kernel results are thread-count independent, so concurrent sweep runs
  // racing on it only affect timing); 0 means "inherit" and never overwrites
  // a SUBFEDAVG_MATH_THREADS cap.
  SUBFEDAVG_CHECK(spec.serve == 0,
                  "serve=1 is the resident coordinator, not a batch run — start it "
                  "with the serve tool");
  // The session is the shared spec→federation build path (it validates the
  // spec, synthesizes the data unless shared, and rejects corruption knobs on
  // algorithms that don't honor them); batch mode is just "run it to the
  // spec's horizon".
  std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec, shared_data);
  FederatedAlgorithm* algorithm = &session->algorithm();

  ObserverChain chain;
  std::unique_ptr<CheckpointObserver> checkpointer;
  if (spec.checkpoint_every > 0) {
    checkpointer = std::make_unique<CheckpointObserver>(
        *algorithm, spec.resolved_checkpoint_path(), spec.checkpoint_every);
    chain.attach(checkpointer.get());
  }
  if (observer != nullptr) chain.attach(observer);

  ExecutedRun run;
  run.result = session->run_to_completion((checkpointer || observer) ? &chain : nullptr);
  run.algorithm_name = algorithm->name();

  if (const auto* sub = dynamic_cast<const SubFedAvg*>(algorithm)) {
    run.metrics["unstructured_pruned"] = sub->average_unstructured_pruned();
    if (sub->hybrid()) run.metrics["structured_pruned"] = sub->average_structured_pruned();
  }
  if (const auto* ft = dynamic_cast<const FedAvgFinetune*>(algorithm)) {
    run.metrics["finetune_steps"] = static_cast<double>(ft->extra_finetune_steps());
  }
  if (spec.corrupt_fraction > 0.0 || spec.robust_filter > 0.0) {
    if (const auto* fa = dynamic_cast<const FedAvg*>(algorithm)) {
      run.metrics["corrupted_updates"] = static_cast<double>(fa->corrupted_updates());
      run.metrics["filtered_updates"] = static_cast<double>(fa->filtered_updates());
    } else if (const auto* sub = dynamic_cast<const SubFedAvg*>(algorithm)) {
      run.metrics["corrupted_updates"] = static_cast<double>(sub->corrupted_updates());
      run.metrics["filtered_updates"] = static_cast<double>(sub->filtered_updates());
    }
  }
  // Channel economics: how far the codec stack compressed the dense-fp32
  // traffic the same exchanges would have cost.
  if (algorithm->channel().charged_bytes() > 0) {
    run.metrics["compression_ratio"] = algorithm->channel().compression_ratio();
  }
  // Buffered-aggregation accounting: how many updates landed late, were
  // evicted past max_staleness, or were still parked when the run ended.
  if (spec.aggregation == "buffered") {
    const Channel& channel = algorithm->channel();
    run.metrics["stale_updates"] = static_cast<double>(channel.stale_updates());
    run.metrics["evicted_updates"] = static_cast<double>(channel.evicted_updates());
    run.metrics["parked_updates"] = static_cast<double>(channel.parked_updates());
  }
  // Telemetry phase totals: where the run's host wall-clock went, phase by
  // phase. Scalar metrics flow through RunResult JSON into sweep tables, so
  // grid sweeps get a per-run phase breakdown for free.
  if (telemetry::enabled(telemetry::Level::kCounters)) {
    const FederationSession::RoundPhases& phases = session->total_phases();
    run.metrics["phase_sample_seconds"] = phases.sample;
    run.metrics["phase_broadcast_encode_seconds"] = phases.broadcast_encode;
    run.metrics["phase_transport_exchange_seconds"] = phases.transport_exchange;
    run.metrics["phase_collect_seconds"] = phases.collect;
    run.metrics["phase_aggregate_seconds"] = phases.aggregate;
    run.metrics["phase_eval_seconds"] = phases.eval;
  }

  if (!spec.out.empty()) {
    write_run_result_json(spec.out, spec, run.algorithm_name, run.result, run.metrics);
  }
  return run;
}

std::string run_result_json(const ExperimentSpec& spec, const std::string& algorithm_name,
                            const RunResult& result,
                            const std::map<std::string, double>& metrics) {
  std::ostringstream os;
  // Round-trip precision: the aggregation layer reloads these numbers and
  // must reproduce live tables bit-for-bit.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"algorithm\": ";
  append_json_escaped(os, algorithm_name);
  os << ",\n  \"spec\": {";
  bool first = true;
  for (const Field& field : kFields) {
    if (!first) os << ',';
    first = false;
    os << "\n    ";
    append_json_escaped(os, field.key);
    os << ": ";
    append_json_escaped(os, field.get(spec));
  }
  for (const auto& [key, value] : spec.algo_params.entries()) {
    os << ",\n    ";
    append_json_escaped(os, kAlgoParamPrefix + key);
    os << ": ";
    append_json_escaped(os, value);
  }
  os << "\n  },\n  \"curve\": [";
  first = true;
  for (const RoundPoint& point : result.curve) {
    if (!first) os << ',';
    first = false;
    os << "\n    {\"round\": " << point.round << ", \"avg_accuracy\": " << point.avg_accuracy
       << "}";
  }
  os << (result.curve.empty() ? "]" : "\n  ]") << ",\n  \"final_avg_accuracy\": "
     << result.final_avg_accuracy << ",\n  \"final_per_client\": [";
  first = true;
  for (const double accuracy : result.final_per_client) {
    os << (first ? "" : ", ") << accuracy;
    first = false;
  }
  os << "],\n  \"up_bytes\": " << result.up_bytes
     << ",\n  \"down_bytes\": " << result.down_bytes
     << ",\n  \"total_bytes\": " << result.total_bytes()
     << ",\n  \"simulated_seconds\": " << result.simulated_seconds
     << ",\n  \"dropped_clients\": " << result.dropped_clients
     << ",\n  \"skipped_rounds\": " << result.skipped_rounds;
  os << ",\n  \"metrics\": {";
  first = true;
  for (const auto& [key, value] : metrics) {
    if (!first) os << ',';
    first = false;
    os << "\n    ";
    append_json_escaped(os, key);
    os << ": " << value;
  }
  os << (metrics.empty() ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

void write_run_result_json(const std::string& path, const ExperimentSpec& spec,
                           const std::string& algorithm_name, const RunResult& result,
                           const std::map<std::string, double>& metrics) {
  std::ofstream out(path, std::ios::trunc);
  SUBFEDAVG_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << run_result_json(spec, algorithm_name, result, metrics);
  out.flush();
  SUBFEDAVG_CHECK(out.good(), "failed writing '" << path << "'");
}

}  // namespace subfed
