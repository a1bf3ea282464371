#include "serve/session.h"

#include <array>
#include <cmath>
#include <fstream>
#include <numeric>
#include <vector>

#include "fl/checkpoint.h"
#include "fl/fedavg.h"
#include "fl/subfedavg.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/wire.h"

namespace subfed {

namespace {

constexpr std::uint32_t kSessionMagic = 0x5346534E;  // "SFSN"
/// Version 2 added the sampling and dropout engine states; restore refuses
/// version-1 files, which lack them.
constexpr std::uint32_t kSessionVersion = 2;

void put_engine(wire::Bytes& out, const Rng& rng) {
  for (const std::uint64_t word : rng.state()) wire::put_u64(out, word);
}

Rng read_engine(wire::Reader& reader) {
  std::array<std::uint64_t, 4> state{};
  for (std::uint64_t& word : state) word = reader.u64();
  return Rng::from_state(state);
}

}  // namespace

FederationSession::FederationSession(FederatedAlgorithm& algorithm, const DriverConfig& config)
    : algorithm_(&algorithm), config_(config) {
  init_streams();
}

std::unique_ptr<FederationSession> FederationSession::from_spec(
    const ExperimentSpec& spec, const FederatedData* shared_data) {
  spec.validate();  // fail fast, before the (expensive) dataset synthesis
  // The spec's telemetry knob overrides the process level (SUBFEDAVG_TELEMETRY)
  // here — the one build path batch runs, the resident server, and tcp worker
  // mirrors all share — so every piece the session builds is instrumented.
  if (!spec.telemetry.empty()) {
    telemetry::set_level(telemetry::parse_level(spec.telemetry));
  }
  std::unique_ptr<FederationSession> session(new FederationSession());
  if (shared_data == nullptr) {
    session->data_ =
        std::make_unique<FederatedData>(spec.dataset_spec(), spec.data_config());
    shared_data = session->data_.get();
  }
  const FlContext ctx = spec.make_context(*shared_data);
  session->owned_algorithm_ = spec.make_algorithm(ctx);
  session->algorithm_ = session->owned_algorithm_.get();

  // Corruption is injected by the channel, but the norm-filter defense (and
  // the corrupted/filtered accounting) lives in the FedAvg-family and
  // Sub-FedAvg aggregation paths; silently running another algorithm "under
  // corruption" at its clean accuracy would poison robustness tables, so
  // reject the combination.
  SUBFEDAVG_CHECK(
      (spec.corrupt_fraction <= 0.0 && spec.robust_filter <= 0.0) ||
          dynamic_cast<const FedAvg*>(session->algorithm_) != nullptr ||
          dynamic_cast<const SubFedAvg*>(session->algorithm_) != nullptr,
      "corrupt_fraction/robust_filter are only honored by the FedAvg "
      "family and Sub-FedAvg; algorithm '"
          << spec.algo << "' does not support them");

  session->config_ = spec.driver_config();
  session->spec_kv_ = spec.to_kv();
  session->init_streams();
  return session;
}

ExperimentSpec FederationSession::mirror_spec(const std::string& kv) {
  ExperimentSpec spec = ExperimentSpec::from_kv(kv);
  // The mirror's channel must materialize payloads exactly like the
  // coordinator's tcp channel does — that's loopback, NOT memory (protocols
  // like MTL put extra sections on a materialized wire) — and it must not
  // open sockets, write the coordinator's files, or stand up its own
  // resident service.
  spec.transport = "loopback";
  spec.listen.clear();
  spec.connect.clear();
  spec.out.clear();
  spec.checkpoint_every = 0;
  spec.checkpoint_path.clear();
  spec.serve = 0;
  spec.status_listen.clear();
  spec.min_participants = 0;
  // The arrival process is coordinator-side state: the worker's mirror runs
  // whatever cohort each exchange names, and a replay file may not even exist
  // on the worker's machine.
  spec.arrivals = 0.0;
  spec.dwell = 0.0;
  spec.arrival_trace.clear();
  return spec;
}

std::unique_ptr<FederationSession> FederationSession::mirror_from_kv(const std::string& kv) {
  return from_spec(mirror_spec(kv));
}

void FederationSession::init_streams() {
  SUBFEDAVG_CHECK(config_.sample_rate > 0.0 && config_.sample_rate <= 1.0,
                  "sample rate " << config_.sample_rate);
  SUBFEDAVG_CHECK(config_.link_spread >= 1.0, "link spread " << config_.link_spread);
  const std::size_t n = algorithm_->num_clients();
  per_round_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.sample_rate * static_cast<double>(n)));
  sample_rng_ = Rng(config_.seed).split("client-sampling");
  dropout_rng_ = Rng(config_.seed).split("client-dropout");
  // The algorithm's channel owns the round-time model (it also needs it for
  // buffered arrival ordering); honor the driver-level spread knob there.
  // The default (1.0) defers to whatever FlContext.link_spread configured, so
  // a direct-API caller's context setting survives a default DriverConfig.
  if (config_.link_spread != 1.0) {
    algorithm_->apply_link_spread(config_.link_spread, config_.seed);
  }

  // Event-driven population: derive the arrival process. The arrival ORDER is
  // an affine permutation of [0, N) — full-coverage, pseudorandom, and O(1)
  // memory at any population size; interarrival TIMES come from either the
  // exponential process (arrival_rate) or an arrival_trace replay file.
  arrived_.clear();
  position_.clear();
  departures_ = {};
  next_arrival_ = 0;
  next_arrival_time_ = 0.0;
  trace_times_.clear();
  event_driven_ = config_.arrival_rate > 0.0 || !config_.arrival_trace.empty();
  if (!config_.arrival_trace.empty()) {
    SUBFEDAVG_CHECK(config_.arrival_rate == 0.0,
                    "arrival_trace and arrival_rate are mutually exclusive");
    std::ifstream file(config_.arrival_trace);
    SUBFEDAVG_CHECK(file.good(),
                    "cannot read arrival trace '" << config_.arrival_trace << "'");
    std::string line;
    while (std::getline(file, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
      const std::size_t start = line.find_first_not_of(' ');
      if (start == std::string::npos || line[start] == '#') continue;
      const double t = parse_double_strict("arrival_trace", line.substr(start));
      SUBFEDAVG_CHECK(t >= 0.0 && (trace_times_.empty() || t >= trace_times_.back()),
                      "arrival trace '" << config_.arrival_trace
                                        << "' timestamps must be non-negative and "
                                           "non-decreasing; offending entry: " << t);
      trace_times_.push_back(t);
    }
    SUBFEDAVG_CHECK(!trace_times_.empty(),
                    "arrival trace '" << config_.arrival_trace << "' has no timestamps");
  }
  if (event_driven_) {
    SUBFEDAVG_CHECK(config_.dwell >= 0.0, "dwell " << config_.dwell << " must be >= 0");
    Rng order_rng = Rng(config_.seed).split("arrival-order");
    perm_a_ = 1 + order_rng.uniform_index(n);
    while (std::gcd(perm_a_, static_cast<std::uint64_t>(n)) != 1) {
      perm_a_ = 1 + order_rng.uniform_index(n);
    }
    perm_b_ = order_rng.uniform_index(n);
    if (trace_times_.empty()) {
      arrival_rng_ = Rng(config_.seed).split("arrival-times");
      next_arrival_time_ = -std::log(1.0 - arrival_rng_.uniform()) / config_.arrival_rate;
    } else {
      next_arrival_time_ = trace_times_.front();
    }
  }
}

std::size_t FederationSession::arrival_client(std::size_t i) const noexcept {
  const std::uint64_t n = algorithm_->num_clients();
  return static_cast<std::size_t>((perm_a_ * static_cast<std::uint64_t>(i) + perm_b_) % n);
}

std::size_t FederationSession::arrival_budget() const noexcept {
  const std::size_t n = algorithm_->num_clients();
  return trace_times_.empty() ? n : std::min(n, trace_times_.size());
}

void FederationSession::process_events(double now) {
  const std::size_t budget = arrival_budget();
  while (next_arrival_ < budget && next_arrival_time_ <= now) {
    const std::size_t k = arrival_client(next_arrival_);
    position_[k] = arrived_.size();
    arrived_.push_back(k);
    if (config_.dwell > 0.0) {
      // Per-client stream so one client's stay never perturbs another's.
      Rng dwell_rng = Rng(config_.seed).split("dwell", k);
      const double stay = -config_.dwell * std::log(1.0 - dwell_rng.uniform());
      departures_.push({next_arrival_time_ + stay, k});
    }
    ++next_arrival_;
    if (next_arrival_ < budget) {
      next_arrival_time_ =
          trace_times_.empty()
              ? next_arrival_time_ -
                    std::log(1.0 - arrival_rng_.uniform()) / config_.arrival_rate
              : trace_times_[next_arrival_];
    }
  }
  while (!departures_.empty() && departures_.top().first <= now) {
    const std::size_t k = departures_.top().second;
    departures_.pop();
    const auto it = position_.find(k);
    if (it == position_.end()) continue;
    const std::size_t pos = it->second;
    const std::size_t last = arrived_.back();
    arrived_[pos] = last;
    position_[last] = pos;
    arrived_.pop_back();
    position_.erase(k);
  }
}

bool FederationSession::event_cohort(std::vector<std::size_t>& sampled) {
  const std::size_t budget = arrival_budget();
  process_events(result_.simulated_seconds);
  while (arrived_.empty()) {
    if (next_arrival_ >= budget) return false;  // population drained for good
    // Nobody is present: fast-forward the simulated clock to the next
    // arrival instead of burning empty rounds.
    result_.simulated_seconds = next_arrival_time_;
    process_events(result_.simulated_seconds);
  }
  const std::size_t want = std::min(per_round_, arrived_.size());
  const std::vector<std::size_t> picks =
      sample_rng_.sample_without_replacement(arrived_.size(), want);
  sampled.reserve(want);
  for (const std::size_t i : picks) sampled.push_back(arrived_[i]);
  return true;
}

std::uint64_t FederationSession::total_up_bytes() const noexcept {
  return base_up_bytes_ + algorithm_->ledger().total_up();
}

std::uint64_t FederationSession::total_down_bytes() const noexcept {
  return base_down_bytes_ + algorithm_->ledger().total_down();
}

bool FederationSession::advance_round(RoundObserver* observer) {
  const std::size_t round_index = round_;  // 0-based, what run_round receives
  ++round_;
  last_phases_ = {};  // the round's evaluate() adds its eval share afterwards
  const telemetry::StopWatch sample_watch;
  std::vector<std::size_t> sampled;
  if (event_driven_) {
    if (!event_cohort(sampled)) {
      ++result_.skipped_rounds;
      return false;
    }
  } else {
    const std::size_t n = algorithm_->num_clients();
    sampled = sample_rng_.sample_without_replacement(n, per_round_);
  }

  if (config_.dropout_prob > 0.0) {
    std::vector<std::size_t> alive;
    for (const std::size_t k : sampled) {
      if (dropout_rng_.bernoulli(config_.dropout_prob)) {
        ++result_.dropped_clients;
      } else {
        alive.push_back(k);
      }
    }
    sampled = std::move(alive);
    if (sampled.empty()) {
      // Nobody reported back; the server waits for the next round.
      ++result_.skipped_rounds;
      return false;
    }
  }
  last_phases_.sample = sample_watch.seconds();
  telemetry::record_span("sample", sample_watch);
  if (observer != nullptr) observer->on_round_begin(round_, sampled);
  const std::uint64_t up_before = algorithm_->ledger().total_up();
  const std::uint64_t down_before = algorithm_->ledger().total_down();
  const telemetry::StopWatch round_watch;
  algorithm_->run_round(round_index, sampled);
  // The aggregate phase is the round's wall time NOT spent inside the
  // channel's three phases — i.e. the algorithm's server-side work (mask
  // bookkeeping, aggregation rules). The span is emitted flush against the
  // round's end; the interleaved slices are summed into one block.
  if (round_watch.armed()) {
    const Channel::PhaseSeconds& channel = algorithm_->channel().last_phase_seconds();
    last_phases_.broadcast_encode = channel.encode;
    last_phases_.transport_exchange = channel.exchange;
    last_phases_.collect = channel.collect;
    const double wall = round_watch.seconds();
    last_phases_.aggregate =
        std::max(0.0, wall - channel.encode - channel.exchange - channel.collect);
    if (telemetry::enabled(telemetry::Level::kTrace)) {
      const auto end = std::chrono::steady_clock::now();
      const auto aggregate_span =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(last_phases_.aggregate));
      telemetry::record_span("aggregate", end - aggregate_span, end);
    }
    total_phases_.sample += last_phases_.sample;
    total_phases_.broadcast_encode += last_phases_.broadcast_encode;
    total_phases_.transport_exchange += last_phases_.transport_exchange;
    total_phases_.collect += last_phases_.collect;
    total_phases_.aggregate += last_phases_.aggregate;
  }
  const double simulated = algorithm_->last_round_seconds();
  result_.simulated_seconds += simulated;
  if (observer != nullptr) {
    RoundEndInfo info;
    info.round = round_;
    info.sampled = sampled;
    info.round_up_bytes = algorithm_->ledger().total_up() - up_before;
    info.round_down_bytes = algorithm_->ledger().total_down() - down_before;
    info.round_seconds = simulated;
    observer->on_round_end(info);
  }
  return true;
}

double FederationSession::evaluate(RoundObserver* observer) {
  const telemetry::StopWatch eval_watch;
  const double avg = algorithm_->average_test_accuracy();
  const double eval_seconds = eval_watch.seconds();
  last_phases_.eval += eval_seconds;
  total_phases_.eval += eval_seconds;
  telemetry::record_span("eval", eval_watch);
  result_.curve.push_back({round_, avg});
  if (config_.rounds > 0) {
    SUBFEDAVG_LOG(kInfo) << algorithm_->name() << " round " << round_ << "/"
                         << config_.rounds << " avg personalized acc = " << avg;
  } else {
    SUBFEDAVG_LOG(kInfo) << algorithm_->name() << " round " << round_
                         << " avg personalized acc = " << avg;
  }
  if (observer != nullptr) observer->on_eval(round_, avg);
  return avg;
}

RunResult FederationSession::finish(RoundObserver* observer) {
  result_.final_per_client = algorithm_->all_test_accuracies();
  result_.final_avg_accuracy = 0.0;
  for (const double a : result_.final_per_client) result_.final_avg_accuracy += a;
  if (!result_.final_per_client.empty()) {
    result_.final_avg_accuracy /= static_cast<double>(result_.final_per_client.size());
  }
  result_.up_bytes = total_up_bytes();
  result_.down_bytes = total_down_bytes();
  if (observer != nullptr) observer->on_run_end(result_);
  return result_;
}

RunResult FederationSession::run_to_completion(RoundObserver* observer) {
  SUBFEDAVG_CHECK(config_.rounds > 0, "need at least one round");
  while (round_ < config_.rounds) {
    if (!advance_round(observer)) continue;
    const bool last = round_ == config_.rounds;
    const bool periodic = config_.eval_every > 0 && round_ % config_.eval_every == 0;
    if (last || periodic) evaluate(observer);
  }
  return finish(observer);
}

void FederationSession::save(const std::string& path) {
  SUBFEDAVG_CHECK(!event_driven_,
                  "event-driven sessions (arrivals > 0 or arrival_trace) do not "
                  "checkpoint yet");
  static telemetry::Counter& writes = telemetry::counter("checkpoint.writes");
  static telemetry::Timer& write_time = telemetry::timer("checkpoint.write_seconds");
  writes.add();
  const telemetry::ScopedSpan span("checkpoint_write", &write_time);
  wire::Bytes out;
  wire::put_u32(out, kSessionMagic);
  wire::put_u32(out, kSessionVersion);
  wire::put_string(out, spec_kv_);
  wire::put_u64(out, round_);
  wire::put_u64(out, result_.dropped_clients);
  wire::put_u64(out, result_.skipped_rounds);
  wire::put_f64(out, result_.simulated_seconds);
  wire::put_u64(out, total_up_bytes());
  wire::put_u64(out, total_down_bytes());
  wire::put_u32(out, static_cast<std::uint32_t>(result_.curve.size()));
  for (const RoundPoint& point : result_.curve) {
    wire::put_u64(out, point.round);
    wire::put_f64(out, point.avg_accuracy);
  }
  put_engine(out, sample_rng_);
  put_engine(out, dropout_rng_);
  wire::put_blob(out, checkpoint_bytes(*algorithm_));
  // A SIGKILL mid-write must leave the previous checkpoint intact.
  wire::write_file_atomic(path, out);
}

void FederationSession::restore(const std::string& path) {
  SUBFEDAVG_CHECK(!event_driven_,
                  "event-driven sessions (arrivals > 0 or arrival_trace) do not "
                  "checkpoint yet");
  const wire::Bytes bytes = wire::read_file(path);
  wire::Reader reader(bytes, "session checkpoint");
  SUBFEDAVG_CHECK(reader.u32() == kSessionMagic, "bad session checkpoint magic");
  SUBFEDAVG_CHECK(reader.u32() == kSessionVersion, "unsupported session checkpoint version");
  const std::string saved_kv = reader.string();
  SUBFEDAVG_CHECK(spec_kv_.empty() || saved_kv.empty() || saved_kv == spec_kv_,
                  "session checkpoint " << path
                                        << " was written by a different spec — restart the "
                                           "server with the spec it was started with, or "
                                           "remove the checkpoint to begin a fresh federation");
  const std::uint64_t round = reader.u64();
  RunResult result;
  result.dropped_clients = reader.u64();
  result.skipped_rounds = reader.u64();
  result.simulated_seconds = reader.f64();
  const std::uint64_t up_bytes = reader.u64();
  const std::uint64_t down_bytes = reader.u64();
  const std::uint32_t points = reader.count(16);
  result.curve.reserve(points);
  for (std::uint32_t i = 0; i < points; ++i) {
    RoundPoint point;
    point.round = reader.u64();
    point.avg_accuracy = reader.f64();
    result.curve.push_back(point);
  }
  const Rng sample_rng = read_engine(reader);
  const Rng dropout_rng = read_engine(reader);
  const std::span<const std::uint8_t> algorithm_bytes = reader.blob();
  reader.finish();
  // Nothing changes until the whole file has decoded.
  restore_checkpoint_bytes(*algorithm_, algorithm_bytes);
  round_ = round;
  result_ = std::move(result);
  base_up_bytes_ = up_bytes;
  base_down_bytes_ = down_bytes;
  // The saved engines continue the streams where the uninterrupted run's
  // stood, which is what makes round k+1 of a restored session
  // bit-identical; restore costs nothing per saved round.
  init_streams();
  sample_rng_ = sample_rng;
  dropout_rng_ = dropout_rng;
}

}  // namespace subfed
