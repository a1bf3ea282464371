// The traced run's per-layer ledger, measured from outside the program.
//
// Every tenth round the Prober copies the live federation's state
// (checkpoint_state before the round, the sampled cohort from
// on_round_begin) and, after the live round has finished, re-runs each
// sampled client's round on disposable copies through the layers' own public
// functions:
//
//   core     FederatedAlgorithm::run_client on a probe algorithm restored with
//            restore_checkpoint_state; the cohort's aggregate; per-client eval
//   nn       the client round's call sequence replayed layer by layer
//            (gather_rows, Layer::forward/backward, softmax_cross_entropy,
//            Sgd::step) on one probe Model per workload
//   pruning  mask derivation, gradient masking, combined masks, the gate
//   tensor   Device::stats() deltas; conv time with dense vs pruned weights
//   comm     encode_payload/decode_payload (+ the delta reference ops)
//   data     FederatedData construction and cold client fetches
//
// Probes never touch the live federation's state, so a traced run's results
// are bit-identical to an untraced one. Each probe also checks itself: the
// replay must reproduce run_client bit-for-bit, and the cohort's aggregate
// must equal the live round's new global model.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "federation.h"
#include "nn/model.h"
#include "telemetry/trace.h"
#include "tensor/device.h"

namespace subfed::bench {

/// Bench-side spans {name, start, dur, parent, round, client}. Every span
/// feeds per-name totals and self times (duration minus the part covered by
/// child spans); coarse spans, and the first steps of each replayed epoch, are
/// also kept for the Chrome trace.
class SpanLedger {
 public:
  struct Stat {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  SpanLedger();

  /// Interned name id (stable for the ledger's lifetime).
  int intern(const std::string& name);
  const std::string& name(int id) const { return names_[static_cast<std::size_t>(id)]; }

  void set_context(std::size_t round, std::size_t client) {
    round_ = round;
    client_ = client;
  }
  /// Whether fine-grained spans (per step, per layer) go to the Chrome trace.
  void set_detail(bool detail) { detail_ = detail; }

  void open(int id, bool fine = false);
  void close();

  /// RAII open/close.
  class Scope {
   public:
    Scope(SpanLedger& ledger, int id, bool fine = false) : ledger_(ledger) {
      ledger_.open(id, fine);
    }
    ~Scope() { ledger_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLedger& ledger_;
  };

  /// Per-name totals, indexed by name id.
  const std::vector<Stat>& stats() const { return stats_; }

  /// One Chrome trace: the program's telemetry spans (pid 1, their own
  /// threads) and the bench spans (pid 2) on the same clock.
  std::string chrome_trace(const std::vector<telemetry::Span>& program) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Frame {
    int id;
    Clock::time_point start;
    std::int64_t child_ns;
    int exported;  ///< index into exported_, or -1
  };
  struct Exported {
    int id;
    double start_us;
    double dur_us;
    int parent;  ///< name id of the enclosing span, or -1
    std::size_t round;
    std::size_t client;
  };

  std::vector<std::string> names_;
  std::vector<Stat> stats_;
  std::vector<Frame> stack_;
  std::vector<Exported> exported_;
  Clock::time_point epoch_;
  double epoch_us_ = 0.0;  ///< telemetry::trace_now_us() at epoch_
  std::size_t round_ = 0;
  std::size_t client_ = 0;
  bool detail_ = true;
};

/// One per-layer metric of the traced run.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t n = 0;  ///< samples behind the value
};

class Prober final : public RoundHooks {
 public:
  explicit Prober(const ExperimentSpec& spec);
  ~Prober() override;

  void before_round(FederationSession& session, std::size_t round) override;
  void on_cohort(std::span<const std::size_t> sampled) override;
  void after_round(FederationSession& session, std::size_t round, double wall_s) override;
  void after_eval(FederationSession& session) override;

  /// The per-layer metrics, in BENCHMARK.json order. `untraced_round_p50` is
  /// the same workload's untraced round p50 (for trace.overhead).
  std::vector<LayerMetric> metrics(const FederationRun& traced, double untraced_round_p50) const;

  /// Self-time table over every bench span name, largest first.
  std::string self_time_table() const;
  /// Writes the merged Chrome trace (drains the program's spans).
  void write_trace(const std::string& path) const;

  /// Probe self-checks run, and the ones that failed (replay ≠ run_client,
  /// aggregate ≠ live global, a probe that threw).
  std::size_t checks() const noexcept;
  const std::vector<std::string>& failures() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace subfed::bench
