// Channel API: envelopes, codec stack, transport equivalence, crash
// isolation, and the driver's simulated round time.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "comm/channel.h"
#include "comm/serialize.h"
#include "fl/experiment.h"
#include "fl/registry.h"
#include "fl/sweep.h"
#include "nn/model_zoo.h"
#include "pruning/unstructured.h"
#include "serve/session.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"

namespace subfed {
namespace {

StateDict sample_state(std::uint64_t seed = 1) {
  Rng rng(seed);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  return m.state();
}

ModelMask sample_mask(Model& model, double rate) {
  ModelMask mask = ModelMask::ones_like(model, MaskScope::kAllPrunable);
  return derive_magnitude_mask(model, mask, rate);
}

// ---------------------------------------------------------------------------
// Envelopes

TEST(Envelope, RoundTripsHeaderAndSections) {
  Envelope envelope;
  envelope.kind = MessageKind::kClientUpdate;
  envelope.round = 7;
  envelope.client = 13;
  envelope.num_examples = 120;
  envelope.quantize = QuantCodec::kInt8;
  envelope.delta = true;
  envelope.sections.push_back({1, 2, 3});
  envelope.sections.push_back({});  // empty side-band section survives
  envelope.sections.push_back({0xFF});

  const Envelope decoded = decode_envelope(encode_envelope(envelope));
  EXPECT_EQ(decoded.kind, MessageKind::kClientUpdate);
  EXPECT_EQ(decoded.round, 7u);
  EXPECT_EQ(decoded.client, 13u);
  EXPECT_EQ(decoded.num_examples, 120u);
  EXPECT_EQ(decoded.quantize, QuantCodec::kInt8);
  EXPECT_TRUE(decoded.delta);
  ASSERT_EQ(decoded.sections.size(), 3u);
  EXPECT_EQ(decoded.sections[0], envelope.sections[0]);
  EXPECT_TRUE(decoded.sections[1].empty());
  EXPECT_EQ(decoded.sections[2], envelope.sections[2]);
}

TEST(Envelope, RejectsGarbage) {
  Envelope envelope;
  envelope.sections.push_back({1, 2, 3});
  std::vector<std::uint8_t> bytes = encode_envelope(envelope);
  bytes[0] ^= 0xFF;
  EXPECT_THROW(decode_envelope(bytes), CheckError);

  std::vector<std::uint8_t> truncated = encode_envelope(envelope);
  truncated.resize(truncated.size() - 2);
  EXPECT_THROW(decode_envelope(truncated), CheckError);

  // A 28-byte header claiming 2^32-1 sections is rejected before the section
  // list is reserved, not with std::bad_alloc.
  std::vector<std::uint8_t> claiming = encode_envelope(Envelope{});
  ASSERT_EQ(claiming.size(), 28u);
  std::fill(claiming.end() - 4, claiming.end(), 0xFF);
  EXPECT_THROW(decode_envelope(claiming), CheckError);
}

// ---------------------------------------------------------------------------
// Payload codec

TEST(PayloadCodec, NoneIsBitExactSerializeFormat) {
  const StateDict state = sample_state();
  EXPECT_EQ(encode_payload(state, nullptr, QuantCodec::kNone),
            encode_update(state, nullptr));
  const StateDict decoded = decode_payload(encode_payload(state, nullptr, QuantCodec::kNone));
  for (std::size_t e = 0; e < state.size(); ++e) {
    EXPECT_EQ(decoded[e].second, state[e].second);
  }
}

TEST(PayloadCodec, Fp16RoundTripsWithinHalfPrecision) {
  const StateDict state = sample_state(2);
  const StateDict decoded = decode_payload(encode_payload(state, nullptr, QuantCodec::kFp16));
  ASSERT_EQ(decoded.size(), state.size());
  for (std::size_t e = 0; e < state.size(); ++e) {
    const Tensor& a = state[e].second;
    const Tensor& b = decoded[e].second;
    for (std::size_t i = 0; i < a.numel(); ++i) {
      // Half precision: ~2^-11 relative error.
      EXPECT_NEAR(b[i], a[i], std::fabs(a[i]) * 1e-3 + 1e-6) << state[e].first;
    }
  }
}

TEST(PayloadCodec, Int8RoundTripsWithinScaleStep) {
  const StateDict state = sample_state(3);
  const StateDict decoded = decode_payload(encode_payload(state, nullptr, QuantCodec::kInt8));
  for (std::size_t e = 0; e < state.size(); ++e) {
    const Tensor& a = state[e].second;
    const Tensor& b = decoded[e].second;
    float peak = 0.0f;
    for (std::size_t i = 0; i < a.numel(); ++i) peak = std::max(peak, std::fabs(a[i]));
    const float step = peak / 127.0f;
    for (std::size_t i = 0; i < a.numel(); ++i) {
      EXPECT_NEAR(b[i], a[i], step * 0.51f + 1e-7f) << state[e].first;
    }
  }
}

TEST(PayloadCodec, MaskedQuantizedPayloadRecoversMaskAndZeros) {
  Rng rng(4);
  Model model = ModelSpec::cnn5(10).build_init(rng);
  const ModelMask mask = sample_mask(model, 0.6);
  mask.apply_to_weights(model);
  const StateDict state = model.state();

  for (const QuantCodec codec : {QuantCodec::kFp16, QuantCodec::kInt8}) {
    ModelMask recovered;
    const StateDict decoded =
        decode_payload(encode_payload(state, &mask, codec), &recovered);
    ASSERT_EQ(recovered.num_entries(), mask.num_entries());
    for (const auto& [name, bits] : mask) {
      const Tensor* r = recovered.find(name);
      ASSERT_NE(r, nullptr) << name;
      EXPECT_EQ(*r, bits) << name;
      const Tensor* d = decoded.find(name);
      ASSERT_NE(d, nullptr);
      for (std::size_t i = 0; i < bits.numel(); ++i) {
        if (bits[i] == 0.0f) EXPECT_EQ((*d)[i], 0.0f) << name << "[" << i << "]";
      }
    }
  }
}

TEST(PayloadCodec, QuantizedMaskedSmallerThanFp32Masked) {
  Rng rng(5);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  const ModelMask mask = sample_mask(model, 0.5);
  const StateDict state = model.state();
  const std::size_t fp32 = encode_payload(state, &mask, QuantCodec::kNone).size();
  const std::size_t fp16 = encode_payload(state, &mask, QuantCodec::kFp16).size();
  const std::size_t int8 = encode_payload(state, &mask, QuantCodec::kInt8).size();
  EXPECT_LT(fp16, fp32);
  EXPECT_LT(int8, fp16);
}

TEST(PayloadCodec, DeltaReferenceRoundTripsExactly) {
  Rng rng(6);
  Model model = ModelSpec::cnn5(10).build_init(rng);
  const ModelMask mask = sample_mask(model, 0.4);
  mask.apply_to_weights(model);
  StateDict state = model.state();
  const StateDict original = state;
  const StateDict reference = sample_state(7);

  subtract_reference(state, &mask, reference);
  apply_reference(state, &mask, reference);
  for (std::size_t e = 0; e < original.size(); ++e) {
    const Tensor& a = original[e].second;
    const Tensor& b = state[e].second;
    for (std::size_t i = 0; i < a.numel(); ++i) {
      EXPECT_NEAR(b[i], a[i], 1e-6f) << original[e].first;
    }
  }
  // Masked-out positions were never touched (still exact zeros).
  for (const auto& [name, bits] : mask) {
    const Tensor* t = state.find(name);
    for (std::size_t i = 0; i < bits.numel(); ++i) {
      if (bits[i] == 0.0f) EXPECT_EQ((*t)[i], 0.0f);
    }
  }
}

TEST(PayloadCodec, DeltaReferenceSubtractsKeptEntriesAndKeepsMaskedBits) {
  // Kept entries become exactly x − r (one rounding); masked entries keep
  // every bit, a planted −0 included; an entry the mask does not cover is
  // shifted everywhere.
  StateDict state;
  state.add("w", Tensor(Shape{6}, {1.5f, -0.0f, 3.25f, 0.1f, -7.0f, 2.0f}));
  state.add("b", Tensor(Shape{2}, {0.3f, -0.0f}));
  StateDict reference;
  reference.add("w", Tensor(Shape{6}, {0.7f, 5.0f, -1.1f, 0.2f, 9.0f, 0.0f}));
  reference.add("b", Tensor(Shape{2}, {0.1f, 0.0f}));
  ModelMask mask;
  mask.set("w", Tensor(Shape{6}, {1.0f, 0.0f, 1.0f, 0.0f, 1.0f, 1.0f}));
  const StateDict original = state;

  subtract_reference(state, &mask, reference);
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  const Tensor& w = *state.find("w");
  const Tensor& x = *original.find("w");
  const Tensor& r = *reference.find("w");
  for (std::size_t i = 0; i < 6; ++i) {
    const float expected = (*mask.find("w"))[i] != 0.0f ? x[i] - r[i] : x[i];
    EXPECT_EQ(bits(w[i]), bits(expected)) << "w[" << i << "]";
  }
  EXPECT_EQ(bits(w[1]), bits(-0.0f));  // masked: not −0 + 0 = +0
  const Tensor& b = *state.find("b");
  EXPECT_EQ(bits(b[0]), bits(0.3f - 0.1f));
  EXPECT_EQ(bits(b[1]), bits(-0.0f - 0.0f));
}

TEST(Serialize, DecodeRecoversUploadedMask) {
  Rng rng(8);
  Model model = ModelSpec::cnn5(10).build_init(rng);
  const ModelMask mask = sample_mask(model, 0.5);
  const StateDict state = model.state();

  ModelMask recovered;
  decode_update(encode_update(state, &mask), &recovered);
  ASSERT_EQ(recovered.num_entries(), mask.num_entries());
  for (const auto& [name, bits] : mask) {
    const Tensor* r = recovered.find(name);
    ASSERT_NE(r, nullptr) << name;
    EXPECT_EQ(*r, bits) << name;
  }
}

// ---------------------------------------------------------------------------
// Channel configuration

TEST(ChannelConfig, MemoryTransportRejectsLossyCodecs) {
  CommLedger ledger;
  ChannelConfig config;
  config.transport = "memory";
  config.quantize = QuantCodec::kFp16;
  EXPECT_THROW(Channel(config, &ledger), CheckError);
  config.quantize = QuantCodec::kNone;
  config.delta = true;
  EXPECT_THROW(Channel(config, &ledger), CheckError);
  config.delta = false;
  EXPECT_NO_THROW(Channel(config, &ledger));
  config.transport = "carrier-pigeon";
  EXPECT_THROW(Channel(config, &ledger), CheckError);
}

TEST(ChannelConfig, SpecValidationHappensBeforeTraining) {
  ExperimentSpec spec;
  spec.transport = "memory";
  spec.quantize = "int8";
  FederatedData data(spec.dataset_spec(), spec.data_config());
  EXPECT_THROW(spec.make_context(data), CheckError);
  spec.quantize = "none";
  spec.codec = "delta";
  EXPECT_THROW(spec.make_context(data), CheckError);
  spec.transport = "loopback";
  EXPECT_NO_THROW(spec.make_context(data));
}

// ---------------------------------------------------------------------------
// Transport equivalence

ExperimentSpec small_spec(const std::string& algo) {
  set_log_level(LogLevel::kWarn);
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 6;
  spec.shard = 25;
  spec.test_per_class = 8;
  spec.rounds = 3;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.eval_every = 1;
  spec.seed = 17;
  spec.algo = algo;
  return spec;
}

void expect_same_learning(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_avg_accuracy, b.final_avg_accuracy);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].round, b.curve[i].round);
    EXPECT_EQ(a.curve[i].avg_accuracy, b.curve[i].avg_accuracy);
  }
  ASSERT_EQ(a.final_per_client.size(), b.final_per_client.size());
  for (std::size_t k = 0; k < a.final_per_client.size(); ++k) {
    EXPECT_EQ(a.final_per_client[k], b.final_per_client[k]);
  }
}

TEST(TransportEquivalence, LoopbackMatchesMemoryBitIdentically) {
  for (const char* algo : {"fedavg", "subfedavg_un", "lg_fedavg"}) {
    ExperimentSpec spec = small_spec(algo);
    const ExecutedRun memory = execute_experiment(spec);
    spec.transport = "loopback";
    const ExecutedRun loopback = execute_experiment(spec);
    expect_same_learning(memory.result, loopback.result);
    // The materialized path additionally charges the self-describing payload
    // headers, never less than the payload model.
    EXPECT_GE(loopback.result.up_bytes, memory.result.up_bytes) << algo;
    EXPECT_GE(loopback.result.down_bytes, memory.result.down_bytes) << algo;
  }
}

TEST(TransportEquivalence, SubprocessMatchesLoopbackExactly) {
  // Sub-FedAvg is the stateful worst case: masks, personal models and BN
  // buffers must all survive the side-band mirror round trip.
  ExperimentSpec spec = small_spec("subfedavg_un");
  spec.transport = "loopback";
  const ExecutedRun loopback = execute_experiment(spec);
  spec.transport = "subprocess";
  spec.channel_workers = 2;
  const ExecutedRun subprocess = execute_experiment(spec);
  expect_same_learning(loopback.result, subprocess.result);
  EXPECT_EQ(loopback.result.up_bytes, subprocess.result.up_bytes);
  EXPECT_EQ(loopback.result.down_bytes, subprocess.result.down_bytes);
  EXPECT_EQ(loopback.result.simulated_seconds, subprocess.result.simulated_seconds);
}

TEST(TransportEquivalence, SideBandStateReEvaluatesExactlyTheSampledClients) {
  // A subprocess round trains a forked copy of each client; the parent
  // stores the side-band sections it sends back (exchange.state), and that
  // write alone must mark the client for re-evaluation.
  struct Cohort final : RoundObserver {
    void on_round_begin(std::size_t /*round*/, std::span<const std::size_t> sampled) override {
      clients.assign(sampled.begin(), sampled.end());
    }
    std::vector<std::size_t> clients;
  };
  const telemetry::Level level = telemetry::level();
  telemetry::set_level(telemetry::Level::kCounters);
  telemetry::Counter& evaluated = telemetry::counter("eval.clients_evaluated");
  for (const char* algo : {"subfedavg_hy", "standalone"}) {
    ExperimentSpec spec = small_spec(algo);
    spec.transport = "subprocess";
    spec.channel_workers = 2;
    auto session = FederationSession::from_spec(spec);
    FederatedAlgorithm& algorithm = session->algorithm();
    session->evaluate();
    Cohort cohort;
    for (std::size_t round = 1; round <= 2; ++round) {
      ASSERT_TRUE(session->advance_round(&cohort)) << algo;
      const std::uint64_t before = evaluated.value();
      const std::vector<double> acc = algorithm.all_test_accuracies();
      const std::set<std::size_t> distinct(cohort.clients.begin(), cohort.clients.end());
      EXPECT_EQ(evaluated.value() - before, distinct.size()) << algo << " round " << round;
      for (std::size_t k = 0; k < acc.size(); ++k) {
        EXPECT_EQ(acc[k], algorithm.client_test_accuracy(k)) << algo << " client " << k;
      }
    }
  }
  telemetry::set_level(level);
}

TEST(TransportEquivalence, QuantizedRunsStayNearBaselineAccuracy) {
  ExperimentSpec base = small_spec("subfedavg_un");
  base.transport = "loopback";
  const ExecutedRun fp32 = execute_experiment(base);
  for (const char* quantize : {"fp16", "int8"}) {
    ExperimentSpec spec = base;
    spec.quantize = quantize;
    const ExecutedRun run = execute_experiment(spec);
    EXPECT_NEAR(run.result.final_avg_accuracy, fp32.result.final_avg_accuracy, 0.15)
        << quantize;
    EXPECT_LT(run.result.total_bytes(), fp32.result.total_bytes()) << quantize;
    EXPECT_GT(run.metrics.at("compression_ratio"),
              fp32.metrics.at("compression_ratio")) << quantize;
  }
}

TEST(TransportEquivalence, EveryRegisteredAlgorithmReportsRealTrafficAndTime) {
  for (const std::string& algo : list_algorithms()) {
    if (algo.rfind("test_", 0) == 0) continue;  // this binary's test doubles
    ExperimentSpec spec = small_spec(algo);
    spec.rounds = 2;
    spec.transport = "loopback";
    const ExecutedRun run = execute_experiment(spec);
    EXPECT_GT(run.result.up_bytes, 0u) << algo;
    EXPECT_GT(run.result.down_bytes, 0u) << algo;
    EXPECT_GT(run.result.simulated_seconds, 0.0) << algo;
  }
}

// ---------------------------------------------------------------------------
// Straggler model

TEST(RoundTime, WiderLinkSpreadSlowsTheFleetDeterministically) {
  ExperimentSpec spec = small_spec("fedavg");
  spec.transport = "loopback";
  const ExecutedRun nominal = execute_experiment(spec);
  const ExecutedRun nominal_again = execute_experiment(spec);
  EXPECT_EQ(nominal.result.simulated_seconds, nominal_again.result.simulated_seconds);

  spec.link_spread = 8.0;
  const ExecutedRun straggly = execute_experiment(spec);
  // Same bytes, slower slowest-client: the synchronous round stretches.
  EXPECT_EQ(straggly.result.total_bytes(), nominal.result.total_bytes());
  EXPECT_GT(straggly.result.simulated_seconds, nominal.result.simulated_seconds);
  expect_same_learning(nominal.result, straggly.result);
}

// ---------------------------------------------------------------------------
// Crash isolation

/// Channel-routed test algorithm whose client half dies without replying when
/// it runs outside the coordinator's process — the moral equivalent of a
/// worker OOM-kill mid-round.
class CrashyAlgorithm final : public FederatedAlgorithm {
 public:
  explicit CrashyAlgorithm(FlContext ctx) : FederatedAlgorithm(std::move(ctx)) {}

  std::string name() const override { return "Crashy"; }

  void run_round(std::size_t round, std::span<const std::size_t> sampled) override {
    static const StateDict kEmpty;
    std::vector<ClientJob> jobs(sampled.size());
    for (std::size_t i = 0; i < sampled.size(); ++i) jobs[i] = {sampled[i], &kEmpty, nullptr};
    channel_->run_round(round, jobs,
                        [coordinator = ::getpid()](std::size_t, const ClientJob&,
                                                   const StateDict&) {
                          if (::getpid() != coordinator) ::_exit(7);  // die before replying
                          return ClientResult{};
                        });
  }

  double client_test_accuracy(std::size_t) override { return 0.0; }
};

const bool crashy_registered = [] {
  registry().add("test_crashy", "worker-killing channel test double",
                 [](const FlContext& ctx, const AlgoParams&) {
                   return std::make_unique<CrashyAlgorithm>(ctx);
                 });
  return true;
}();

TEST(CrashIsolation, DeadWorkerFailsItsRunWithAnError) {
  ExperimentSpec spec = small_spec("test_crashy");
  spec.rounds = 1;
  spec.transport = "subprocess";
  EXPECT_THROW(execute_experiment(spec), CheckError);
  // The same algorithm is fine in-process: the crash is transport-side.
  spec.transport = "loopback";
  EXPECT_NO_THROW(execute_experiment(spec));
}

TEST(CrashIsolation, SweepContainsTheFailureToOneRun) {
  SweepDescription description;
  description.base = small_spec("fedavg");
  description.base.rounds = 2;
  description.base.transport = "subprocess";
  description.add_axis("algo=test_crashy,fedavg");

  SweepOptions options;
  options.jobs = 2;
  options.out_dir.clear();
  options.echo_progress = false;
  const SweepSummary summary = run_sweep(description.expand(), options);
  ASSERT_EQ(summary.outcomes.size(), 2u);
  EXPECT_FALSE(summary.outcomes[0].ok);  // test_crashy
  EXPECT_NE(summary.outcomes[0].error.find("died"), std::string::npos);
  EXPECT_TRUE(summary.outcomes[1].ok);   // fedavg survives the neighbor's crash
  EXPECT_GT(summary.outcomes[1].result.final_avg_accuracy, 0.0);
}

}  // namespace
}  // namespace subfed
