// The unified experiment API: registry lookup and construction,
// ExperimentSpec flag-parse / serialize round-trips, driver observer
// invocation order, and the JSON result writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "fl/checkpoint.h"
#include "fl/experiment.h"
#include "fl/registry.h"
#include "fl/subfedavg.h"
#include "util/check.h"
#include "util/logging.h"

namespace subfed {
namespace {

class ExperimentApi : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { set_log_level(LogLevel::kWarn); }

  static const FederatedData& data() {
    static FederatedData instance(DatasetSpec::mnist(), [] {
      FederatedDataConfig config;
      config.partition = {4, 2, 20};
      config.test_per_class = 4;
      config.seed = 9;
      return config;
    }());
    return instance;
  }

  static FlContext ctx() {
    FlContext c;
    c.data = &data();
    c.spec = ModelSpec::cnn5(10);
    c.train = {/*epochs=*/1, /*batch=*/10};
    c.seed = 9;
    return c;
  }
};

// --- registry ---------------------------------------------------------------

TEST_F(ExperimentApi, RegistryListsAllBuiltins) {
  const std::vector<std::string> names = list_algorithms();
  for (const char* expected : {"standalone", "fedavg", "fedprox", "lg_fedavg", "fedmtl",
                               "fedavg_ft", "subfedavg_un", "subfedavg_hy"}) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), expected) != names.end())
        << expected << " missing from registry";
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(ExperimentApi, RegistryCreatesEveryBuiltin) {
  for (const std::string& name : list_algorithms()) {
    const auto algorithm = registry().create(name, ctx());
    ASSERT_NE(algorithm, nullptr) << name;
    EXPECT_FALSE(algorithm->name().empty()) << name;
    EXPECT_EQ(algorithm->num_clients(), data().num_clients()) << name;
  }
}

TEST_F(ExperimentApi, RegistryUnknownNameThrowsWithKnownList) {
  try {
    registry().create("no_such_algo", ctx());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_algo"), std::string::npos);
    EXPECT_NE(what.find("subfedavg_un"), std::string::npos);  // lists known names
  }
  EXPECT_FALSE(registry().contains("no_such_algo"));
  EXPECT_THROW(registry().info("no_such_algo"), CheckError);
}

TEST_F(ExperimentApi, RegistryAliasesResolve) {
  EXPECT_TRUE(registry().contains("mtl"));
  EXPECT_TRUE(registry().contains("lgfedavg"));
  EXPECT_EQ(registry().info("mtl").name, "fedmtl");
  EXPECT_EQ(registry().create("lgfedavg", ctx())->name(), "LG-FedAvg");
}

TEST_F(ExperimentApi, RegistryParamsSelectVariant) {
  const auto un = registry().create("subfedavg_un", ctx());
  const auto hy = registry().create("subfedavg_hy", ctx());
  EXPECT_FALSE(dynamic_cast<SubFedAvg&>(*un).hybrid());
  EXPECT_TRUE(dynamic_cast<SubFedAvg&>(*hy).hybrid());
  EXPECT_EQ(un->name(), "Sub-FedAvg (Un)");
  EXPECT_EQ(hy->name(), "Sub-FedAvg (Hy)");
}

TEST_F(ExperimentApi, AlgoParamsTypedAccessors) {
  AlgoParams params;
  params.set("mu", "0.25").set_size_t("finetune_epochs", 3).set_bool("strict", true);
  EXPECT_DOUBLE_EQ(params.get_double("mu", 0.1), 0.25);
  EXPECT_EQ(params.get_size_t("finetune_epochs", 1), 3u);
  EXPECT_TRUE(params.get_bool("strict", false));
  EXPECT_DOUBLE_EQ(params.get_double("absent", 0.7), 0.7);
  params.set("bad", "not-a-number");
  EXPECT_THROW(params.get_double("bad", 0.0), CheckError);
}

// --- ExperimentSpec ---------------------------------------------------------

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(nullptr);  // argv[0] = program name slot
  for (std::string& arg : args) argv.push_back(arg.data());
  return argv;
}

TEST_F(ExperimentApi, SpecParsesFlags) {
  std::vector<std::string> args{"--dataset", "cifar10",  "--algo",   "subfedavg_hy",
                                "--clients", "24",       "--rounds", "20",
                                "--sample",  "0.3",      "--target", "0.7",
                                "--partition", "dirichlet", "--alpha", "0.1",
                                "--algo-param", "bn_l1=0.001"};
  std::vector<char*> argv = argv_of(args);
  ExperimentSpec spec;
  spec.parse_args(static_cast<int>(argv.size()), argv.data());

  EXPECT_EQ(spec.dataset, "cifar10");
  EXPECT_EQ(spec.algo, "subfedavg_hy");
  EXPECT_EQ(spec.clients, 24u);
  EXPECT_EQ(spec.rounds, 20u);
  EXPECT_DOUBLE_EQ(spec.sample, 0.3);
  EXPECT_DOUBLE_EQ(spec.target, 0.7);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.1);
  EXPECT_EQ(spec.algo_params.get_string("bn_l1", ""), "0.001");
  EXPECT_FALSE(spec.help_requested);

  const FederatedDataConfig config = spec.data_config();
  EXPECT_EQ(config.partition.kind, PartitionKind::kDirichlet);
  EXPECT_DOUBLE_EQ(config.partition.dirichlet_alpha, 0.1);
  EXPECT_EQ(spec.model_spec().arch, ModelSpec::Arch::kLeNet5);  // auto → 3-channel

  const DriverConfig driver = spec.driver_config();
  EXPECT_EQ(driver.rounds, 20u);
  EXPECT_DOUBLE_EQ(driver.sample_rate, 0.3);
}

TEST_F(ExperimentApi, SpecRejectsDanglingAndUnknownFlags) {
  {
    std::vector<std::string> args{"--rounds"};  // trailing flag, no value
    std::vector<char*> argv = argv_of(args);
    ExperimentSpec spec;
    EXPECT_THROW(spec.parse_args(static_cast<int>(argv.size()), argv.data()), CheckError);
  }
  {
    std::vector<std::string> args{"--not-a-flag", "1"};
    std::vector<char*> argv = argv_of(args);
    ExperimentSpec spec;
    EXPECT_THROW(spec.parse_args(static_cast<int>(argv.size()), argv.data()), CheckError);
  }
  {
    std::vector<std::string> args{"--rounds", "abc"};
    std::vector<char*> argv = argv_of(args);
    ExperimentSpec spec;
    EXPECT_THROW(spec.parse_args(static_cast<int>(argv.size()), argv.data()), CheckError);
  }
  {
    std::vector<std::string> args{"--help"};
    std::vector<char*> argv = argv_of(args);
    ExperimentSpec spec;
    spec.parse_args(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(spec.help_requested);
  }
}

TEST_F(ExperimentApi, SpecKvRoundTripsThroughFlagsAndText) {
  std::vector<std::string> args{"--dataset", "emnist", "--algo", "fedprox",
                                "--clients", "10",     "--seed", "42",
                                "--eval-every", "3",   "--out",  "r.json",
                                "--algo-param", "mu=0.2"};
  std::vector<char*> argv = argv_of(args);
  ExperimentSpec parsed;
  parsed.parse_args(static_cast<int>(argv.size()), argv.data());

  const std::string kv = parsed.to_kv();
  const ExperimentSpec restored = ExperimentSpec::from_kv(kv);
  EXPECT_EQ(restored.to_kv(), kv);
  EXPECT_EQ(restored.dataset, "emnist");
  EXPECT_EQ(restored.algo, "fedprox");
  EXPECT_EQ(restored.clients, 10u);
  EXPECT_EQ(restored.seed, 42u);
  EXPECT_EQ(restored.eval_every, 3u);
  EXPECT_EQ(restored.out, "r.json");
  EXPECT_TRUE(restored.algo_params == parsed.algo_params);
}

TEST_F(ExperimentApi, SpecFlagAppliesSavedFileAndLaterFlagsOverride) {
  ExperimentSpec saved;
  saved.dataset = "cifar10";
  saved.rounds = 7;
  const std::string path = ::testing::TempDir() + "/subfed_spec.kv";
  std::ofstream(path) << saved.to_kv();

  std::vector<std::string> args{"--spec", path, "--rounds", "9"};
  std::vector<char*> argv = argv_of(args);
  ExperimentSpec spec;
  spec.parse_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(spec.dataset, "cifar10");  // from the file
  EXPECT_EQ(spec.rounds, 9u);          // flag after --spec wins

  std::vector<std::string> missing{"--spec", "/nonexistent/spec.kv"};
  std::vector<char*> missing_argv = argv_of(missing);
  ExperimentSpec other;
  EXPECT_THROW(other.parse_args(static_cast<int>(missing_argv.size()), missing_argv.data()),
               CheckError);
}

TEST_F(ExperimentApi, SpecKvSkipsCommentsAndRejectsUnknownKeys) {
  const ExperimentSpec spec =
      ExperimentSpec::from_kv("# comment\n\n  \nrounds=9\ndataset=cifar100\n");
  EXPECT_EQ(spec.rounds, 9u);
  EXPECT_EQ(spec.dataset, "cifar100");
  EXPECT_THROW(ExperimentSpec::from_kv("nonsense=1\n"), CheckError);
  EXPECT_THROW(ExperimentSpec::from_kv("no equals sign\n"), CheckError);
}

TEST_F(ExperimentApi, SpecResolvesAdaptiveStepAndExplicitOverrides) {
  ExperimentSpec spec;
  spec.target = 0.5;
  spec.step = 0.0;
  spec.rounds = 20;
  spec.sample = 0.5;
  const AlgoParams resolved = spec.resolved_algo_params();
  EXPECT_DOUBLE_EQ(resolved.get_double("target", 0.0), 0.5);
  EXPECT_NEAR(resolved.get_double("step", 0.0),
              adaptive_prune_step(0.5, 20, 0.5), 1e-12);

  spec.step = 0.12;
  EXPECT_DOUBLE_EQ(spec.resolved_algo_params().get_double("step", 0.0), 0.12);

  spec.algo_params.set_double("step", 0.25);  // explicit param beats the field
  EXPECT_DOUBLE_EQ(spec.resolved_algo_params().get_double("step", 0.0), 0.25);

  // The adaptive step follows an algo_params target override, not the field.
  ExperimentSpec overridden;
  overridden.target = 0.5;
  overridden.rounds = 20;
  overridden.sample = 0.5;
  overridden.algo_params.set_double("target", 0.9);
  EXPECT_NEAR(overridden.resolved_algo_params().get_double("step", 0.0),
              adaptive_prune_step(0.9, 20, 0.5), 1e-12);
}

TEST_F(ExperimentApi, SpecResolvesHybridChannelTarget) {
  ExperimentSpec spec;
  spec.algo = "subfedavg_hy";
  spec.target = 0.2;
  // Channels follow min(0.5, target) as the old CLI did…
  EXPECT_DOUBLE_EQ(spec.resolved_algo_params().get_double("channel_target", -1.0), 0.2);
  spec.target = 0.9;
  EXPECT_DOUBLE_EQ(spec.resolved_algo_params().get_double("channel_target", -1.0), 0.5);
  // …unless explicitly overridden, and un runs get no channel_target at all.
  spec.algo_params.set_double("channel_target", 0.3);
  EXPECT_DOUBLE_EQ(spec.resolved_algo_params().get_double("channel_target", -1.0), 0.3);
  ExperimentSpec un;
  un.algo = "subfedavg_un";
  EXPECT_FALSE(un.resolved_algo_params().has("channel_target"));
}

TEST_F(ExperimentApi, SpecSeedRoundTripsFullUint64Range) {
  std::vector<std::string> args{"--seed", "18446744073709551615"};  // UINT64_MAX
  std::vector<char*> argv = argv_of(args);
  ExperimentSpec spec;
  spec.parse_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(spec.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ExperimentSpec::from_kv(spec.to_kv()).seed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(ExperimentSpec::from_kv("seed=1.5\n"), CheckError);
  EXPECT_THROW(ExperimentSpec::from_kv("seed=-3\n"), CheckError);
}

// --- observer hooks ---------------------------------------------------------

/// Records one tag per callback so tests can assert exact ordering.
class RecordingObserver final : public RoundObserver {
 public:
  void on_round_begin(std::size_t round, std::span<const std::size_t> sampled) override {
    EXPECT_FALSE(sampled.empty());
    events.push_back("begin" + std::to_string(round));
  }
  void on_round_end(const RoundEndInfo& info) override {
    EXPECT_FALSE(info.sampled.empty());
    round_bytes += info.round_up_bytes + info.round_down_bytes;
    events.push_back("end" + std::to_string(info.round));
  }
  void on_eval(std::size_t round, double avg_accuracy) override {
    EXPECT_GE(avg_accuracy, 0.0);
    EXPECT_LE(avg_accuracy, 1.0);
    events.push_back("eval" + std::to_string(round));
  }
  void on_run_end(const RunResult&) override { events.push_back("run_end"); }

  std::vector<std::string> events;
  std::uint64_t round_bytes = 0;
};

TEST_F(ExperimentApi, ObserverCallbackOrder) {
  auto algorithm = registry().create("fedavg", ctx());
  DriverConfig driver;
  driver.rounds = 3;
  driver.sample_rate = 0.5;
  driver.eval_every = 2;
  driver.seed = 9;

  RecordingObserver observer;
  const RunResult result = run_federation(*algorithm, driver, &observer);

  const std::vector<std::string> expected{
      "begin1", "end1", "begin2", "end2", "eval2", "begin3", "end3", "eval3", "run_end"};
  EXPECT_EQ(observer.events, expected);
  // Per-round ledger deltas sum to the run totals.
  EXPECT_EQ(observer.round_bytes, result.total_bytes());
  ASSERT_EQ(result.curve.size(), 2u);
  EXPECT_EQ(result.curve.back().round, 3u);
}

TEST_F(ExperimentApi, ObserverChainFansOutInOrder) {
  RecordingObserver first;
  RecordingObserver second;
  ObserverChain chain;
  chain.attach(&first);
  chain.attach(&second);

  auto algorithm = registry().create("standalone", ctx());
  DriverConfig driver;
  driver.rounds = 1;
  driver.sample_rate = 0.5;
  driver.seed = 9;
  run_federation(*algorithm, driver, &chain);

  const std::vector<std::string> expected{"begin1", "end1", "eval1", "run_end"};
  EXPECT_EQ(first.events, expected);
  EXPECT_EQ(second.events, expected);
}

// --- checkpointing ----------------------------------------------------------

TEST_F(ExperimentApi, GenericCheckpointRoundTripsEveryBuiltinAlgorithm) {
  DriverConfig driver;
  driver.rounds = 2;
  driver.sample_rate = 0.5;
  driver.seed = 9;

  for (const std::string& name : list_algorithms()) {
    auto original = registry().create(name, ctx());
    run_federation(*original, driver);
    const std::vector<double> expected = original->all_test_accuracies();

    const std::string path = ::testing::TempDir() + "/subfed_" + name + ".ckpt";
    save_checkpoint(*original, path);

    auto restored = registry().create(name, ctx());
    load_checkpoint(*restored, path);
    const std::vector<double> actual = restored->all_test_accuracies();
    ASSERT_EQ(actual.size(), expected.size()) << name;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_NEAR(actual[k], expected[k], 1e-12) << name << " client " << k;
    }
  }
}

TEST_F(ExperimentApi, CheckpointRejectsAlgorithmMismatch) {
  auto fedavg = registry().create("fedavg", ctx());
  const std::string path = ::testing::TempDir() + "/subfed_mismatch.ckpt";
  save_checkpoint(*fedavg, path);
  auto standalone = registry().create("standalone", ctx());
  EXPECT_THROW(load_checkpoint(*standalone, path), CheckError);
}

TEST_F(ExperimentApi, CheckpointObserverSnapshotsEveryNRounds) {
  auto algorithm = registry().create("subfedavg_un", ctx());
  const std::string path = ::testing::TempDir() + "/subfed_observer.ckpt";
  std::filesystem::remove(path);

  CheckpointObserver observer(*algorithm, path, /*every=*/2);
  DriverConfig driver;
  driver.rounds = 5;
  driver.sample_rate = 0.5;
  driver.seed = 9;
  run_federation(*algorithm, driver, &observer);

  // Rounds 2 and 4 plus the final on_run_end snapshot.
  EXPECT_EQ(observer.snapshots_taken(), 3u);
  ASSERT_TRUE(std::filesystem::exists(path));

  // When the last round is itself a snapshot boundary, on_run_end skips the
  // redundant re-save of identical state.
  auto aligned = registry().create("fedavg", ctx());
  CheckpointObserver aligned_observer(
      *aligned, ::testing::TempDir() + "/subfed_observer_aligned.ckpt", /*every=*/2);
  driver.rounds = 4;
  run_federation(*aligned, driver, &aligned_observer);
  EXPECT_EQ(aligned_observer.snapshots_taken(), 2u);

  auto restored = registry().create("subfedavg_un", ctx());
  load_checkpoint(*restored, path);
  const std::vector<double> expected = algorithm->all_test_accuracies();
  const std::vector<double> actual = restored->all_test_accuracies();
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(actual[k], expected[k], 1e-12);
  }
}

TEST_F(ExperimentApi, ExecuteExperimentWiresCheckpointingFromTheSpec) {
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.clients = 4;
  spec.shard = 20;
  spec.test_per_class = 4;
  spec.rounds = 2;
  spec.epochs = 1;
  spec.sample = 0.5;
  spec.seed = 9;
  spec.algo = "fedavg";
  spec.checkpoint_every = 1;
  spec.out = ::testing::TempDir() + "/subfed_exec.json";
  std::filesystem::remove(spec.resolved_checkpoint_path());

  const ExecutedRun run = execute_experiment(spec);
  EXPECT_EQ(run.algorithm_name, "FedAvg");
  EXPECT_GT(run.result.final_avg_accuracy, 0.0);
  EXPECT_TRUE(std::filesystem::exists(spec.out));
  // checkpoint_path empty → derived from out: .json → .ckpt.
  EXPECT_EQ(spec.resolved_checkpoint_path(), ::testing::TempDir() + "/subfed_exec.ckpt");
  EXPECT_TRUE(std::filesystem::exists(spec.resolved_checkpoint_path()));

  // Sub-FedAvg runs surface their pruned fractions as metrics.
  spec.algo = "subfedavg_un";
  spec.checkpoint_every = 0;
  spec.out.clear();
  const ExecutedRun sub = execute_experiment(spec);
  EXPECT_EQ(sub.metrics.count("unstructured_pruned"), 1u);
}

TEST_F(ExperimentApi, SpecTagAndCheckpointFieldsRoundTrip) {
  ExperimentSpec spec;
  spec.tag = "paper-table-1";
  spec.checkpoint_every = 25;
  spec.checkpoint_path = "snap.ckpt";
  const ExperimentSpec restored = ExperimentSpec::from_kv(spec.to_kv());
  EXPECT_EQ(restored.tag, "paper-table-1");
  EXPECT_EQ(restored.checkpoint_every, 25u);
  EXPECT_EQ(restored.checkpoint_path, "snap.ckpt");

  EXPECT_EQ(restored.resolved_checkpoint_path(), "snap.ckpt");
  ExperimentSpec derived;
  derived.out = "results/run.json";
  EXPECT_EQ(derived.resolved_checkpoint_path(), "results/run.ckpt");
  derived.out = "results.v2/run";  // dot in a directory, not an extension
  EXPECT_EQ(derived.resolved_checkpoint_path(), "results.v2/run.ckpt");
  derived.out.clear();
  EXPECT_EQ(derived.resolved_checkpoint_path(), "checkpoint.ckpt");
}

TEST_F(ExperimentApi, SpecBackendAndRobustFieldsRoundTripAndValidate) {
  ExperimentSpec spec;
  spec.backend = "naive";
  spec.math_threads = 3;
  spec.corrupt_fraction = 0.25;
  spec.corrupt_noise = 2.5;
  spec.robust_filter = 3.0;
  const ExperimentSpec restored = ExperimentSpec::from_kv(spec.to_kv());
  EXPECT_EQ(restored.backend, "naive");
  EXPECT_EQ(restored.math_threads, 3u);
  EXPECT_DOUBLE_EQ(restored.corrupt_fraction, 0.25);
  EXPECT_DOUBLE_EQ(restored.corrupt_noise, 2.5);
  EXPECT_DOUBLE_EQ(restored.robust_filter, 3.0);

  // The same fields parse as flags (so they are sweep-axis reachable).
  ExperimentSpec flagged;
  std::vector<std::string> args{"--backend",          "naive", "--math-threads", "2",
                                "--corrupt-fraction", "0.5",   "--robust-filter", "4"};
  std::vector<char*> argv = argv_of(args);
  flagged.parse_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flagged.backend, "naive");
  EXPECT_EQ(flagged.math_threads, 2u);
  EXPECT_DOUBLE_EQ(flagged.corrupt_fraction, 0.5);
  EXPECT_DOUBLE_EQ(flagged.robust_filter, 4.0);

  // An unknown backend fails fast when the context is built, before training.
  ExperimentSpec bogus;
  bogus.backend = "cublas";
  const FederatedData data(bogus.dataset_spec(), bogus.data_config());
  EXPECT_THROW(bogus.make_context(data), CheckError);

  // The context carries the knobs through to the algorithm: the constructor
  // applies ctx.backend to the model spec every built model uses.
  ExperimentSpec wired;
  wired.backend = "naive";
  wired.math_threads = 2;
  wired.corrupt_fraction = 0.1;
  wired.robust_filter = 3.0;
  const FederatedData wired_data(wired.dataset_spec(), wired.data_config());
  const FlContext ctx = wired.make_context(wired_data);
  EXPECT_EQ(ctx.backend, "naive");
  EXPECT_EQ(ctx.math_threads, 2u);
  EXPECT_DOUBLE_EQ(ctx.corrupt_fraction, 0.1);
  EXPECT_DOUBLE_EQ(ctx.robust_filter, 3.0);
  const std::unique_ptr<FederatedAlgorithm> algorithm = wired.make_algorithm(ctx);
  EXPECT_EQ(algorithm->context().spec.backend, "naive");
}

// --- JSON result writer -----------------------------------------------------

TEST_F(ExperimentApi, RunResultJsonContainsCurveAndBytes) {
  ExperimentSpec spec;
  spec.dataset = "mnist";
  spec.out = "with \"quotes\"";  // exercises string escaping

  RunResult result;
  result.curve = {{2, 0.5}, {4, 0.75}};
  result.final_avg_accuracy = 0.75;
  result.final_per_client = {0.5, 1.0};
  result.up_bytes = 123;
  result.down_bytes = 456;

  const std::string json = run_result_json(spec, "FedAvg", result);
  EXPECT_NE(json.find("\"algorithm\": \"FedAvg\""), std::string::npos);
  EXPECT_NE(json.find("\"curve\""), std::string::npos);
  EXPECT_NE(json.find("{\"round\": 2, \"avg_accuracy\": 0.5}"), std::string::npos);
  EXPECT_NE(json.find("\"up_bytes\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"down_bytes\": 456"), std::string::npos);
  EXPECT_NE(json.find("\"total_bytes\": 579"), std::string::npos);
  EXPECT_NE(json.find("with \\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\"dataset\": \"mnist\""), std::string::npos);
}

}  // namespace
}  // namespace subfed
