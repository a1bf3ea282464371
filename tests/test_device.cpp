// Device API: registry, concurrent GEMM callers, workspace leases, and the
// registered env-knob table (asserted against the README in both
// directions).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fl/experiment.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"

namespace subfed {
namespace {

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& x : out) x = static_cast<float>(rng.normal());
  return out;
}

/// Reference result through the naive oracle.
std::vector<float> naive_nn(const std::vector<float>& a, const std::vector<float>& b,
                            std::size_t m, std::size_t k, std::size_t n) {
  std::vector<float> c(m * n, 0.0f);
  get_device("naive").gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
  return c;
}

// ---------------------------------------------------------------------------
// Registry

TEST(DeviceRegistry, NamesResolveToSingletonDevices) {
  for (const char* name : {"naive", "blocked"}) {
    const Device& device = get_device(name);
    EXPECT_EQ(device.name(), name);
    EXPECT_EQ(&device, &get_device(name));
    EXPECT_TRUE(has_device(name));
  }
  EXPECT_FALSE(has_device("cublas"));
  EXPECT_FALSE(has_device("sparse"));
  EXPECT_EQ(list_devices(), (std::vector<std::string>{"blocked", "naive"}));
  // The process default must be a registered device (SUBFEDAVG_BACKEND may
  // legitimately select any of them).
  EXPECT_EQ(&default_device(), &get_device(default_device().name()));
}

TEST(DeviceRegistry, UnknownNamesFailListingTheValidOnes) {
  // "sparse" is a retired device name that old spec files may still carry.
  for (const char* name : {"cublas", "sparse"}) {
    try {
      get_device(name);
      FAIL() << "expected CheckError for " << name;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("(naive | blocked)"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DeviceRegistry, SpecValidationListsTheDevices) {
  ExperimentSpec bogus;
  bogus.clients = 4;
  bogus.shards_per_client = 2;
  bogus.shard = 20;
  bogus.test_per_class = 4;
  bogus.backend = "cublas";
  const FederatedData data(bogus.dataset_spec(), bogus.data_config());
  try {
    bogus.make_context(data);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(auto | blocked | naive)"), std::string::npos) << what;
  }
}

TEST(DeviceRegistry, UnknownBackendFailsSpecValidationBeforeAnyData) {
  // validate() is what runs before dataset synthesis, so an unknown device
  // must fail there rather than once the data is built.
  ExperimentSpec spec = ExperimentSpec::from_kv("backend=sparse");
  try {
    spec.validate();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown backend 'sparse' (auto | blocked | naive)"), std::string::npos)
        << what;
  }
  spec.backend = "naive";
  EXPECT_NO_THROW(spec.validate());
}

// ---------------------------------------------------------------------------
// Concurrent callers

TEST(Device, ConcurrentGemmCallersAgree) {
  const Device& dev = get_device("blocked");
  const std::size_t m = 41, k = 67, n = 31;
  Rng rng(12);
  const std::vector<float> a = random_vec(rng, m * k);
  const std::vector<float> b = random_vec(rng, k * n);
  const std::vector<float> want = naive_nn(a, b, m, k, n);

  constexpr std::size_t kThreads = 8, kCallsPerThread = 50;
  std::vector<std::thread> workers;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<float> c(m * n);
      for (std::size_t i = 0; i < kCallsPerThread; ++i) {
        dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::fabs(c[i] - want[i]) > 1e-4 * (1.0 + std::fabs(want[i]))) return;
      }
      ok[t] = 1;
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

// ---------------------------------------------------------------------------
// Workspace leases

TEST(Workspace, LeasesRecycleThroughTheDevicePool) {
  const Device& dev = get_device("naive");  // quiet pool, stats readable
  const DeviceStats before = dev.stats();
  float* first = nullptr;
  {
    WorkspaceLease lease = dev.lease(1000);
    ASSERT_TRUE(lease);
    EXPECT_GE(lease.size(), 1000u);
    first = lease.data();
    lease.data()[0] = 1.0f;  // writable
  }
  WorkspaceLease again = dev.lease(900);  // same size class (1024)
  EXPECT_EQ(again.data(), first);
  const DeviceStats after = dev.stats();
  EXPECT_EQ(after.workspace_leases, before.workspace_leases + 2);
  EXPECT_GE(after.workspace_reuses, before.workspace_reuses + 1);

  // Moves transfer ownership; reset is idempotent.
  WorkspaceLease moved = std::move(again);
  EXPECT_EQ(moved.data(), first);
  EXPECT_FALSE(again);  // NOLINT(bugprone-use-after-move)
  moved.reset();
  moved.reset();
  EXPECT_FALSE(moved);
}

TEST(Workspace, ForkedChildNeverInheritsAHeldDeviceLock) {
  // The subprocess transport forks workers while other threads train. A
  // child forked while one of them held a device lock used to block on its
  // first lease or GEMM forever.
  const Device& dev = get_device("blocked");
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    std::vector<float> a(64, 1.0f), c(64);
    while (!stop.load(std::memory_order_relaxed)) {
      WorkspaceLease lease = dev.lease(4096);
      dev.gemm(GemmOp::kNN, a.data(), a.data(), c.data(), 8, 8, 8, false);
    }
  });
  int hung = 0;
  for (int i = 0; i < 200 && hung == 0; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      std::vector<float> a(64, 1.0f), c(64);
      WorkspaceLease lease = dev.lease(4096);
      dev.gemm(GemmOp::kNN, a.data(), a.data(), c.data(), 8, 8, 8, false);
      ::_exit(c[0] == 8.0f ? 0 : 1);
    }
    int status = 0;
    bool exited = false;
    for (int wait_ms = 0; wait_ms < 5000 && !exited; wait_ms += 5) {
      exited = ::waitpid(pid, &status, WNOHANG) == pid;
      if (!exited) ::usleep(5000);
    }
    if (!exited) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ++hung;
    } else {
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "fork " << i;
    }
  }
  stop.store(true);
  churn.join();
  EXPECT_EQ(hung, 0);
}

// ---------------------------------------------------------------------------
// Env-knob registry

TEST(EnvKnobs, AccessorsRejectUnregisteredNames) {
  EXPECT_THROW(env_int("SUBFEDAVG_NOT_A_KNOB", 1), CheckError);
  EXPECT_THROW(env_string("TOTALLY_UNKNOWN", "x"), CheckError);
  // Registered names work, test-only ones stay out of the documented set.
  EXPECT_EQ(env_string("SUBFEDAVG_BACKEND", "blocked").empty(), false);
  bool found_test_knob = false;
  for (const EnvKnob& knob : list_env_knobs()) {
    if (std::string(knob.name) == "SUBFEDAVG_TEST_ENV") {
      found_test_knob = true;
      EXPECT_FALSE(knob.documented);
    }
  }
  EXPECT_TRUE(found_test_knob);
}

std::string unescape_cell(std::string cell) {
  std::size_t pos = 0;
  while ((pos = cell.find("\\|", pos)) != std::string::npos) cell.erase(pos, 1);
  return cell;
}

TEST(EnvKnobs, ReadmeTableMatchesTheRegistryBothWays) {
  const char* repo = std::getenv("SUBFED_REPO_DIR");
  if (repo == nullptr || *repo == '\0') {
    GTEST_SKIP() << "SUBFED_REPO_DIR not set (ctest sets it; set it manually otherwise)";
  }
  std::ifstream readme(std::filesystem::path(repo) / "README.md");
  ASSERT_TRUE(readme.good());

  // Parse `| \`SUBFEDAVG_*\` | default | doc |` rows.
  struct Row {
    std::string name, fallback, doc;
  };
  std::vector<Row> rows;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind("| `SUBFEDAVG_", 0) != 0) continue;
    ASSERT_GE(line.size(), 4u) << line;
    std::string body = line.substr(2, line.size() - 4);  // strip "| " and " |"
    std::vector<std::string> cells;
    std::size_t start = 0;
    while (true) {
      const std::size_t sep = body.find(" | ", start);
      if (sep == std::string::npos) {
        cells.push_back(body.substr(start));
        break;
      }
      cells.push_back(body.substr(start, sep - start));
      start = sep + 3;
    }
    ASSERT_EQ(cells.size(), 3u) << line;
    Row row;
    row.name = cells[0].substr(1, cells[0].size() - 2);  // strip backticks
    row.fallback = unescape_cell(cells[1]);
    row.doc = unescape_cell(cells[2]);
    rows.push_back(row);
  }
  ASSERT_FALSE(rows.empty());

  // Every documented knob has a row with the exact default and doc string —
  // and the README has no rows the registry doesn't know about.
  std::size_t documented = 0;
  for (const EnvKnob& knob : list_env_knobs()) {
    if (!knob.documented) continue;
    ++documented;
    bool found = false;
    for (const Row& row : rows) {
      if (row.name != knob.name) continue;
      found = true;
      EXPECT_EQ(row.fallback, knob.fallback) << knob.name;
      EXPECT_EQ(row.doc, knob.doc) << knob.name;
    }
    EXPECT_TRUE(found) << knob.name << " missing from the README env table";
  }
  EXPECT_EQ(rows.size(), documented) << "README rows without a registered knob";
  for (const Row& row : rows) {
    bool known = false;
    for (const EnvKnob& knob : list_env_knobs()) {
      if (row.name == knob.name) known = true;
    }
    EXPECT_TRUE(known) << row.name << " is in the README but not util/env.cpp";
  }
}

}  // namespace
}  // namespace subfed
