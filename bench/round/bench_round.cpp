// bench_round — the round-cost benchmark (bench/round/README.md).
//
//   bench_round --workload un_mnist --seed 1 --seconds 15 --trace 0 [--out-dir DIR]
//   bench_round --list
//   bench_round --manifest --benchmark BENCHMARK.json --results results.json
//
// A run measures one workload in this process and prints every metric with
// its unit and sample count, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload untraced and then traced
// with per-layer probes, checks that both runs agree bit for bit, and
// reports the per-layer metrics. With --out-dir the run also writes
// <workload>.json (metrics nested by their dotted names, for bench_check
// paths like [workload=un_mnist].round_s.p50) and, traced, a Chrome trace.
//
// --manifest turns BENCHMARK.json's end-to-end metrics and bounds plus a
// results array into a tools/bench_check baseline manifest, so the bounds
// live in one file.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "federation.h"
#include "probe.h"
#include "stats.h"
#include "util/check.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/parse.h"

namespace subfed::bench {
namespace {

/// A reported metric: name, unit, value and how many samples produced it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t n = 1;
};

/// Output checks; each one is an operation that passes or fails.
struct Checks {
  std::size_t attempted = 0;
  std::vector<std::string> failed;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failed.push_back(what);
  }
};

/// Every digit of `v`; a run that failed before producing a value (0/0)
/// reports 0 so the result line stays valid JSON.
std::string format_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The tail percentile with at least ten rounds beyond it at the 40-round
// horizon.
constexpr double kTail = 0.75;

std::vector<Metric> end_to_end_metrics(const FederationRun& run) {
  const double rounds = static_cast<double>(run.horizon_rounds);
  return {
      {"setup_s", "s", median(run.setup_s), run.setup_s.size()},
      {"round_s.p50", "s", quantile(run.round_s, 0.5), run.round_s.size()},
      {"round_s.p75", "s", quantile(run.round_s, kTail), run.round_s.size()},
      {"eval_s.p50", "s", median(run.eval_s), run.eval_s.size()},
      {"train_samples_per_s", "1/s", run.train_examples / sum(run.round_s), run.round_s.size()},
      {"federation_s", "s", run.federation_s, 1},
      {"final_acc", "fraction", run.result.final_avg_accuracy,
       run.result.final_per_client.size()},
      {"comm_mb_per_round", "MB", static_cast<double>(run.horizon_bytes) / rounds / 1e6,
       run.horizon_rounds},
      {"peak_rss_mib", "MiB", peak_rss_mib(), 1},
  };
}

/// The checks every federation's outputs must pass.
void check_outputs(const Workload& workload, std::uint64_t seed, const FederationRun& run,
                   const char* label, Checks& checks) {
  const std::string tag = std::string(label) + " " + workload.name + ": ";
  for (const std::string& failure : run.failures) checks.failed.push_back(tag + failure);
  const RunResult& result = run.result;
  const bool complete = result.final_per_client.size() > 0 && run.horizon_bytes > 0 &&
                        result.curve.size() > 0;
  bool in_range = complete;
  for (const double a : result.final_per_client) in_range = in_range && a >= 0.0 && a <= 1.0;
  checks.expect(in_range, tag + "incomplete or out-of-range horizon outputs");
  const double acc = result.final_avg_accuracy;
  checks.expect(acc >= workload.min_final_acc,
                tag + "final_acc " + format_double(acc) + " below the floor " +
                    format_double(workload.min_final_acc));
  if (seed == 1) {
    checks.expect(acc >= workload.seed1_final_acc - 0.02,
                  tag + "seed-1 final_acc " + format_double(acc) + " more than 0.02 below " +
                      format_double(workload.seed1_final_acc));
  }
  if (workload.prune == PruneCheck::kWeights) {
    checks.expect(run.weight_pruned >= 0.45,
                  tag + "trained clients' weight pruning " + format_double(run.weight_pruned) +
                      " < 0.45");
  } else if (workload.prune == PruneCheck::kChannels) {
    checks.expect(run.channel_pruned >= 0.45,
                  tag + "trained clients' channel pruning " + format_double(run.channel_pruned) +
                      " < 0.45");
  }
}

bool same_outputs(const RunResult& a, const RunResult& b) {
  if (a.curve.size() != b.curve.size() || a.final_per_client != b.final_per_client ||
      a.up_bytes != b.up_bytes || a.down_bytes != b.down_bytes ||
      a.final_avg_accuracy != b.final_avg_accuracy) {
    return false;
  }
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].round != b.curve[i].round ||
        a.curve[i].avg_accuracy != b.curve[i].avg_accuracy) {
      return false;
    }
  }
  return true;
}

/// {"a.b": 1, "a.c": 2} → {"a": {"b": 1, "c": 2}}, preserving first-seen order.
struct JsonTree {
  std::vector<std::pair<std::string, JsonTree>> children;
  std::string leaf;  ///< serialized value; empty for an object

  JsonTree& child(const std::string& key) {
    for (auto& [k, v] : children) {
      if (k == key) return v;
    }
    children.emplace_back(key, JsonTree{});
    return children.back().second;
  }

  void put(const std::string& dotted, const std::string& value) {
    JsonTree* node = this;
    std::size_t start = 0;
    for (std::size_t dot = dotted.find('.'); dot != std::string::npos;
         start = dot + 1, dot = dotted.find('.', start)) {
      node = &node->child(dotted.substr(start, dot - start));
    }
    node->child(dotted.substr(start)).leaf = value;
  }

  void write(std::ostringstream& os, int indent) const {
    if (!leaf.empty()) {
      os << leaf;
      return;
    }
    os << "{";
    for (std::size_t i = 0; i < children.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << std::string(indent + 2, ' ') << '"'
         << children[i].first << "\": ";
      children[i].second.write(os, indent + 2);
    }
    os << "\n" << std::string(indent, ' ') << "}";
  }
};

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  SUBFEDAVG_CHECK(out.good(), "cannot write '" << path << "'");
  out << text;
  SUBFEDAVG_CHECK(out.good(), "short write to '" << path << "'");
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  SUBFEDAVG_CHECK(in.good(), "cannot read '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void print_table(const std::vector<Metric>& metrics) {
  std::printf("%-30s %-9s %24s %6s\n", "metric", "unit", "value", "n");
  for (const Metric& m : metrics) {
    std::printf("%-30s %-9s %24.9g %6zu\n", m.name.c_str(), m.unit.c_str(), m.value, m.n);
  }
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir;
};

int run_workload(const RunArgs& args) {
  const Workload* workload = find_workload(args.workload);
  SUBFEDAVG_CHECK(workload != nullptr, "unknown workload '" << args.workload
                                                            << "' (see --list)");
  std::printf("bench_round workload=%s seed=%llu seconds=%g trace=%d\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  Checks checks;
  std::size_t operations = 0, failed_operations = 0;
  std::vector<Metric> metrics;
  std::string tables;
  const ExperimentSpec untraced_spec = workload_spec(*workload, args.seed, "off");
  RunOptions options;
  options.seconds = args.seconds;
  if (!args.trace) {
    const FederationRun run = run_federation(untraced_spec, options);
    operations = run.attempted;
    failed_operations = run.failed;
    check_outputs(*workload, args.seed, run, "timed", checks);
    metrics = end_to_end_metrics(run);
  } else {
    // Both federations run exactly the horizon: the traced one is compared
    // with the untraced one, and the per-layer metrics need no time budget.
    options.setup_reps = 0;
    options.seconds = 0.0;
    const FederationRun untraced = run_federation(untraced_spec, options);
    check_outputs(*workload, args.seed, untraced, "untraced", checks);
    const double untraced_p50 = median(untraced.round_s);

    const ExperimentSpec traced_spec = workload_spec(*workload, args.seed, "trace");
    Prober prober(traced_spec);
    const FederationRun traced = run_federation(traced_spec, options, &prober);
    check_outputs(*workload, args.seed, traced, "traced", checks);
    operations = untraced.attempted + traced.attempted;
    failed_operations = untraced.failed + traced.failed;

    checks.expect(same_outputs(untraced.result, traced.result),
                  std::string("traced ") + workload->name +
                      ": curve, per-client accuracies or bytes differ from the untraced run");
    checks.attempted += prober.checks();
    for (const std::string& f : prober.failures()) checks.failed.push_back(f);

    for (const LayerMetric& m : prober.metrics(traced, untraced_p50)) {
      metrics.push_back({m.name, m.unit, m.value, m.n});
    }
    for (const Metric& m : metrics) {
      if (m.name == "session.phase_coverage") {
        checks.expect(m.value >= 0.95, std::string("traced ") + workload->name +
                                           ": session.phase_coverage " +
                                           format_double(m.value) + " < 0.95");
      }
      if (m.name == "trace.coverage") {
        checks.expect(m.value >= 0.9 && m.value <= 1.1,
                      std::string("traced ") + workload->name + ": trace.coverage " +
                          format_double(m.value) + " outside [0.9, 1.1]");
      }
    }
    tables = prober.self_time_table();
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/trace_" + workload->name + "_seed" +
                               std::to_string(args.seed) + ".json";
      prober.write_trace(path);
      std::printf("chrome trace: %s\n", path.c_str());
    }
  }

  print_table(metrics);
  if (!tables.empty()) std::printf("%s", tables.c_str());
  for (const std::string& f : checks.failed) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  const std::size_t attempted = operations + checks.attempted;
  const std::size_t failed = failed_operations + checks.failed.size();
  std::printf("operations %zu (rounds, evaluations, finish, checks), failed %zu\n", attempted,
              failed);

  if (!args.out_dir.empty()) {
    JsonTree tree;
    tree.put("workload", std::string(1, '"').append(workload->name).append(1, '"'));
    tree.put("seed", std::to_string(args.seed));
    tree.put("trace", args.trace ? "1" : "0");
    tree.put("correct", failed == 0 ? "true" : "false");
    for (const Metric& m : metrics) tree.put(m.name, format_double(m.value));
    std::ostringstream os;
    tree.write(os, 0);
    os << "\n";
    write_text_file(args.out_dir + "/" + workload->name + ".json", os.str());
  }

  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
         << format_double(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return failed == 0 ? 0 : 1;
}

/// Resolves a dotted metric name inside one workload's results object.
const JsonValue* find_dotted(const JsonValue& object, const std::string& dotted) {
  const JsonValue* node = &object;
  std::size_t start = 0;
  while (node != nullptr) {
    const std::size_t dot = dotted.find('.', start);
    node = node->find(dotted.substr(start, dot == std::string::npos ? dot : dot - start));
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return node;
}

/// BENCHMARK.json's end-to-end metrics × the workloads in `results` → a
/// tools/bench_check manifest whose values come from `results`.
int write_manifest(const std::string& benchmark_path, const std::string& results_path) {
  const JsonValue benchmark = parse_json(read_text_file(benchmark_path));
  const JsonValue results = parse_json(read_text_file(results_path));
  SUBFEDAVG_CHECK(results.is_array(), "'" << results_path << "' is not a results array");
  const JsonValue& metrics = benchmark.at("end_to_end");
  SUBFEDAVG_CHECK(metrics.is_array(), "BENCHMARK.json end_to_end is not an array");
  std::ostringstream os;
  os << "{\n  \"file\": ";
  os << '"' << results_path << "\",\n  \"default_tolerance\": 0.1,\n  \"metrics\": [";
  bool first = true;
  for (const JsonValue& workload : results.array) {
    const std::string name = workload.string_or("workload", "");
    SUBFEDAVG_CHECK(find_workload(name) != nullptr, "results name unknown workload '" << name
                                                                                    << "'");
    for (const JsonValue& metric : metrics.array) {
      const std::string metric_name = metric.string_or("name", "");
      const JsonValue* value = find_dotted(workload, metric_name);
      SUBFEDAVG_CHECK(value != nullptr && value->is_number(),
                      "results for " << name << " lack " << metric_name);
      os << (first ? "\n" : ",\n") << "    {\"name\": \"" << name << "/" << metric_name
         << "\", \"path\": \"[workload=" << name << "]." << metric_name
         << "\", \"direction\": \"" << metric.string_or("better", "lower")
         << "\", \"tolerance\": " << format_double(metric.number_or("bound", 0.1))
         << ", \"value\": " << format_double(value->number) << "}";
      first = false;
    }
  }
  os << "\n  ]\n}\n";
  std::printf("%s", os.str().c_str());
  return 0;
}

constexpr const char* kUsage =
    "usage: bench_round --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n"
    "       bench_round --list\n"
    "       bench_round --manifest --benchmark BENCHMARK.json --results results.json\n";

int run(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  RunArgs args;
  std::string benchmark_path, results_path;
  bool manifest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (flag == "--list") {
      for (const Workload& w : kWorkloads) std::printf("%s\n", w.name);
      return 0;
    }
    if (flag == "--manifest") {
      manifest = true;
      continue;
    }
    SUBFEDAVG_CHECK(i + 1 < argc, "flag " << flag << " expects a value\n" << kUsage);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint64_strict("--seed", value);
    } else if (flag == "--seconds") {
      args.seconds = parse_double_strict("--seconds", value);
      SUBFEDAVG_CHECK(args.seconds >= 0.0, "--seconds must be >= 0");
    } else if (flag == "--trace") {
      SUBFEDAVG_CHECK(value == "0" || value == "1", "--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--benchmark") {
      benchmark_path = value;
    } else if (flag == "--results") {
      results_path = value;
    } else {
      SUBFEDAVG_CHECK(false, "unknown flag " << flag << "\n" << kUsage);
    }
  }
  if (manifest) {
    SUBFEDAVG_CHECK(!benchmark_path.empty() && !results_path.empty(),
                    "--manifest needs --benchmark and --results");
    return write_manifest(benchmark_path, results_path);
  }
  SUBFEDAVG_CHECK(!args.workload.empty(), "--workload is required\n" << kUsage);
  return run_workload(args);
}

}  // namespace
}  // namespace subfed::bench

int main(int argc, char** argv) {
  try {
    return subfed::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_round: %s\n", e.what());
    return 2;
  }
}
