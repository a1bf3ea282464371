// Perf-regression gate over the BENCH_*.json trajectory.
//
// Compares a freshly emitted bench JSON (BENCH_gemm.json / BENCH_comm.json /
// BENCH_async.json) against a committed baseline manifest and fails (exit 2)
// when any tracked metric regresses past its tolerance. CI wires this into
// the backend-kernels and comm jobs so a slowed kernel or a bloated payload
// fails the PR instead of silently bending the perf trajectory.
//
//   bench_check --baseline bench/baselines/BENCH_comm.json --current BENCH_comm.json
//   bench_check ... --update      rewrite the baseline's values from the
//                                 current run (for refreshing baselines)
//
// Baseline manifest format:
//   {
//     "file": "BENCH_comm.json",
//     "default_tolerance": 0.25,
//     "metrics": [
//       {"name": "...", "path": "[algorithm=fedavg,quantize=none].simulated_seconds",
//        "direction": "lower", "value": 12.3, "tolerance": 0.25},
//       {"name": "...", "direction": "higher", "value": 3.0,
//        "ratio": {"numerator": "<path>", "denominator": "<path>"}}
//     ]
//   }
//
// Path selectors address the bench JSON: dot-separated object keys, with
// `[N]` array indexing and `[k=v,k2=v2]` first-match array filtering (string
// or numeric member equality) — e.g. google-benchmark output is addressed as
// `benchmarks[name=BM_GemmBackend/128/1/100].real_time`. Machine-dependent
// absolute timings should be tracked as ratios (naive/blocked), which cancel
// host speed; simulated_seconds and byte counts are deterministic and can be
// tracked absolutely.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/table.h"

namespace subfed {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  SUBFEDAVG_CHECK(file.good(), "cannot read '" << path << "'");
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

bool numeric_equal(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// One `[...]` suffix: an index or a conjunctive k=v filter.
const JsonValue& apply_bracket(const JsonValue& value, const std::string& inner,
                               const std::string& path) {
  SUBFEDAVG_CHECK(value.is_array(), "path '" << path << "': [" << inner
                                             << "] applied to a non-array");
  if (inner.find('=') == std::string::npos) {
    const std::size_t index =
        static_cast<std::size_t>(parse_uint64_strict("array index", inner));
    SUBFEDAVG_CHECK(index < value.array.size(),
                    "path '" << path << "': index " << index << " out of "
                             << value.array.size());
    return value.array[index];
  }
  // k=v[,k=v...]: first element matching every pair.
  std::vector<std::pair<std::string, std::string>> filters;
  std::istringstream parts(inner);
  std::string part;
  while (std::getline(parts, part, ',')) {
    const std::size_t eq = part.find('=');
    SUBFEDAVG_CHECK(eq != std::string::npos && eq > 0,
                    "path '" << path << "': bad filter '" << part << "'");
    filters.emplace_back(part.substr(0, eq), part.substr(eq + 1));
  }
  for (const JsonValue& element : value.array) {
    bool all = true;
    for (const auto& [key, want] : filters) {
      const JsonValue* member = element.find(key);
      if (member == nullptr) {
        all = false;
      } else if (member->is_string()) {
        all = member->string == want;
      } else if (member->is_number()) {
        char* end = nullptr;
        const double parsed = std::strtod(want.c_str(), &end);
        all = end != want.c_str() && *end == '\0' && numeric_equal(member->number, parsed);
      } else {
        all = false;
      }
      if (!all) break;
    }
    if (all) return element;
  }
  SUBFEDAVG_CHECK(false, "path '" << path << "': no array element matches [" << inner << "]");
  return value;
}

/// Resolves a dotted/bracketed selector against a parsed document.
double resolve_number(const JsonValue& document, const std::string& path) {
  const JsonValue* value = &document;
  std::size_t pos = 0;
  while (pos < path.size()) {
    if (path[pos] == '.') {
      ++pos;
      continue;
    }
    if (path[pos] == '[') {
      const std::size_t close = path.find(']', pos);
      SUBFEDAVG_CHECK(close != std::string::npos, "path '" << path << "': unclosed [");
      value = &apply_bracket(*value, path.substr(pos + 1, close - pos - 1), path);
      pos = close + 1;
      continue;
    }
    const std::size_t end = path.find_first_of(".[", pos);
    const std::string key =
        path.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
    const JsonValue* member = value->find(key);
    SUBFEDAVG_CHECK(member != nullptr, "path '" << path << "': no member '" << key << "'");
    value = member;
    pos = end == std::string::npos ? path.size() : end;
  }
  SUBFEDAVG_CHECK(value->is_number(), "path '" << path << "' is not a number");
  return value->number;
}

struct TrackedMetric {
  std::string name;
  std::string path;         ///< empty when ratio is set
  std::string numerator;    ///< ratio form
  std::string denominator;
  std::string direction;    ///< "lower" | "higher" (better)
  double value = 0.0;       ///< committed baseline
  double tolerance = 0.25;  ///< allowed relative regression
};

struct Baseline {
  std::string file;
  double default_tolerance = 0.25;
  std::vector<TrackedMetric> metrics;
};

Baseline load_baseline(const std::string& path) {
  const JsonValue doc = parse_json(read_file(path));
  Baseline baseline;
  baseline.file = doc.string_or("file", "");
  baseline.default_tolerance = doc.number_or("default_tolerance", 0.25);
  const JsonValue* metrics = doc.find("metrics");
  SUBFEDAVG_CHECK(metrics != nullptr && metrics->is_array(),
                  "baseline '" << path << "' has no metrics array");
  for (const JsonValue& entry : metrics->array) {
    TrackedMetric metric;
    metric.name = entry.string_or("name", "");
    metric.path = entry.string_or("path", "");
    if (const JsonValue* ratio = entry.find("ratio")) {
      metric.numerator = ratio->string_or("numerator", "");
      metric.denominator = ratio->string_or("denominator", "");
      SUBFEDAVG_CHECK(!metric.numerator.empty() && !metric.denominator.empty(),
                      "metric '" << metric.name << "': ratio needs numerator + denominator");
    }
    SUBFEDAVG_CHECK(metric.path.empty() != metric.numerator.empty(),
                    "metric '" << metric.name << "' needs exactly one of path | ratio");
    metric.direction = entry.string_or("direction", "lower");
    SUBFEDAVG_CHECK(metric.direction == "lower" || metric.direction == "higher",
                    "metric '" << metric.name << "': direction must be lower | higher");
    SUBFEDAVG_CHECK(entry.find("value") != nullptr,
                    "metric '" << metric.name << "' has no baseline value");
    metric.value = entry.number_or("value", 0.0);
    metric.tolerance = entry.number_or("tolerance", baseline.default_tolerance);
    if (metric.name.empty()) metric.name = metric.path;
    baseline.metrics.push_back(std::move(metric));
  }
  return baseline;
}

double current_value(const JsonValue& document, const TrackedMetric& metric) {
  if (!metric.path.empty()) return resolve_number(document, metric.path);
  const double denominator = resolve_number(document, metric.denominator);
  SUBFEDAVG_CHECK(denominator != 0.0,
                  "metric '" << metric.name << "': denominator is zero");
  return resolve_number(document, metric.numerator) / denominator;
}

/// Rewrites the baseline manifest with fresh values (--update).
void write_baseline(const std::string& path, const Baseline& baseline,
                    const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"file\": ";
  write_json_string(os, baseline.file);
  os << ",\n  \"default_tolerance\": " << baseline.default_tolerance
     << ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < baseline.metrics.size(); ++i) {
    const TrackedMetric& metric = baseline.metrics[i];
    os << (i == 0 ? "" : ",") << "\n    {\"name\": ";
    write_json_string(os, metric.name);
    if (!metric.path.empty()) {
      os << ", \"path\": ";
      write_json_string(os, metric.path);
    } else {
      os << ", \"ratio\": {\"numerator\": ";
      write_json_string(os, metric.numerator);
      os << ", \"denominator\": ";
      write_json_string(os, metric.denominator);
      os << "}";
    }
    os << ", \"direction\": \"" << metric.direction << "\", \"tolerance\": "
       << metric.tolerance << ", \"value\": " << values[i] << "}";
  }
  os << "\n  ]\n}\n";
  std::ofstream out(path, std::ios::trunc);
  SUBFEDAVG_CHECK(out.good(), "cannot write '" << path << "'");
  out << os.str();
}

int run(int argc, char** argv) {
  std::string baseline_path, current_path;
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--update") {
      update = true;
      continue;
    }
    if (flag == "--help" || flag == "-h") {
      std::printf("usage: bench_check --baseline <manifest.json> --current <bench.json> "
                  "[--update]\n");
      return 0;
    }
    SUBFEDAVG_CHECK(i + 1 < argc, "flag " << flag << " expects a value");
    const std::string value = argv[++i];
    if (flag == "--baseline") {
      baseline_path = value;
    } else if (flag == "--current") {
      current_path = value;
    } else {
      SUBFEDAVG_CHECK(false, "unknown flag " << flag << " (see --help)");
    }
  }
  SUBFEDAVG_CHECK(!baseline_path.empty() && !current_path.empty(),
                  "--baseline and --current are required (see --help)");

  const Baseline baseline = load_baseline(baseline_path);
  const JsonValue document = parse_json(read_file(current_path));

  TablePrinter table({"metric", "direction", "baseline", "current", "delta", "status"});
  std::vector<double> values;
  std::size_t regressions = 0;
  for (const TrackedMetric& metric : baseline.metrics) {
    const double current = current_value(document, metric);
    values.push_back(current);
    const double delta =
        metric.value != 0.0 ? (current - metric.value) / std::fabs(metric.value) : 0.0;
    // "lower" is better → regression when current exceeds baseline by more
    // than the tolerance; "higher" mirrors it.
    const bool regressed = metric.direction == "lower"
                               ? current > metric.value * (1.0 + metric.tolerance)
                               : current < metric.value * (1.0 - metric.tolerance);
    if (regressed) ++regressions;
    char baseline_text[32], current_text[32], delta_text[32];
    std::snprintf(baseline_text, sizeof(baseline_text), "%.6g", metric.value);
    std::snprintf(current_text, sizeof(current_text), "%.6g", current);
    std::snprintf(delta_text, sizeof(delta_text), "%+.1f%%", 100.0 * delta);
    table.add_row({metric.name, metric.direction, baseline_text, current_text, delta_text,
                   regressed ? "REGRESSED" : "ok"});
  }
  std::printf("%s\n", table.to_string().c_str());

  if (update) {
    write_baseline(baseline_path, baseline, values);
    std::printf("updated %s with %zu current values\n", baseline_path.c_str(),
                values.size());
    return 0;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_check: %zu of %zu tracked metrics regressed past tolerance "
                 "(baseline %s)\n",
                 regressions, baseline.metrics.size(), baseline_path.c_str());
    return 2;
  }
  std::printf("all %zu tracked metrics within tolerance\n", baseline.metrics.size());
  return 0;
}

}  // namespace
}  // namespace subfed

int main(int argc, char** argv) {
  try {
    return subfed::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_check: %s\n", e.what());
    return 1;
  }
}
