// The Client Subnetwork Observation (paper §3.1): clients with overlapping
// labels converge to similar subnetworks — without ever exchanging data or
// label information. This example trains a Sub-FedAvg federation, then prints
// the pairwise mask-overlap (Jaccard) matrix alongside the label overlap so
// the correspondence is visible.
//
//   ./examples/partner_discovery [rounds]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fl/driver.h"
#include "fl/registry.h"
#include "fl/subfedavg.h"
#include "metrics/stats.h"
#include "util/logging.h"
#include "util/table.h"

using namespace subfed;

namespace {

bool labels_overlap(const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b) {
  for (const auto x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  const std::size_t rounds = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 14;

  // Few clients and few classes so label collisions are frequent and the
  // matrix is small enough to read.
  DatasetSpec spec = DatasetSpec::mnist();
  FederatedDataConfig data_config;
  data_config.partition = {/*num_clients=*/8, /*shards_per_client=*/2, /*shard_size=*/40};
  data_config.test_per_class = 12;
  data_config.seed = 5;
  FederatedData data(spec, data_config);

  FlContext ctx;
  ctx.data = &data;
  ctx.spec = ModelSpec::cnn5(spec.num_classes);
  ctx.train = {/*epochs=*/3, /*batch=*/10};
  ctx.seed = 5;

  auto algorithm = registry().create("subfedavg_un", ctx,
                                     AlgoParams{}
                                         .set_double("acc_threshold", 0.4)
                                         .set_double("target", 0.6)
                                         .set_double("step", 0.2));
  auto& alg = dynamic_cast<SubFedAvg&>(*algorithm);

  DriverConfig driver;
  driver.rounds = rounds;
  driver.sample_rate = 0.75;
  driver.seed = 5;
  run_federation(alg, driver);

  // Pairwise Jaccard overlap of kept-weight sets.
  std::vector<std::string> header{"client (labels)"};
  for (std::size_t k = 0; k < data.num_clients(); ++k) {
    header.push_back("c" + std::to_string(k));
  }
  TablePrinter table(header);
  for (std::size_t a = 0; a < data.num_clients(); ++a) {
    std::string labels;
    for (const auto l : data.client(a).labels_present) {
      if (!labels.empty()) labels += ',';
      labels += std::to_string(l);
    }
    std::vector<std::string> row{"c" + std::to_string(a) + " (" + labels + ")"};
    for (std::size_t b = 0; b < data.num_clients(); ++b) {
      if (a == b) {
        row.push_back("-");
        continue;
      }
      // client() references last only until the next client() call.
      const ModelMask mask_a = alg.client(a).weight_mask();
      const double jac = ModelMask::jaccard_overlap(mask_a, alg.client(b).weight_mask());
      const bool partner = labels_overlap(data.client(a).labels_present,
                                          data.client(b).labels_present);
      row.push_back(format_float(jac, 3) + (partner ? "*" : " "));
    }
    table.add_row(row);
  }
  std::printf("pairwise subnetwork overlap (Jaccard of kept weights); '*' marks "
              "label-overlapping pairs\n%s\n",
              table.to_string().c_str());

  // Summary: mean overlap among label-partners vs disjoint pairs.
  double partner_sum = 0.0, disjoint_sum = 0.0;
  std::size_t partner_n = 0, disjoint_n = 0;
  for (std::size_t a = 0; a < data.num_clients(); ++a) {
    for (std::size_t b = a + 1; b < data.num_clients(); ++b) {
      const ModelMask mask_a = alg.client(a).weight_mask();
      const double jac = ModelMask::jaccard_overlap(mask_a, alg.client(b).weight_mask());
      if (labels_overlap(data.client(a).labels_present, data.client(b).labels_present)) {
        partner_sum += jac;
        ++partner_n;
      } else {
        disjoint_sum += jac;
        ++disjoint_n;
      }
    }
  }
  if (partner_n > 0 && disjoint_n > 0) {
    std::printf("mean overlap — label partners: %.4f (%zu pairs), disjoint: %.4f (%zu pairs)\n",
                partner_sum / partner_n, partner_n, disjoint_sum / disjoint_n, disjoint_n);
  }
  return 0;
}
