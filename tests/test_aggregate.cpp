// Sub-FedAvg aggregation semantics (the paper's server-side rule).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/aggregate.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

// Tiny single-entry federation helpers.
StateDict state_of(std::vector<float> w) {
  const std::size_t n = w.size();  // read before the move below
  StateDict s;
  s.add("fc.weight", Tensor({1, n}, std::move(w)));
  return s;
}

ModelMask mask_of(std::vector<float> bits) {
  const std::size_t n = bits.size();
  ModelMask m;
  m.set("fc.weight", Tensor({1, n}, std::move(bits)));
  return m;
}

TEST(SubFedAvgAggregate, AveragesOverRetainingClientsOnly) {
  const StateDict prev = state_of({100, 100, 100, 100});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({2, 4, 0, 8}), mask_of({1, 1, 0, 1}), 1});
  updates.push_back({state_of({6, 0, 0, 4}), mask_of({1, 0, 0, 1}), 1});

  const StateDict out = sub_fedavg_aggregate(updates, prev);
  const Tensor& w = *out.find("fc.weight");
  EXPECT_FLOAT_EQ(w[0], 4.0f);    // both keep: (2+6)/2
  EXPECT_FLOAT_EQ(w[1], 4.0f);    // only client 0 keeps: 4/1
  EXPECT_FLOAT_EQ(w[2], 100.0f);  // nobody keeps → previous global
  EXPECT_FLOAT_EQ(w[3], 6.0f);    // both keep: (8+4)/2
}

TEST(SubFedAvgAggregate, StrictIntersectionVariant) {
  const StateDict prev = state_of({100, 100, 100, 100});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({2, 4, 0, 8}), mask_of({1, 1, 0, 1}), 1});
  updates.push_back({state_of({6, 0, 0, 4}), mask_of({1, 0, 0, 1}), 1});

  const StateDict out = sub_fedavg_aggregate_strict(updates, prev);
  const Tensor& w = *out.find("fc.weight");
  EXPECT_FLOAT_EQ(w[0], 4.0f);    // unanimous → averaged
  EXPECT_FLOAT_EQ(w[1], 100.0f);  // not unanimous → previous global
  EXPECT_FLOAT_EQ(w[2], 100.0f);
  EXPECT_FLOAT_EQ(w[3], 6.0f);
}

TEST(SubFedAvgAggregate, UncoveredEntriesAverageUniformly) {
  StateDict prev;
  prev.add("fc.bias", Tensor({2}, std::vector<float>{0, 0}));
  std::vector<ClientUpdate> updates;
  ClientUpdate u1, u2;
  u1.state.add("fc.bias", Tensor({2}, std::vector<float>{2, 4}));
  u2.state.add("fc.bias", Tensor({2}, std::vector<float>{6, 0}));
  updates = {u1, u2};

  const StateDict out = sub_fedavg_aggregate(updates, prev);
  EXPECT_FLOAT_EQ((*out.find("fc.bias"))[0], 4.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.bias"))[1], 2.0f);
}

TEST(SubFedAvgAggregate, SingleClientPassesThroughKeptEntries) {
  const StateDict prev = state_of({9, 9});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({1, 0}), mask_of({1, 0}), 1});
  const StateDict out = sub_fedavg_aggregate(updates, prev);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 1.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 9.0f);
}

TEST(SubFedAvgAggregate, FullMasksReduceToPlainMean) {
  const StateDict prev = state_of({0, 0});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({1, 3}), mask_of({1, 1}), 7});
  updates.push_back({state_of({3, 5}), mask_of({1, 1}), 99});  // weights ignored
  const StateDict out = sub_fedavg_aggregate(updates, prev);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 2.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 4.0f);
}

TEST(SubFedAvgAggregate, ValidatesAlignment) {
  const StateDict prev = state_of({0, 0});
  std::vector<ClientUpdate> updates;
  ClientUpdate bad;
  bad.state.add("other.weight", Tensor({1, 2}));
  updates.push_back(bad);
  EXPECT_THROW(sub_fedavg_aggregate(updates, prev), CheckError);
  updates.clear();
  EXPECT_THROW(sub_fedavg_aggregate(updates, prev), CheckError);
}

TEST(FedAvgAggregate, ExampleWeightedMean) {
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({0, 10}), {}, 1});
  updates.push_back({state_of({4, 0}), {}, 3});
  const StateDict out = fedavg_aggregate(updates);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 3.0f);   // (0·1 + 4·3)/4
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 2.5f);   // (10·1 + 0·3)/4
}

TEST(FedAvgAggregate, EqualWeightsIsPlainMean) {
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({1, 2}), {}, 5});
  updates.push_back({state_of({3, 6}), {}, 5});
  const StateDict out = fedavg_aggregate(updates);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 2.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 4.0f);
}

TEST(FedAvgAggregate, FullModelStateRoundTrips) {
  // Aggregating two identical LeNet states returns that state exactly.
  Rng rng(1);
  Model m = ModelSpec::lenet5(10).build_init(rng);
  const StateDict s = m.state();
  std::vector<ClientUpdate> updates;
  updates.push_back({s, {}, 10});
  updates.push_back({s, {}, 20});
  const StateDict out = fedavg_aggregate(updates);
  for (std::size_t e = 0; e < s.size(); ++e) {
    const Tensor& expect = s[e].second;
    const Tensor& got = out[e].second;
    for (std::size_t i = 0; i < expect.numel(); ++i) {
      EXPECT_NEAR(expect[i], got[i], 1e-6f) << s[e].first;
    }
  }
}

TEST(SubFedAvgAggregate, PreservesEntryOrderAndNames) {
  Rng rng(2);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict prev = m.state();
  std::vector<ClientUpdate> updates;
  updates.push_back({prev, ModelMask::ones_like(m, MaskScope::kAllPrunable), 1});
  const StateDict out = sub_fedavg_aggregate(updates, prev);
  ASSERT_EQ(out.size(), prev.size());
  for (std::size_t e = 0; e < prev.size(); ++e) {
    EXPECT_EQ(out[e].first, prev[e].first);
    EXPECT_EQ(out[e].second.shape(), prev[e].second.shape());
  }
}

// The per-element loop masked aggregation ran before it resolved each
// update's tensors once per entry: every element looks up the update's mask
// and state by name. Kept verbatim (both rules) as the bit-level reference.
StateDict reference_masked_aggregate(std::span<const ClientUpdate> updates,
                                     const StateDict& previous_global, bool strict) {
  StateDict out;
  for (std::size_t e = 0; e < previous_global.size(); ++e) {
    const auto& [name, prev] = previous_global[e];
    Tensor merged(prev.shape());
    bool any_covered = false;
    for (const ClientUpdate& u : updates) {
      if (u.mask.find(name) != nullptr) {
        any_covered = true;
        break;
      }
    }
    if (!any_covered) {
      float weight_sum = 0.0f;
      for (const ClientUpdate& u : updates) {
        const float w = static_cast<float>(u.weight);
        merged.axpy_(w, *u.state.find(name));
        weight_sum += w;
      }
      merged.scale_(1.0f / weight_sum);
      out.add(name, std::move(merged));
      continue;
    }
    for (std::size_t i = 0; i < merged.numel(); ++i) {
      float sum = 0.0f;
      float weight_sum = 0.0f;
      std::size_t keepers = 0;
      for (const ClientUpdate& u : updates) {
        const Tensor* m = u.mask.find(name);
        const bool kept = (m == nullptr) || ((*m)[i] != 0.0f);
        if (kept) {
          const float w = static_cast<float>(u.weight);
          sum += w * (*u.state.find(name))[i];
          weight_sum += w;
          ++keepers;
        }
      }
      const bool use_average = !strict ? keepers > 0 && weight_sum > 0.0f
                                       : keepers == updates.size() && weight_sum > 0.0f;
      merged[i] = use_average ? sum / weight_sum : prev[i];
    }
    out.add(name, std::move(merged));
  }
  return out;
}

void expect_same_bits(const StateDict& got, const StateDict& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got[e].first, want[e].first) << what;
    ASSERT_EQ(got[e].second.numel(), want[e].second.numel()) << what << " " << want[e].first;
    EXPECT_EQ(std::memcmp(got[e].second.data(), want[e].second.data(),
                          want[e].second.numel() * sizeof(float)),
              0)
        << what << ": entry " << want[e].first << " differs from the per-element loop";
  }
}

// Random lenet5-shaped updates: normal values, sparse random masks over the
// prunable weights, with every third update's mask lacking conv1.weight and
// the first 32 positions of fc1.weight zero in every mask.
std::vector<ClientUpdate> random_updates(std::size_t count, bool stale_weights,
                                         std::uint64_t seed) {
  Rng rng(seed);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  const ModelMask ones = ModelMask::ones_like(model, MaskScope::kAllPrunable);
  std::vector<ClientUpdate> updates(count);
  for (std::size_t j = 0; j < count; ++j) {
    ClientUpdate& u = updates[j];
    for (const auto& [name, tensor] : model.state()) {
      Tensor values(tensor.shape());
      for (std::size_t i = 0; i < values.numel(); ++i) {
        values[i] = static_cast<float>(rng.normal());
      }
      u.state.add(name, std::move(values));
      if (ones.find(name) == nullptr || (j % 3 == 2 && name == "conv1.weight")) continue;
      Tensor keep(tensor.shape());
      for (std::size_t i = 0; i < keep.numel(); ++i) {
        const bool dead = name == "fc1.weight" && i < 32;
        keep[i] = !dead && rng.bernoulli(0.6) ? 1.0f : 0.0f;
      }
      u.mask.set(name, std::move(keep));
    }
    // Buffered rounds down-weight a late update by 1/(1+staleness)^0.5.
    u.weight = stale_weights ? 1.0 / std::sqrt(1.0 + static_cast<double>(j % 4)) : 1.0;
  }
  return updates;
}

TEST(SubFedAvgAggregate, MatchesThePerElementLoopBitForBit) {
  Rng rng(5);
  const StateDict prev = ModelSpec::lenet5(10).build_init(rng).state();
  for (const std::size_t count : {1u, 4u, 20u}) {
    for (const bool stale : {false, true}) {
      const std::vector<ClientUpdate> updates = random_updates(count, stale, 100 + count);
      const std::string what =
          std::to_string(count) + " updates, " + (stale ? "staleness" : "unit") + " weights";
      expect_same_bits(sub_fedavg_aggregate(updates, prev),
                       reference_masked_aggregate(updates, prev, /*strict=*/false),
                       "counting, " + what);
      expect_same_bits(sub_fedavg_aggregate_strict(updates, prev),
                       reference_masked_aggregate(updates, prev, /*strict=*/true),
                       "strict, " + what);
    }
  }
  // Positions every mask drops inherit the previous global.
  const std::vector<ClientUpdate> updates = random_updates(4, false, 9);
  const StateDict out = sub_fedavg_aggregate(updates, prev);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ((*out.find("fc1.weight"))[i], (*prev.find("fc1.weight"))[i]);
  }
}

TEST(SubFedAvgAggregate, RejectsAMaskShorterThanItsEntry) {
  const StateDict prev = state_of({0, 0, 0});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({1, 2, 3}), mask_of({1, 1}), 1});
  EXPECT_THROW(sub_fedavg_aggregate(updates, prev), CheckError);
}

}  // namespace
}  // namespace subfed
