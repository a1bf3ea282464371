#include "core/aggregate.h"

#include "util/check.h"

namespace subfed {

namespace {

void check_aligned(std::span<const ClientUpdate> updates, const StateDict& reference) {
  SUBFEDAVG_CHECK(!updates.empty(), "aggregate needs at least one update");
  for (const ClientUpdate& u : updates) {
    SUBFEDAVG_CHECK(u.state.size() == reference.size(), "update entry count mismatch");
    for (std::size_t e = 0; e < reference.size(); ++e) {
      SUBFEDAVG_CHECK(u.state[e].first == reference[e].first,
                      "update entry name mismatch at " << e);
      SUBFEDAVG_CHECK(u.state[e].second.shape() == reference[e].second.shape(),
                      "update entry shape mismatch for " << reference[e].first);
    }
  }
}

enum class CoveredRule { kCounting, kStrictIntersection };

StateDict masked_aggregate(std::span<const ClientUpdate> updates,
                           const StateDict& previous_global, CoveredRule rule) {
  check_aligned(updates, previous_global);

  // Each update's values (aligned with previous_global by check_aligned),
  // mask (nullptr: keeps every element) and weight for one entry, resolved
  // once per entry rather than per element.
  struct Source {
    const Tensor* values;
    const float* mask;
    float weight;
  };
  std::vector<Source> sources(updates.size());

  StateDict out;
  for (std::size_t e = 0; e < previous_global.size(); ++e) {
    const auto& [name, prev] = previous_global[e];
    Tensor merged(prev.shape());

    // Covered by any client's mask? (All clients share mask coverage sets by
    // construction; tolerate per-client differences by checking each.)
    const std::size_t n = merged.numel();
    bool any_covered = false;
    for (std::size_t j = 0; j < updates.size(); ++j) {
      const ClientUpdate& u = updates[j];
      const Tensor* mask = u.mask.find(name);
      SUBFEDAVG_CHECK(mask == nullptr || mask->numel() >= n,
                      "mask entry '" << name << "' is shorter than its " << n << " values");
      sources[j] = {&u.state[e].second, mask != nullptr ? mask->data() : nullptr,
                    static_cast<float>(u.weight)};
      any_covered = any_covered || mask != nullptr;
    }

    // Staleness multipliers ride every rule: each contribution is scaled by
    // its update's weight and the normalizer sums the weights, so weight 1.0
    // everywhere (the synchronous case) reproduces the unweighted math
    // bit-for-bit (×1.0 and Σ1.0-counts are exact in float).
    if (!any_covered) {
      // Weighted average (biases, BN affine terms, running stats).
      float weight_sum = 0.0f;
      for (const Source& source : sources) {
        merged.axpy_(source.weight, *source.values);
        weight_sum += source.weight;
      }
      SUBFEDAVG_CHECK(weight_sum > 0.0f, "zero total aggregation weight");
      merged.scale_(1.0f / weight_sum);
      out.add(name, std::move(merged));
      continue;
    }

    float* merged_data = merged.data();
    const float* prev_data = prev.data();
    for (std::size_t i = 0; i < n; ++i) {
      float sum = 0.0f;
      float weight_sum = 0.0f;
      std::size_t keepers = 0;
      for (const Source& source : sources) {
        if (source.mask == nullptr || source.mask[i] != 0.0f) {
          sum += source.weight * source.values->data()[i];
          weight_sum += source.weight;
          ++keepers;
        }
      }
      const bool use_average = rule == CoveredRule::kCounting
                                   ? keepers > 0 && weight_sum > 0.0f
                                   : keepers == updates.size() && weight_sum > 0.0f;
      merged_data[i] = use_average ? sum / weight_sum : prev_data[i];
    }
    out.add(name, std::move(merged));
  }
  return out;
}

}  // namespace

StateDict sub_fedavg_aggregate(std::span<const ClientUpdate> updates,
                               const StateDict& previous_global) {
  return masked_aggregate(updates, previous_global, CoveredRule::kCounting);
}

StateDict sub_fedavg_aggregate_strict(std::span<const ClientUpdate> updates,
                                      const StateDict& previous_global) {
  return masked_aggregate(updates, previous_global, CoveredRule::kStrictIntersection);
}

StateDict fedavg_aggregate(std::span<const ClientUpdate> updates) {
  SUBFEDAVG_CHECK(!updates.empty(), "aggregate needs at least one update");
  check_aligned(updates, updates.front().state);

  // Example counts × staleness weights; weight 1.0 everywhere degenerates to
  // the plain example-count mean bit-for-bit.
  double total_weight = 0.0;
  for (const ClientUpdate& u : updates) {
    total_weight += u.weight * static_cast<double>(u.num_examples);
  }
  SUBFEDAVG_CHECK(total_weight > 0, "zero total aggregation weight");

  StateDict out;
  const StateDict& reference = updates.front().state;
  for (std::size_t e = 0; e < reference.size(); ++e) {
    const auto& [name, first] = reference[e];
    Tensor merged(first.shape());
    for (const ClientUpdate& u : updates) {
      const float w =
          static_cast<float>(u.weight * static_cast<double>(u.num_examples) / total_weight);
      merged.axpy_(w, *u.state.find(name));
    }
    out.add(name, std::move(merged));
  }
  return out;
}

}  // namespace subfed
