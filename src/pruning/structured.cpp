#include "pruning/structured.h"

#include <algorithm>
#include <cmath>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "util/check.h"

namespace subfed {

ChannelMask ChannelMask::ones_like(const Model& model) {
  ChannelMask mask;
  for (const ConvBlock& block : model.topology().conv_blocks) {
    mask.keep_.emplace_back(block.conv->out_channels(), std::uint8_t{1});
  }
  return mask;
}

const std::vector<std::uint8_t>& ChannelMask::block(std::size_t b) const {
  SUBFEDAVG_CHECK(b < keep_.size(), "block " << b << " out of " << keep_.size());
  return keep_[b];
}

std::vector<std::uint8_t>& ChannelMask::block(std::size_t b) {
  SUBFEDAVG_CHECK(b < keep_.size(), "block " << b << " out of " << keep_.size());
  return keep_[b];
}

std::size_t ChannelMask::total_channels() const noexcept {
  std::size_t n = 0;
  for (const auto& block : keep_) n += block.size();
  return n;
}

std::size_t ChannelMask::kept_channels() const noexcept {
  std::size_t n = 0;
  for (const auto& block : keep_) {
    for (const std::uint8_t k : block) n += (k != 0);
  }
  return n;
}

double ChannelMask::pruned_fraction() const noexcept {
  const std::size_t total = total_channels();
  return total == 0 ? 0.0
                    : 1.0 - static_cast<double>(kept_channels()) / static_cast<double>(total);
}

double ChannelMask::hamming_distance(const ChannelMask& a, const ChannelMask& b) {
  SUBFEDAVG_CHECK(a.keep_.size() == b.keep_.size(), "channel mask block count differs");
  std::size_t total = 0, differ = 0;
  for (std::size_t blk = 0; blk < a.keep_.size(); ++blk) {
    SUBFEDAVG_CHECK(a.keep_[blk].size() == b.keep_[blk].size(), "block size differs");
    total += a.keep_[blk].size();
    for (std::size_t c = 0; c < a.keep_[blk].size(); ++c) {
      differ += (a.keep_[blk][c] != b.keep_[blk][c]);
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(differ) / static_cast<double>(total);
}

ModelMask ChannelMask::to_model_mask(Model& model) const {
  const ModelTopology& topo = model.topology();
  SUBFEDAVG_CHECK(topo.conv_blocks.size() == keep_.size(), "mask/model block mismatch");

  ModelMask out;
  // Start from all-ones over every tensor a channel can touch, then zero.
  // Every entry exists before the first pointer into the mask is taken:
  // set() may reallocate the entry storage under earlier pointers.
  auto ensure = [&out](Parameter& p) {
    if (out.find(p.name) == nullptr) out.set(p.name, Tensor(p.value.shape(), 1.0f));
  };
  for (const ConvBlock& block : topo.conv_blocks) {
    ensure(block.conv->weight());
    ensure(block.conv->bias());
    if (block.bn != nullptr) {
      ensure(block.bn->gamma());
      ensure(block.bn->beta());
    }
    if (block.next_conv != nullptr) ensure(block.next_conv->weight());
    if (block.next_fc != nullptr) ensure(block.next_fc->weight());
  }
  auto entry = [&out](Parameter& p) { return out.find(p.name); };

  for (std::size_t b = 0; b < keep_.size(); ++b) {
    const ConvBlock& block = topo.conv_blocks[b];
    Conv2d& conv = *block.conv;
    const std::size_t oc_count = conv.out_channels();
    SUBFEDAVG_CHECK(keep_[b].size() == oc_count, "block " << b << " channel count");

    Tensor* w = entry(conv.weight());
    Tensor* bias = entry(conv.bias());
    Tensor* gamma = block.bn != nullptr ? entry(block.bn->gamma()) : nullptr;
    Tensor* beta = block.bn != nullptr ? entry(block.bn->beta()) : nullptr;

    const std::size_t filter = conv.in_channels() * conv.kernel() * conv.kernel();
    for (std::size_t oc = 0; oc < oc_count; ++oc) {
      if (keep_[b][oc]) continue;
      for (std::size_t i = 0; i < filter; ++i) (*w)[oc * filter + i] = 0.0f;
      (*bias)[oc] = 0.0f;
      if (gamma != nullptr) (*gamma)[oc] = 0.0f;
      if (beta != nullptr) (*beta)[oc] = 0.0f;
    }

    if (block.next_conv != nullptr) {
      Conv2d& next = *block.next_conv;
      SUBFEDAVG_CHECK(next.in_channels() == oc_count, "next conv in_channels");
      Tensor* nw = entry(next.weight());
      const std::size_t k2 = next.kernel() * next.kernel();
      const std::size_t in_stride = next.in_channels() * k2;
      for (std::size_t oc = 0; oc < oc_count; ++oc) {
        if (keep_[b][oc]) continue;
        for (std::size_t f = 0; f < next.out_channels(); ++f) {
          for (std::size_t i = 0; i < k2; ++i) {
            (*nw)[f * in_stride + oc * k2 + i] = 0.0f;
          }
        }
      }
    }
    if (block.next_fc != nullptr) {
      Linear& fc = *block.next_fc;
      const std::size_t spatial = block.spatial_per_channel;
      SUBFEDAVG_CHECK(fc.in_features() == oc_count * spatial, "fc in_features");
      Tensor* fw = entry(fc.weight());
      for (std::size_t oc = 0; oc < oc_count; ++oc) {
        if (keep_[b][oc]) continue;
        for (std::size_t row = 0; row < fc.out_features(); ++row) {
          for (std::size_t s = 0; s < spatial; ++s) {
            (*fw)[row * fc.in_features() + oc * spatial + s] = 0.0f;
          }
        }
      }
    }
  }
  return out;
}

ChannelMask derive_channel_mask(Model& model, const ChannelMask& current,
                                double target_fraction) {
  SUBFEDAVG_CHECK(target_fraction >= 0.0 && target_fraction < 1.0,
                  "target fraction " << target_fraction);
  const ModelTopology& topo = model.topology();
  ChannelMask next = current;

  const std::size_t total = next.total_channels();
  const std::size_t want_pruned =
      static_cast<std::size_t>(std::floor(target_fraction * static_cast<double>(total)));
  const std::size_t already = total - next.kept_channels();
  if (want_pruned <= already) return next;
  std::size_t to_prune = want_pruned - already;

  // Candidate pool: (|γ|, block, channel) for kept channels; blocks down to a
  // single kept channel are excluded to preserve a connected network.
  struct Candidate {
    float importance;
    std::size_t block, channel;
  };
  std::vector<Candidate> pool;
  for (std::size_t b = 0; b < topo.conv_blocks.size(); ++b) {
    const BatchNorm2d* bn = topo.conv_blocks[b].bn;
    SUBFEDAVG_CHECK(bn != nullptr, "structured pruning requires BN after conv");
    const Tensor& gamma = const_cast<BatchNorm2d*>(bn)->gamma().value;
    for (std::size_t c = 0; c < next.block(b).size(); ++c) {
      if (next.block(b)[c]) pool.push_back({std::fabs(gamma[c]), b, c});
    }
  }
  std::sort(pool.begin(), pool.end(), [](const Candidate& a, const Candidate& b) {
    if (a.importance != b.importance) return a.importance < b.importance;
    if (a.block != b.block) return a.block < b.block;
    return a.channel < b.channel;
  });

  std::vector<std::size_t> kept_per_block(topo.conv_blocks.size());
  for (std::size_t b = 0; b < topo.conv_blocks.size(); ++b) {
    for (const std::uint8_t k : next.block(b)) kept_per_block[b] += (k != 0);
  }

  for (const Candidate& cand : pool) {
    if (to_prune == 0) break;
    if (kept_per_block[cand.block] <= 1) continue;  // keep blocks alive
    next.block(cand.block)[cand.channel] = 0;
    --kept_per_block[cand.block];
    --to_prune;
  }
  return next;
}

void apply_channel_mask(Model& model, const ChannelMask& mask) {
  mask.to_model_mask(model).apply_to_weights(model);
}

}  // namespace subfed
