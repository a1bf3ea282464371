// Synthetic dataset generation and non-IID shard partitioning.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "data/client_data.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "util/check.h"

namespace subfed {
namespace {

TEST(DatasetSpec, PaperShapes) {
  const DatasetSpec mnist = DatasetSpec::mnist();
  EXPECT_EQ(mnist.num_classes, 10u);
  EXPECT_EQ(mnist.channels, 1u);
  EXPECT_EQ(mnist.hw, 28u);
  EXPECT_EQ(mnist.shard_size, 250u);

  const DatasetSpec emnist = DatasetSpec::emnist();
  EXPECT_EQ(emnist.num_classes, 47u);

  const DatasetSpec cifar10 = DatasetSpec::cifar10();
  EXPECT_EQ(cifar10.channels, 3u);
  EXPECT_EQ(cifar10.hw, 32u);

  const DatasetSpec cifar100 = DatasetSpec::cifar100();
  EXPECT_EQ(cifar100.num_classes, 100u);
  EXPECT_EQ(cifar100.shard_size, 125u);  // paper: 125-example shards
}

TEST(DatasetSpec, ByNameRoundTrip) {
  for (const char* name : {"mnist", "emnist", "cifar10", "cifar100"}) {
    EXPECT_EQ(DatasetSpec::by_name(name).name, name);
  }
  EXPECT_THROW(DatasetSpec::by_name("imagenet"), CheckError);
}

TEST(SyntheticGenerator, DeterministicImages) {
  SyntheticImageGenerator g1(DatasetSpec::mnist(), 42);
  SyntheticImageGenerator g2(DatasetSpec::mnist(), 42);
  EXPECT_EQ(g1.train_image(3, 7), g2.train_image(3, 7));
  EXPECT_EQ(g1.test_image(3, 7), g2.test_image(3, 7));
}

TEST(SyntheticGenerator, DistinctAcrossIndicesLabelsSeedsAndSplits) {
  SyntheticImageGenerator g(DatasetSpec::mnist(), 42);
  SyntheticImageGenerator other(DatasetSpec::mnist(), 43);
  EXPECT_NE(g.train_image(3, 7), g.train_image(3, 8));
  EXPECT_NE(g.train_image(3, 7), g.train_image(4, 7));
  EXPECT_NE(g.train_image(3, 7), g.test_image(3, 7));
  EXPECT_NE(g.train_image(3, 7), other.train_image(3, 7));
}

TEST(SyntheticGenerator, ImageShape) {
  SyntheticImageGenerator g(DatasetSpec::cifar10(), 1);
  const Tensor img = g.train_image(0, 0);
  EXPECT_EQ(img.shape(), Shape({3, 32, 32}));
}

/// FNV-1a over a tensor's float bytes.
std::uint64_t fnv1a(const Tensor& t) {
  std::uint64_t hash = 14695981039346656037ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.numel() * sizeof(float); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ULL;
  }
  return hash;
}

TEST(SyntheticGenerator, ImagesArePinnedBitForBit) {
  // Hashes recorded from the generator before it cached prototypes: any
  // change to an image's bits changes every accuracy the repo reports.
  struct Pin {
    const char* dataset;
    std::uint64_t seed;
    bool train;
    std::size_t label, index;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"mnist", 1, true, 0, 0, 0x380c0809690a18a5ULL},
      {"mnist", 1, false, 7, 39, 0x99963244ad4ff922ULL},
      {"mnist", 42, true, 3, 7, 0xf293e837a58d85fcULL},
      {"cifar10", 1, true, 0, 0, 0x236217a4f947d709ULL},
      {"cifar10", 1, false, 9, 12, 0x9d3107f63b389ea5ULL},
      {"cifar10", 7, true, 4, 1234, 0x01651570d8c039b5ULL},
      {"emnist", 3, true, 46, 5, 0x19a63a93672286d4ULL},
      {"cifar100", 2, false, 99, 3, 0x20d709216274ccf1ULL},
  };
  for (const Pin& pin : pins) {
    const SyntheticImageGenerator g(DatasetSpec::by_name(pin.dataset), pin.seed);
    for (const char* pass : {"cold", "warm"}) {
      const Tensor image =
          pin.train ? g.train_image(pin.label, pin.index) : g.test_image(pin.label, pin.index);
      EXPECT_EQ(fnv1a(image), pin.hash)
          << pin.dataset << " seed " << pin.seed << (pin.train ? " train " : " test ")
          << pin.label << "/" << pin.index << " (" << pass << ")";
    }
  }
}

/// The image recipe spelled out on the uncached prototype(): brightness
/// jitter, a ±2 px shift and pixel noise, drawn from the image's own stream.
Tensor reference_image(const SyntheticImageGenerator& g, std::uint64_t seed, bool train,
                       std::size_t label, std::size_t index) {
  const std::size_t ch = g.spec().channels, hw = g.spec().hw;
  const std::uint64_t tag = hash_name(train ? "train" : "test");
  Rng rng = Rng(seed).split("example", tag ^ (label * 0x1000003ULL + index));
  const Tensor proto =
      g.prototype(label, static_cast<std::size_t>(rng.uniform_index(g.prototypes_per_class())));
  const float gain = static_cast<float>(rng.uniform(0.8, 1.2));
  const int shift_x = static_cast<int>(rng.uniform_index(5)) - 2;
  const int shift_y = static_cast<int>(rng.uniform_index(5)) - 2;
  Tensor img({ch, hw, hw});
  for (std::size_t c = 0; c < ch; ++c) {
    for (int y = 0; y < static_cast<int>(hw); ++y) {
      for (int x = 0; x < static_cast<int>(hw); ++x) {
        const int sy = y - shift_y, sx = x - shift_x;
        const bool inside = sy >= 0 && sy < static_cast<int>(hw) && sx >= 0 &&
                            sx < static_cast<int>(hw);
        const float value = inside ? proto[(c * hw + sy) * hw + sx] : 0.0f;
        img[(c * hw + y) * hw + x] =
            gain * value + static_cast<float>(rng.normal(0.0, g.spec().noise));
      }
    }
  }
  return img;
}

TEST(SyntheticGenerator, RacingThreadsSeeTheUncachedPrototypes) {
  // 8 threads draw a fresh generator's first images at once, through the
  // generator and a copy of it made before any image; each image must equal
  // the recipe applied to the uncached prototype().
  const std::uint64_t seed = 17;
  const SyntheticImageGenerator g(DatasetSpec::cifar10(), seed);
  const SyntheticImageGenerator copy = g;
  constexpr std::size_t kThreads = 8, kImages = 12;
  std::vector<std::vector<Tensor>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SyntheticImageGenerator& source = t % 2 == 0 ? g : copy;
      for (std::size_t i = 0; i < kImages; ++i) {
        drawn[t].push_back(source.train_image(i % 3, i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < kImages; ++i) {
    const Tensor want = reference_image(g, seed, /*train=*/true, i % 3, i);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(drawn[t][i], want) << "thread " << t << " image " << i;
    }
  }
  EXPECT_EQ(g.test_image(5, 2), reference_image(g, seed, /*train=*/false, 5, 2));
}

TEST(SyntheticGenerator, ClassPrototypesAreSeparated) {
  // Same-class examples must be closer to their own prototype mixture than
  // random cross-class pairs on average — the learnability precondition.
  SyntheticImageGenerator g(DatasetSpec::mnist(), 5);
  double intra = 0.0, inter = 0.0;
  int pairs = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < 3; ++i) {
      Tensor a = g.train_image(c, i);
      Tensor b = g.train_image(c, i + 10);
      Tensor d = g.train_image((c + 1) % 4, i);
      Tensor ab = sub(a, b), ad = sub(a, d);
      intra += ab.squared_norm();
      inter += ad.squared_norm();
      ++pairs;
    }
  }
  // Same class can still differ (3 prototypes/class), but cross-class should
  // be clearly farther on average.
  EXPECT_LT(intra / pairs, inter / pairs);
}

TEST(ShardPartitioner, ShardArithmetic) {
  const DatasetSpec spec = DatasetSpec::mnist();
  ShardPartitioner part(spec, {/*clients=*/10, /*shards=*/2, /*shard_size=*/50}, Rng(1));
  EXPECT_EQ(part.num_clients(), 10u);
  EXPECT_EQ(part.shard_size(), 50u);
  // 10 clients × 2 shards × 50 = 1000 examples over 10 classes → 100/class.
  EXPECT_EQ(part.pool_per_class(), 100u);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_EQ(part.client(k).examples.size(), 100u);
  }
}

TEST(ShardPartitioner, DefaultsToPaperShardSize) {
  const DatasetSpec spec = DatasetSpec::cifar100();
  ShardPartitioner part(spec, {4, 2, 0}, Rng(1));
  EXPECT_EQ(part.shard_size(), 125u);
}

TEST(ShardPartitioner, AtMostTwoLabelsWithAlignedShards) {
  // When shard_size divides pool_per_class, every shard is label-pure, so a
  // 2-shard client sees at most 2 labels — the paper's pathological non-IID.
  const DatasetSpec spec = DatasetSpec::mnist();
  ShardPartitioner part(spec, {20, 2, 100}, Rng(7));
  // pool_per_class = 20·2·100/10 = 400 → divisible by 100.
  for (std::size_t k = 0; k < 20; ++k) {
    EXPECT_LE(part.client(k).labels_present.size(), 2u);
    EXPECT_GE(part.client(k).labels_present.size(), 1u);
  }
}

TEST(ShardPartitioner, ShardsArePartition) {
  // No example is assigned twice across the federation.
  const DatasetSpec spec = DatasetSpec::mnist();
  ShardPartitioner part(spec, {12, 2, 30}, Rng(3));
  std::set<std::pair<std::int32_t, std::uint32_t>> seen;
  for (std::size_t k = 0; k < part.num_clients(); ++k) {
    for (const ExampleRef& ref : part.client(k).examples) {
      const bool inserted = seen.insert({ref.label, ref.index}).second;
      EXPECT_TRUE(inserted) << "duplicate example (" << ref.label << "," << ref.index << ")";
    }
  }
  EXPECT_EQ(seen.size(), 12u * 2 * 30);
}

TEST(ShardPartitioner, LabelsPresentMatchesExamples) {
  const DatasetSpec spec = DatasetSpec::emnist();
  ShardPartitioner part(spec, {8, 2, 40}, Rng(5));
  for (std::size_t k = 0; k < part.num_clients(); ++k) {
    std::set<std::int32_t> labels;
    for (const ExampleRef& ref : part.client(k).examples) labels.insert(ref.label);
    const auto& present = part.client(k).labels_present;
    EXPECT_EQ(labels.size(), present.size());
    for (const std::int32_t l : present) EXPECT_TRUE(labels.count(l));
    EXPECT_TRUE(std::is_sorted(present.begin(), present.end()));
  }
}

TEST(ShardPartitioner, DeterministicGivenSeed) {
  const DatasetSpec spec = DatasetSpec::mnist();
  ShardPartitioner a(spec, {6, 2, 25}, Rng(11));
  ShardPartitioner b(spec, {6, 2, 25}, Rng(11));
  ShardPartitioner c(spec, {6, 2, 25}, Rng(12));
  EXPECT_EQ(a.client(0).labels_present, b.client(0).labels_present);
  bool any_differ = false;
  for (std::size_t k = 0; k < 6 && !any_differ; ++k) {
    any_differ = a.client(k).labels_present != c.client(k).labels_present;
  }
  EXPECT_TRUE(any_differ);
}

TEST(FederatedData, ClientTensorsSized) {
  FederatedDataConfig config;
  config.partition = {4, 2, 30};
  config.test_per_class = 10;
  config.val_fraction = 0.1;
  config.seed = 2;
  FederatedData data(DatasetSpec::mnist(), config);

  EXPECT_EQ(data.num_clients(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const ClientData& cd = data.client(k);
    // 60 local examples → 54 train + 6 val.
    EXPECT_EQ(cd.train_images.shape()[0], 54u);
    EXPECT_EQ(cd.train_labels.size(), 54u);
    EXPECT_EQ(cd.val_images.shape()[0], 6u);
    const TestSet test = data.client_test(k);
    EXPECT_EQ(test.size(), cd.labels_present.size());
    for (const TestSlice* slice : test) EXPECT_EQ(slice->images.shape()[0], 10u);
    EXPECT_EQ(cd.train_images.shape()[1], 1u);
    EXPECT_EQ(cd.train_images.shape()[2], 28u);
  }
}

TEST(FederatedData, TestSetOnlyClientLabels) {
  FederatedDataConfig config;
  config.partition = {6, 2, 20};
  config.test_per_class = 5;
  config.seed = 3;
  FederatedData data(DatasetSpec::mnist(), config);

  for (std::size_t k = 0; k < data.num_clients(); ++k) {
    const ClientData& cd = data.client(k);
    std::set<std::int32_t> allowed(cd.labels_present.begin(), cd.labels_present.end());
    for (const TestSlice* slice : data.client_test(k)) EXPECT_TRUE(allowed.count(slice->label));
    for (const std::int32_t l : cd.train_labels) EXPECT_TRUE(allowed.count(l));
    for (const std::int32_t l : cd.val_labels) EXPECT_TRUE(allowed.count(l));
  }
}

TEST(FederatedData, DeterministicAcrossConstructions) {
  FederatedDataConfig config;
  config.partition = {3, 2, 15};
  config.seed = 9;
  FederatedData a(DatasetSpec::mnist(), config);
  FederatedData b(DatasetSpec::mnist(), config);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(a.client(k).train_images, b.client(k).train_images);
    EXPECT_EQ(a.client(k).train_labels, b.client(k).train_labels);
    const TestSet test_a = a.client_test(k), test_b = b.client_test(k);
    ASSERT_EQ(test_a.size(), test_b.size());
    for (std::size_t s = 0; s < test_a.size(); ++s) {
      EXPECT_EQ(test_a[s]->images, test_b[s]->images);
    }
  }
}

TEST(FederatedData, SharedTestPoolConsistentAcrossClients) {
  // Clients sharing a label see the *same* test images for it (the global
  // test pool filtered per client, not freshly sampled).
  FederatedDataConfig config;
  config.partition = {8, 2, 25};
  config.test_per_class = 4;
  config.seed = 4;
  FederatedData data(DatasetSpec::mnist(), config);

  std::map<std::int32_t, const TestSlice*> first_seen;
  for (std::size_t k = 0; k < data.num_clients(); ++k) {
    const ClientData& cd = data.client(k);
    const TestSet test = data.client_test(k);
    ASSERT_EQ(test.size(), cd.labels_present.size());
    for (std::size_t li = 0; li < cd.labels_present.size(); ++li) {
      const TestSlice& slice = *test[li];
      EXPECT_EQ(slice.label, cd.labels_present[li]);
      auto [it, inserted] = first_seen.emplace(slice.label, &slice);
      // Dedup means shared labels point at the SAME immutable slice object.
      if (!inserted) EXPECT_EQ(it->second, &slice) << "label " << slice.label;
    }
  }
}

}  // namespace
}  // namespace subfed
