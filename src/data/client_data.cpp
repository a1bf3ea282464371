#include "data/client_data.h"

#include <cstring>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace subfed {

namespace {

/// Stacks generator-produced [C,H,W] images into one [N,C,H,W] tensor.
class ImageStacker {
 public:
  ImageStacker(std::size_t n, std::size_t channels, std::size_t hw)
      : tensor_({n, channels, hw, hw}), row_(channels * hw * hw) {}

  void put(std::size_t i, const Tensor& image) {
    SUBFEDAVG_CHECK(image.numel() == row_, "image size mismatch");
    std::memcpy(tensor_.data() + i * row_, image.data(), row_ * sizeof(float));
  }

  Tensor take() { return std::move(tensor_); }

 private:
  Tensor tensor_;
  std::size_t row_;
};

}  // namespace

FederatedData::FederatedData(DatasetSpec spec, FederatedDataConfig config)
    : spec_(std::move(spec)),
      config_(config),
      generator_(spec_, config.seed),
      partitioner_(spec_, config.partition, Rng(config.seed).split("partition"),
                   /*lazy=*/config.client_cache > 0),
      test_slices_(spec_.num_classes) {
  if (lazy()) return;  // clients materialize on demand through client_ptr()

  clients_.resize(partitioner_.num_clients());
  // Materialize clients and their test slices in parallel; every image is a
  // pure function of (seed, label, index), so thread scheduling cannot change
  // the data.
  ThreadPool::global().parallel_for(clients_.size(), [&](std::size_t k) {
    clients_[k] = build_client(k);
    for (const std::int32_t label : clients_[k].labels_present) (void)test_slice(label);
  });
}

ClientData FederatedData::build_client(std::size_t k) const {
  const ClientShards shards = partitioner_.shards_for(k);
  ClientData cd;
  cd.labels_present = shards.labels_present;

  // Deterministic local shuffle, then split off the validation tail.
  std::vector<std::size_t> order(shards.examples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng = Rng(config_.seed).split("client-split", k);
  rng.shuffle(order);

  std::size_t n_val = static_cast<std::size_t>(
      static_cast<double>(order.size()) * config_.val_fraction);
  n_val = std::max<std::size_t>(n_val, 1);
  SUBFEDAVG_CHECK(n_val < order.size(), "validation split consumed all local data");
  const std::size_t n_train = order.size() - n_val;

  ImageStacker train_stack(n_train, spec_.channels, spec_.hw);
  cd.train_labels.resize(n_train);
  for (std::size_t i = 0; i < n_train; ++i) {
    const ExampleRef& ref = shards.examples[order[i]];
    train_stack.put(i, generator_.train_image(static_cast<std::size_t>(ref.label),
                                              ref.index));
    cd.train_labels[i] = ref.label;
  }
  cd.train_images = train_stack.take();

  ImageStacker val_stack(n_val, spec_.channels, spec_.hw);
  cd.val_labels.resize(n_val);
  for (std::size_t i = 0; i < n_val; ++i) {
    const ExampleRef& ref = shards.examples[order[n_train + i]];
    val_stack.put(i, generator_.test_image(static_cast<std::size_t>(ref.label),
                                           // offset the stream so val never
                                           // collides with the shared test pool
                                           config_.test_per_class + ref.index));
    cd.val_labels[i] = ref.label;
  }
  cd.val_images = val_stack.take();
  return cd;
}

const TestSlice& FederatedData::test_slice(std::int32_t label) const {
  SUBFEDAVG_CHECK(label >= 0 && static_cast<std::size_t>(label) < test_slices_.size(),
                  "label " << label);
  SliceCell& cell = test_slices_[static_cast<std::size_t>(label)];
  std::call_once(cell.once, [&] {
    ImageStacker stack(config_.test_per_class, spec_.channels, spec_.hw);
    for (std::size_t i = 0; i < config_.test_per_class; ++i) {
      stack.put(i, generator_.test_image(static_cast<std::size_t>(label), i));
    }
    cell.slice.label = label;
    cell.slice.images = stack.take();
  });
  return cell.slice;
}

TestSet FederatedData::client_test(std::size_t k) const {
  SUBFEDAVG_CHECK(k < num_clients(), "client " << k << " out of " << num_clients());
  const std::vector<std::int32_t> labels =
      lazy() ? partitioner_.shards_for(k).labels_present : clients_[k].labels_present;
  TestSet test;
  test.reserve(labels.size());
  for (const std::int32_t label : labels) test.push_back(&test_slice(label));
  return test;
}

const ClientData& FederatedData::client(std::size_t k) const {
  SUBFEDAVG_CHECK(!lazy(),
                  "client() needs eager data (client_cache=0); use client_ptr()");
  SUBFEDAVG_CHECK(k < clients_.size(), "client " << k << " out of " << clients_.size());
  return clients_[k];
}

ClientDataPtr FederatedData::client_ptr(std::size_t k) const {
  SUBFEDAVG_CHECK(k < num_clients(), "client " << k << " out of " << num_clients());
  if (!lazy()) {
    // Non-owning alias into the resident table (the table outlives callers).
    return ClientDataPtr(ClientDataPtr{}, &clients_[k]);
  }

  std::shared_ptr<Cell> cell;
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = cells_.find(k);
    if (it != cells_.end()) {
      ++hits_;
      static telemetry::Counter& hits = telemetry::counter("data.cache_hits");
      hits.add();
      cell = it->second;
      lru_.splice(lru_.begin(), lru_, lru_it_[k]);  // promote to MRU
    } else {
      ++misses_;
      static telemetry::Counter& misses = telemetry::counter("data.cache_misses");
      misses.add();
      cell = std::make_shared<Cell>();
      cells_.emplace(k, cell);
      lru_.push_front(k);
      lru_it_[k] = lru_.begin();
      while (cells_.size() > config_.client_cache) {
        const std::size_t victim = lru_.back();
        if (victim == k) break;  // never evict the entry being materialized
        lru_.pop_back();
        lru_it_.erase(victim);
        cells_.erase(victim);
        ++evictions_;
        static telemetry::Counter& evictions = telemetry::counter("data.cache_evictions");
        evictions.add();
      }
    }
  }
  // Materialize outside the cache lock; concurrent callers for the same
  // client block on the cell, not on each other's builds. Handles returned
  // earlier keep evicted tensors alive until released.
  std::call_once(cell->once, [&] {
    cell->data = std::make_shared<const ClientData>(build_client(k));
  });
  return cell->data;
}

}  // namespace subfed
