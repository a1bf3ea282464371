// Per-client datasets: local train/validation split plus the label-filtered
// test set ("evaluation data for each client is all the test set for the
// training dataset labels they have", §4.1).
//
// Two residency modes. Eager (client_cache == 0, the historical default)
// materializes every client up front and `client(k)` hands out references.
// Lazy (client_cache > 0) synthesizes a client's tensors from
// (seed, client_id) at first touch and keeps at most `client_cache` clients
// resident behind an LRU — population size stops being a memory cost, so a
// 10^6-client federation holds O(cache) tensors. Both modes produce
// bit-identical tensors for the same (spec, config): every image is a pure
// function of (seed, label, index).
//
// The test pool is shared and kept apart from the clients: one immutable
// TestSlice per label, built once on first request. A client's test set is
// the slices of its labels (`client_test`), found from the partition alone,
// so evaluation never synthesizes or caches a client's train/val images.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "tensor/tensor.h"

namespace subfed {

/// The global test pool for one label: [test_per_class, C, H, W], shared
/// immutably by every client whose shards contain that label.
struct TestSlice {
  std::int32_t label = 0;
  Tensor images;
};

/// A client's test set: its labels' slices in labels_present order, read as
/// their virtual concatenation (label-major, ascending). The slices belong to
/// the FederatedData they came from.
using TestSet = std::vector<const TestSlice*>;

/// One client's local data, materialized as batch-ready tensors.
struct ClientData {
  Tensor train_images;                  ///< [n_train, C, H, W]
  std::vector<std::int32_t> train_labels;
  Tensor val_images;                    ///< carved from local train (paper's D^val_k)
  std::vector<std::int32_t> val_labels;
  std::vector<std::int32_t> labels_present;
};

/// Handle to one client's data. In eager mode it aliases the resident table;
/// in lazy mode it pins the client against LRU eviction while held.
using ClientDataPtr = std::shared_ptr<const ClientData>;

struct FederatedDataConfig {
  PartitionConfig partition;
  std::size_t test_per_class = 40;   ///< test pool size per class
  double val_fraction = 0.1;         ///< of local train, min 1 example
  std::uint64_t seed = 1;
  /// 0 → eager (all clients resident, the historical behavior).
  /// > 0 → lazy: at most this many clients materialized at once.
  std::size_t client_cache = 0;
};

/// The federation's data: shard partition + per-client tensors (eager or
/// lazily synthesized — see the file comment). Thread-safe: `client_ptr` and
/// `client_test` may be called concurrently from pool threads.
class FederatedData {
 public:
  FederatedData(DatasetSpec spec, FederatedDataConfig config);

  const DatasetSpec& spec() const noexcept { return spec_; }
  std::size_t num_clients() const noexcept { return partitioner_.num_clients(); }
  bool lazy() const noexcept { return config_.client_cache > 0; }

  /// Eager mode only: a reference into the resident table.
  const ClientData& client(std::size_t k) const;
  /// Both modes. The returned handle keeps the client's tensors alive even if
  /// the LRU evicts the cache entry concurrently.
  ClientDataPtr client_ptr(std::size_t k) const;

  /// Client k's test set, in both modes. Reads the client's labels from the
  /// partition: renders no train/val image and leaves the lazy cache and its
  /// counters untouched.
  TestSet client_test(std::size_t k) const;

  const ShardPartitioner& partition() const noexcept { return partitioner_; }

  /// Lazy-mode cache telemetry (0 in eager mode).
  std::uint64_t cache_hits() const noexcept { return hits_; }
  std::uint64_t cache_misses() const noexcept { return misses_; }
  std::uint64_t cache_evictions() const noexcept { return evictions_; }

 private:
  /// Builds one client from scratch — a pure function of (config, k).
  ClientData build_client(std::size_t k) const;
  /// The shared test pool for one label, built once on first request.
  const TestSlice& test_slice(std::int32_t label) const;

  DatasetSpec spec_;
  FederatedDataConfig config_;
  SyntheticImageGenerator generator_;
  ShardPartitioner partitioner_;

  std::vector<ClientData> clients_;  ///< eager mode only

  // Shared per-label test slices (both modes), indexed by label.
  struct SliceCell {
    std::once_flag once;
    TestSlice slice;
  };
  mutable std::vector<SliceCell> test_slices_;

  // Lazy-mode LRU. A cell is inserted under the lock but materialized outside
  // it (call_once), so a slow build never serializes unrelated clients.
  struct Cell {
    std::once_flag once;
    ClientDataPtr data;
  };
  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<std::size_t, std::shared_ptr<Cell>> cells_;
  mutable std::list<std::size_t> lru_;  ///< front = most recently used
  mutable std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_it_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t evictions_ = 0;
};

}  // namespace subfed
