// Per-client side-band state with lazy construction and LRU spill-to-disk.
//
// Algorithms that keep state per client (Standalone/LG/MTL local models,
// Sub-FedAvg's personal state + masks) historically held all of it resident
// — population size was a memory cost even when only `per_round_` clients
// were ever sampled. This store makes that state O(active):
//
//  * every client starts "untouched", sharing one immutable copy of the
//    algorithm's initial sections (nothing allocated per client);
//  * the first put() marks a client touched and caches its sections hot;
//  * beyond `hot_capacity` touched clients, the least-recently-used entry is
//    spilled to an anonymous temp file as an SFCG record (the same versioned
//    container full checkpoints use — fl/checkpoint.h), and reloaded exactly
//    on the next access ("refault");
//  * each client keeps its file extent once reloaded or superseded, and its
//    next spill overwrites it when the record fits, so the file is bounded by
//    the population, not by the run length;
//  * hot_capacity == 0 keeps every touched client resident — the historical
//    behavior, with identical values.
//
// Entries are immutable snapshots behind shared_ptr: readers keep a
// consistent view even if the entry is evicted (or replaced by a newer put)
// concurrently. All methods are thread-safe.
#pragma once

#include <cstdint>
#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "nn/parameter.h"

namespace subfed {

using StateSections = std::vector<StateDict>;
using StateSectionsPtr = std::shared_ptr<const StateSections>;

class ClientStateStore {
 public:
  ClientStateStore() = default;
  ~ClientStateStore();
  ClientStateStore(const ClientStateStore&) = delete;
  ClientStateStore& operator=(const ClientStateStore&) = delete;

  /// `initial` is the shared untouched-client state; `hot_capacity` bounds
  /// resident touched clients (0 = unbounded, the historical behavior).
  void init(std::size_t num_clients, StateSections initial, std::size_t hot_capacity);

  std::size_t size() const noexcept { return num_clients_; }
  bool touched(std::size_t k) const;
  const StateSections& initial_sections() const { return *initial_; }

  /// Current sections for client k, promoting the entry to hot (refaulting
  /// from the spill file if evicted). Untouched clients see the shared
  /// initial sections.
  StateSectionsPtr read(std::size_t k);

  /// Same value as read(k) but cache-neutral: no promotion, no eviction, and
  /// spilled entries are loaded transiently. Use on paths whose iteration
  /// order is bit-identity-critical (e.g. an all-clients reduction) so
  /// observation never perturbs residency.
  StateSectionsPtr peek(std::size_t k) const;

  /// Replaces client k's sections (marks it touched).
  void put(std::size_t k, StateSections sections);

  /// Forgets every touched entry (hot and spilled) — back to the shared
  /// initial sections. Used before a full checkpoint restore.
  void reset();

  std::uint64_t spills() const noexcept { return spills_; }
  std::uint64_t refaults() const noexcept { return refaults_; }
  /// Current size of the spill file (0 before the first spill).
  std::uint64_t spill_file_bytes() const;

 private:
  /// Record name inside the SFCG container, validated on refault.
  static std::string record_name(std::size_t k);
  StateSectionsPtr load_spilled_locked(std::size_t k) const;
  void promote_locked(std::size_t k);
  void evict_overflow_locked();

  std::size_t num_clients_ = 0;
  std::size_t hot_capacity_ = 0;
  StateSectionsPtr initial_;
  std::vector<bool> touched_;

  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, StateSectionsPtr> hot_;
  std::list<std::size_t> lru_;  ///< front = most recently used
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_it_;

  /// A client's region of the spill file. `size` is its current record's
  /// length, 0 when the record was reloaded or superseded.
  struct SpillExtent {
    long offset = 0;
    std::size_t capacity = 0;
    std::size_t size = 0;
  };
  std::FILE* spill_file_ = nullptr;  ///< std::tmpfile(); unlinked on close
  std::unordered_map<std::size_t, SpillExtent> spilled_;
  long spill_end_ = 0;
  mutable std::uint64_t spills_ = 0;
  mutable std::uint64_t refaults_ = 0;
};

}  // namespace subfed
