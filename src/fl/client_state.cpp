#include "fl/client_state.h"

#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "fl/checkpoint.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace subfed {

ClientStateStore::~ClientStateStore() {
  if (spill_file_ != nullptr) std::fclose(spill_file_);
}

void ClientStateStore::init(std::size_t num_clients, StateSections initial,
                            std::size_t hot_capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  num_clients_ = num_clients;
  hot_capacity_ = hot_capacity;
  initial_ = std::make_shared<const StateSections>(std::move(initial));
  touched_.assign(num_clients, false);
  hot_.clear();
  lru_.clear();
  lru_it_.clear();
  spilled_.clear();
  spill_end_ = 0;
}

bool ClientStateStore::touched(std::size_t k) const {
  SUBFEDAVG_CHECK(k < num_clients_, "client " << k << " out of " << num_clients_);
  std::lock_guard<std::mutex> lock(mutex_);
  return touched_[k];
}

std::string ClientStateStore::record_name(std::size_t k) {
  return "client-" + std::to_string(k);
}

StateSectionsPtr ClientStateStore::load_spilled_locked(std::size_t k) const {
  const auto it = spilled_.find(k);
  SUBFEDAVG_CHECK(it != spilled_.end() && it->second.size > 0,
                  "client " << k << " not in spill index");
  SUBFEDAVG_CHECK(spill_file_ != nullptr, "spill file missing");
  std::vector<std::uint8_t> bytes(it->second.size);
  // Positional I/O: forked transport workers share this file's offset.
  const ssize_t read =
      ::pread(::fileno(spill_file_), bytes.data(), bytes.size(), it->second.offset);
  SUBFEDAVG_CHECK(read == static_cast<ssize_t>(bytes.size()),
                  "short spill read for client " << k);
  ++refaults_;
  static telemetry::Counter& refaults = telemetry::counter("state.refaults");
  refaults.add();
  return std::make_shared<const StateSections>(
      decode_state_sections(bytes, record_name(k)));
}

void ClientStateStore::promote_locked(std::size_t k) {
  const auto it = lru_it_.find(k);
  if (it != lru_it_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(k);
    lru_it_[k] = lru_.begin();
  }
}

void ClientStateStore::evict_overflow_locked() {
  if (hot_capacity_ == 0) return;
  while (hot_.size() > hot_capacity_ && lru_.size() > 1) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    lru_it_.erase(victim);
    const auto it = hot_.find(victim);
    SUBFEDAVG_CHECK(it != hot_.end(), "LRU entry without hot sections");
    // Spill through the same versioned container full checkpoints use, then
    // drop the hot reference (readers holding the shared_ptr keep their view).
    if (spill_file_ == nullptr) {
      spill_file_ = std::tmpfile();
      SUBFEDAVG_CHECK(spill_file_ != nullptr, "cannot create spill file");
    }
    const std::vector<std::uint8_t> bytes =
        encode_state_sections(record_name(victim), *it->second);
    // Overwrite the victim's previous extent when the record fits there.
    SpillExtent& extent = spilled_[victim];
    if (extent.capacity < bytes.size()) {
      extent.offset = spill_end_;
      extent.capacity = bytes.size();
      spill_end_ += static_cast<long>(bytes.size());
    }
    const ssize_t written =
        ::pwrite(::fileno(spill_file_), bytes.data(), bytes.size(), extent.offset);
    SUBFEDAVG_CHECK(written == static_cast<ssize_t>(bytes.size()), "short spill write");
    extent.size = bytes.size();
    hot_.erase(it);
    ++spills_;
    static telemetry::Counter& spills = telemetry::counter("state.spills");
    static telemetry::Counter& spilled_bytes = telemetry::counter("state.spilled_bytes");
    spills.add();
    spilled_bytes.add(bytes.size());
  }
}

StateSectionsPtr ClientStateStore::read(std::size_t k) {
  SUBFEDAVG_CHECK(k < num_clients_, "client " << k << " out of " << num_clients_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!touched_[k]) return initial_;
  const auto it = hot_.find(k);
  if (it != hot_.end()) {
    promote_locked(k);
    return it->second;
  }
  StateSectionsPtr sections = load_spilled_locked(k);
  spilled_[k].size = 0;  // the hot entry is current; the extent stays for reuse
  hot_[k] = sections;
  promote_locked(k);
  evict_overflow_locked();
  return sections;
}

StateSectionsPtr ClientStateStore::peek(std::size_t k) const {
  SUBFEDAVG_CHECK(k < num_clients_, "client " << k << " out of " << num_clients_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!touched_[k]) return initial_;
  const auto it = hot_.find(k);
  if (it != hot_.end()) return it->second;
  return load_spilled_locked(k);
}

void ClientStateStore::put(std::size_t k, StateSections sections) {
  SUBFEDAVG_CHECK(k < num_clients_, "client " << k << " out of " << num_clients_);
  std::lock_guard<std::mutex> lock(mutex_);
  touched_[k] = true;
  // A newer value supersedes any spilled record; its extent stays for reuse.
  if (const auto it = spilled_.find(k); it != spilled_.end()) it->second.size = 0;
  hot_[k] = std::make_shared<const StateSections>(std::move(sections));
  promote_locked(k);
  evict_overflow_locked();
}

void ClientStateStore::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  touched_.assign(num_clients_, false);
  hot_.clear();
  lru_.clear();
  lru_it_.clear();
  for (auto& [k, extent] : spilled_) extent.size = 0;
}

std::uint64_t ClientStateStore::spill_file_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spill_file_ == nullptr) return 0;
  struct stat info {};
  SUBFEDAVG_CHECK(::fstat(::fileno(spill_file_), &info) == 0, "spill stat failed");
  return static_cast<std::uint64_t>(info.st_size);
}

}  // namespace subfed
