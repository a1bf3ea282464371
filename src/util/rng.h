// Deterministic, splittable random number generation.
//
// Every stochastic decision in the simulator (dataset synthesis, shard
// assignment, weight init, batching, client sampling) derives from a single
// root seed through *named streams*. This makes runs reproducible bit-for-bit
// regardless of thread scheduling: each client / dataset / round gets its own
// independent stream keyed by (seed, name, index) instead of sharing one
// global engine.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace subfed {

/// splitmix64 step — used both as a standalone mixer and to seed xoshiro.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stable 64-bit hash of a string (FNV-1a folded through splitmix).
std::uint64_t hash_name(std::string_view name) noexcept;

/// xoshiro256** engine. Small, fast, and good enough statistical quality for
/// simulation workloads (not cryptographic).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// The engine's four state words: from_state(state()) continues this
  /// stream exactly (session checkpoints save streams this way).
  std::array<std::uint64_t, 4> state() const noexcept { return {s_[0], s_[1], s_[2], s_[3]}; }
  /// Throws CheckError on the all-zero state, which xoshiro never leaves.
  static Rng from_state(const std::array<std::uint64_t, 4>& state);

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Derive an independent child stream. Children with distinct
  /// (name, index) pairs are statistically independent of the parent and of
  /// each other.
  [[nodiscard]] Rng split(std::string_view name, std::uint64_t index = 0) const noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal() noexcept;
  /// Normal with mean/stddev.
  double normal(double mean, double stddev) noexcept;
  /// Bernoulli draw.
  bool bernoulli(double p) noexcept;

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Sample `k` distinct indices from [0, n) (k <= n), in random order.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                                    std::size_t k);

 private:
  std::uint64_t s_[4];
};

}  // namespace subfed
