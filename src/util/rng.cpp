#include "util/rng.h"

#include <cmath>
#include <numbers>
#include <unordered_map>

#include "util/check.h"

namespace subfed {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_name(std::string_view name) noexcept {
  // FNV-1a over the bytes, then one splitmix round to spread low-entropy names.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return splitmix64(h);
}

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  for (auto& word : s_) word = splitmix64(seed);
  // xoshiro must not start in the all-zero state; splitmix of any seed cannot
  // produce four zero words, but guard anyway for safety.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::from_state(const std::array<std::uint64_t, 4>& state) {
  SUBFEDAVG_CHECK((state[0] | state[1] | state[2] | state[3]) != 0,
                  "all-zero random engine state");
  Rng rng;
  for (std::size_t i = 0; i < 4; ++i) rng.s_[i] = state[i];
  return rng;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::split(std::string_view name, std::uint64_t index) const noexcept {
  // Mix the current state (not advanced) with the stream key. Copy state so a
  // parent can hand out many children without perturbing its own sequence.
  std::uint64_t key = hash_name(name) ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  std::uint64_t mix = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 43);
  std::uint64_t seed = mix ^ key;
  return Rng(splitmix64(seed));
}

double Rng::uniform() noexcept {
  // 53 random bits into the mantissa: uniform over [0,1) with full precision.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t x = (*this)();
  while (x >= limit) x = (*this)();
  return x % n;
}

double Rng::normal() noexcept {
  // Box–Muller; regenerate u1 until nonzero so log() is finite.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  SUBFEDAVG_CHECK(k <= n, "cannot sample " << k << " from " << n);
  // Partial Fisher–Yates over a *virtual* identity array: only displaced
  // entries are stored, so memory is O(k) instead of O(n) — sampling 100
  // participants from a 10^6-client population costs a 100-entry map, not an
  // 8 MB scratch vector per round. Draw sequence and results are identical
  // to the dense version.
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(2 * k);
  const auto value_at = [&](std::size_t pos) {
    const auto it = displaced.find(pos);
    return it == displaced.end() ? pos : it->second;
  };
  std::vector<std::size_t> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_index(n - i));
    out[i] = value_at(j);
    displaced[j] = value_at(i);
  }
  return out;
}

}  // namespace subfed
