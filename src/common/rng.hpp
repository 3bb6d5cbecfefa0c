#pragma once
// Deterministic random number generation (PCG32). Every simulation object
// derives its stream from a root seed so runs are exactly reproducible.

#include <cstdint>

namespace ndsm {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL, std::uint64_t stream = 1);

  // Uniform 32-bit value.
  std::uint32_t next_u32();
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // True with probability p.
  bool bernoulli(double p);
  // Exponential with the given mean (> 0).
  double exponential(double mean);
  // Normal via Box-Muller.
  double normal(double mean, double stddev);

  // Derive an independent child stream (for per-node RNGs).
  Rng fork(std::uint64_t salt);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

// splitmix64: used for seed scrambling / hashing small integers.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace ndsm
