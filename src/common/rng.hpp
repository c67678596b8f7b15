#pragma once

/// @file rng.hpp
/// Deterministic random number generation for workloads and telemetry.
///
/// Every stochastic component of the twin (Poisson job arrivals — paper
/// Eq. (5) — utilization draws, sensor noise, per-day workload parameter
/// draws) pulls from an explicitly seeded Rng so that experiments are
/// bit-reproducible. Derived streams (`fork`) decorrelate subsystems while
/// keeping a single root seed.

#include <cstdint>
#include <random>
#include <string_view>

namespace exadigit {

/// A seeded random stream (mt19937_64 core) with the distribution helpers
/// the twin needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derives an independent child stream from this stream's seed and a
  /// label; deterministic in (seed, label).
  [[nodiscard]] Rng fork(std::string_view label) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential inter-arrival time with rate lambda = 1/mean, i.e. the
  /// paper's Eq. (5): tau = -ln(1 - U)/lambda.
  double exponential(double mean);

  /// Normal draw. stddev 0 returns `mean` after consuming the same engine
  /// output as any other stddev.
  double normal(double mean, double stddev);

  /// Normal draw clamped (by re-sampling, capped attempts) into [lo, hi].
  double truncated_normal(double mean, double stddev, double lo, double hi);

  /// Log-normal draw parameterised by the *target* mean/stddev of the
  /// resulting distribution (not of the underlying normal).
  double lognormal_mean_std(double mean, double stddev);

  /// Bernoulli trial.
  bool bernoulli(double p_true);

  /// Underlying engine for use with std:: distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace exadigit
