//===- support/Random.h - Deterministic pseudo-random numbers --*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable PRNG used everywhere randomness is needed:
/// training-sample selection, synthetic workload generation, k-fold
/// shuffling. Xoshiro256** seeded through SplitMix64, so two Rng objects
/// with the same seed produce identical streams on every platform --
/// std::mt19937 distributions are not portable across standard libraries.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_SUPPORT_RANDOM_H
#define OPPROX_SUPPORT_RANDOM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace opprox {

/// Deterministic random number generator (xoshiro256**).
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [Lo, Hi).
  double uniform(double Lo, double Hi);

  /// Uniform integer in [0, Bound). \p Bound must be positive. Uses
  /// rejection sampling, so the result is unbiased.
  uint64_t below(uint64_t Bound);

  /// Uniform integer in the inclusive range [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);

  /// Standard normal deviate (Box-Muller; caches the spare value).
  double gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double Mean, double Stddev);

  /// True with probability \p P.
  bool chance(double P) { return uniform() < P; }

  /// Fisher-Yates shuffle of \p Values.
  template <typename T> void shuffle(std::vector<T> &Values) {
    for (size_t I = Values.size(); I > 1; --I) {
      size_t J = static_cast<size_t>(below(I));
      std::swap(Values[I - 1], Values[J]);
    }
  }

  /// A derived generator whose stream is independent of this one. Useful
  /// for handing each subsystem its own reproducible stream.
  Rng split();

private:
  uint64_t State[4];
  double SpareGaussian = 0.0;
  bool HasSpareGaussian = false;
};

/// Derives an independent seed from \p Base and up to two stream
/// identifiers by SplitMix64-style mixing. This is how parallel code
/// hands every task its own reproducible RNG stream without any task
/// observing another's consumption: seed(task) depends only on
/// (Base, Stream, Substream), never on execution order or worker count.
/// Established derivations (docs/ARCHITECTURE.md, "Determinism
/// contract"):
///  - ModelBuilder::build: deriveSeed(ModelBuildOptions::Seed, ClassId,
///    Phase) seeds the (control-flow class, phase) model-fit task.
/// Profiler::collect does not derive per-input seeds: it draws every
/// input's sampling plan from one Rng(ProfileOptions::Seed), in input
/// order, before the sweep starts.
uint64_t deriveSeed(uint64_t Base, uint64_t Stream, uint64_t Substream = 0);

} // namespace opprox

#endif // OPPROX_SUPPORT_RANDOM_H
