//===- core/Sampler.h - AL-space sampling plans ----------------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sampling strategy of paper Sec. 3.3: exhaustively cover each block's
/// own level range while every other block stays exact (for the local
/// models), then add sparse random joint configurations (to capture
/// interactions for the overall models).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_SAMPLER_H
#define OPPROX_CORE_SAMPLER_H

#include "support/Error.h"
#include "support/Random.h"
#include <vector>

namespace opprox {

/// The configurations one profiling pass will execute.
struct SamplingPlan {
  /// One block approximated at a time, every level 1..max (exhaustive
  /// local coverage). The all-exact configuration is not included; the
  /// golden run covers it.
  std::vector<std::vector<int>> LocalConfigs;

  /// Random joint configurations with arbitrary levels in every block.
  std::vector<std::vector<int>> JointConfigs;

  /// Local followed by joint configurations. Copies every config; prefer
  /// forEach when the caller only needs to visit them.
  std::vector<std::vector<int>> all() const;

  /// Visits every configuration (local then joint) without copying.
  template <typename Fn> void forEach(Fn &&Visit) const {
    for (const std::vector<int> &Config : LocalConfigs)
      Visit(Config);
    for (const std::vector<int> &Config : JointConfigs)
      Visit(Config);
  }

  size_t size() const { return LocalConfigs.size() + JointConfigs.size(); }
};

/// Builds a plan over blocks with the given per-block maximum levels.
/// \p NumRandomJoint random joint configs are drawn via \p Rng (all-zero
/// draws are rerolled).
SamplingPlan makeSamplingPlan(const std::vector<int> &MaxLevels,
                              size_t NumRandomJoint, Rng &Rng);

/// Size of the full level cartesian product, i.e. prod(MaxLevels[b]+1).
/// Errors (instead of overflowing or exhausting memory) when the space
/// exceeds \p Limit.
Expected<size_t> configSpaceSize(const std::vector<int> &MaxLevels,
                                 size_t Limit = 2'000'000);

/// Streaming odometer over the level cartesian product, in the same
/// order as enumerateAllConfigs (block 0 is the fastest digit; all-exact
/// first). One reused levels buffer replaces materializing the whole
/// space, and the global enumeration index gives random access (seek)
/// for sharding the scan into chunks.
class ConfigCursor {
public:
  /// Positions the cursor at the all-exact configuration (index 0).
  /// Hard-fails in every build type when the space exceeds \p Limit.
  explicit ConfigCursor(std::vector<int> MaxLevels,
                        size_t Limit = 2'000'000);

  /// Total number of configurations in the space.
  size_t spaceSize() const { return Total; }

  bool done() const { return Done; }

  /// Current configuration; valid only while !done().
  const std::vector<int> &levels() const { return Current; }

  /// Zero-based position of the current configuration in enumeration
  /// order; valid only while !done().
  size_t index() const { return Position; }

  /// Advances to the next configuration in enumeration order.
  void next();

  /// Jumps to the configuration at \p Index in enumeration order; an
  /// index >= spaceSize() marks the cursor done.
  void seek(size_t Index);

private:
  std::vector<int> MaxLevels;
  std::vector<int> Current;
  /// Stride[B]: index distance between consecutive values of digit B.
  std::vector<size_t> Stride;
  size_t Total = 0;
  size_t Position = 0;
  bool Done = false;
};

/// Enumerates every level combination (cartesian product), all-exact
/// first -- the phase-agnostic oracle's search space. Hard-fails in
/// every build type when the space exceeds \p Limit configurations;
/// callers that must recover should check configSpaceSize first.
std::vector<std::vector<int>>
enumerateAllConfigs(const std::vector<int> &MaxLevels,
                    size_t Limit = 2'000'000);

} // namespace opprox

#endif // OPPROX_CORE_SAMPLER_H
