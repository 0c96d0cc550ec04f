//===- approx/CallContextLog.h - AB call-context capture -------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution log of approximable-block invocations, the runtime analogue
/// of the paper's instrumented log messages (Sec. 2, Sec. 3.3): per outer
/// iteration, the ordered sequence of ABs executed and the work each
/// performed. From it OPPROX extracts the outer-loop iteration count and
/// a control-flow signature used to classify input-dependent paths
/// (Sec. 3.4).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPROX_CALLCONTEXTLOG_H
#define OPPROX_APPROX_CALLCONTEXTLOG_H

#include <cstdint>
#include <string>
#include <vector>

namespace opprox {

/// Ordered record of AB executions grouped by outer-loop iteration.
class CallContextLog {
public:
  /// Marks the start of a new outer-loop iteration.
  void beginIteration();

  /// Records that block \p BlockId ran, charging \p WorkUnits to it.
  void recordBlock(size_t BlockId, uint64_t WorkUnits);

  size_t numIterations() const { return IterationBlocks.size(); }

  /// Blocks executed (in order) during iteration \p Iter.
  const std::vector<size_t> &blocksInIteration(size_t Iter) const;

  /// Work charged during iteration \p Iter.
  uint64_t workInIteration(size_t Iter) const;

  /// Control-flow signature: the distinct per-iteration block sequences
  /// in first-appearance order, e.g. "0,1,2,3" or "0,2,1;0,1,2". Two runs
  /// with the same signature follow the same control flow.
  std::string signature() const;

  /// The distinct per-iteration block sequences in first-appearance
  /// order, seeded prefix first: what signature() renders.
  std::vector<std::vector<size_t>> distinctSequences() const;

  /// Seeds the distinct sequences of iterations this log never saw -- a
  /// resumed run's skipped prefix -- so signature() covers the whole run
  /// while the log itself holds only the iterations executed since.
  void seedPrefix(std::vector<std::vector<size_t>> Sequences);

  /// Total work across iterations [Begin, End) -- clamped to the log.
  uint64_t workInRange(size_t Begin, size_t End) const;

  void clear();

private:
  std::vector<std::vector<size_t>> PrefixSequences;
  std::vector<std::vector<size_t>> IterationBlocks;
  std::vector<uint64_t> IterationWork;
};

} // namespace opprox

#endif // OPPROX_APPROX_CALLCONTEXTLOG_H
