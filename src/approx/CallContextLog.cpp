//===- approx/CallContextLog.cpp ------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "approx/CallContextLog.h"
#include "support/StringUtils.h"
#include <algorithm>
#include <cassert>

using namespace opprox;

void CallContextLog::beginIteration() {
  IterationBlocks.emplace_back();
  IterationWork.push_back(0);
}

void CallContextLog::recordBlock(size_t BlockId, uint64_t WorkUnits) {
  assert(!IterationBlocks.empty() && "recordBlock before beginIteration");
  IterationBlocks.back().push_back(BlockId);
  IterationWork.back() += WorkUnits;
}

const std::vector<size_t> &
CallContextLog::blocksInIteration(size_t Iter) const {
  assert(Iter < IterationBlocks.size() && "iteration out of range");
  return IterationBlocks[Iter];
}

uint64_t CallContextLog::workInIteration(size_t Iter) const {
  assert(Iter < IterationWork.size() && "iteration out of range");
  return IterationWork[Iter];
}

std::string CallContextLog::signature() const {
  std::vector<std::string> Rendered;
  for (const std::vector<size_t> &Blocks : distinctSequences()) {
    std::string Seq;
    for (size_t B : Blocks) {
      if (!Seq.empty())
        Seq += ",";
      Seq += format("%zu", B);
    }
    Rendered.push_back(std::move(Seq));
  }
  return join(Rendered, ";");
}

std::vector<std::vector<size_t>> CallContextLog::distinctSequences() const {
  std::vector<std::vector<size_t>> Distinct = PrefixSequences;
  for (const std::vector<size_t> &Blocks : IterationBlocks)
    if (std::find(Distinct.begin(), Distinct.end(), Blocks) == Distinct.end())
      Distinct.push_back(Blocks);
  return Distinct;
}

void CallContextLog::seedPrefix(std::vector<std::vector<size_t>> Sequences) {
  assert(IterationBlocks.empty() && "seed the prefix before logging");
  PrefixSequences = std::move(Sequences);
}

uint64_t CallContextLog::workInRange(size_t Begin, size_t End) const {
  End = std::min(End, IterationWork.size());
  uint64_t Sum = 0;
  for (size_t I = Begin; I < End; ++I)
    Sum += IterationWork[I];
  return Sum;
}

void CallContextLog::clear() {
  PrefixSequences.clear();
  IterationBlocks.clear();
  IterationWork.clear();
}
