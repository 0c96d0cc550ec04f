//===- core/Sampler.cpp ---------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/Sampler.h"
#include "support/StringUtils.h"
#include <algorithm>
#include <cassert>

using namespace opprox;

std::vector<std::vector<int>> SamplingPlan::all() const {
  std::vector<std::vector<int>> Out;
  Out.reserve(size());
  Out.insert(Out.end(), LocalConfigs.begin(), LocalConfigs.end());
  Out.insert(Out.end(), JointConfigs.begin(), JointConfigs.end());
  return Out;
}

SamplingPlan opprox::makeSamplingPlan(const std::vector<int> &MaxLevels,
                                      size_t NumRandomJoint, Rng &Rng) {
  assert(!MaxLevels.empty() && "no blocks to sample");
  SamplingPlan Plan;

  for (size_t B = 0; B < MaxLevels.size(); ++B) {
    assert(MaxLevels[B] >= 1 && "block without approximation levels");
    for (int L = 1; L <= MaxLevels[B]; ++L) {
      std::vector<int> Config(MaxLevels.size(), 0);
      Config[B] = L;
      Plan.LocalConfigs.push_back(std::move(Config));
    }
  }

  for (size_t I = 0; I < NumRandomJoint; ++I) {
    std::vector<int> Config(MaxLevels.size(), 0);
    bool AllZero = true;
    do {
      AllZero = true;
      for (size_t B = 0; B < MaxLevels.size(); ++B) {
        Config[B] = static_cast<int>(Rng.range(0, MaxLevels[B]));
        AllZero = AllZero && Config[B] == 0;
      }
    } while (AllZero);
    Plan.JointConfigs.push_back(std::move(Config));
  }
  return Plan;
}

Expected<size_t> opprox::configSpaceSize(const std::vector<int> &MaxLevels,
                                         size_t Limit) {
  size_t Total = 1;
  for (size_t B = 0; B < MaxLevels.size(); ++B) {
    if (MaxLevels[B] < 0)
      return Error(format("block %zu has negative max level %d", B,
                          MaxLevels[B]));
    size_t Options = static_cast<size_t>(MaxLevels[B]) + 1;
    // Total * Options <= Limit, phrased without the overflowing product.
    if (Total > Limit / Options)
      return Error(format("configuration space exceeds the limit of %zu "
                          "configs at block %zu",
                          Limit, B));
    Total *= Options;
  }
  return Total;
}

ConfigCursor::ConfigCursor(std::vector<int> Max, size_t Limit)
    : MaxLevels(std::move(Max)), Current(MaxLevels.size(), 0),
      Stride(MaxLevels.size(), 1) {
  Expected<size_t> Size = configSpaceSize(MaxLevels, Limit);
  if (!Size)
    reportFatalError(Size.error());
  Total = *Size;
  for (size_t B = 1; B < MaxLevels.size(); ++B)
    Stride[B] =
        Stride[B - 1] * (static_cast<size_t>(MaxLevels[B - 1]) + 1);
}

void ConfigCursor::next() {
  assert(!Done && "next past the end");
  size_t B = 0;
  while (B < Current.size()) {
    if (Current[B] < MaxLevels[B]) {
      ++Current[B];
      std::fill(Current.begin(),
                Current.begin() + static_cast<std::ptrdiff_t>(B), 0);
      break;
    }
    ++B;
  }
  if (B == Current.size()) {
    Done = true;
    return;
  }
  ++Position;
}

void ConfigCursor::seek(size_t Index) {
  if (Index >= Total) {
    Done = true;
    return;
  }
  Done = false;
  Position = Index;
  for (size_t B = 0; B < Current.size(); ++B)
    Current[B] = static_cast<int>(
        Index / Stride[B] % (static_cast<size_t>(MaxLevels[B]) + 1));
}

std::vector<std::vector<int>>
opprox::enumerateAllConfigs(const std::vector<int> &MaxLevels, size_t Limit) {
  Expected<size_t> Total = configSpaceSize(MaxLevels, Limit);
  if (!Total)
    reportFatalError(Total.error());
  std::vector<std::vector<int>> Out;
  Out.reserve(*Total);
  for (ConfigCursor Cursor(MaxLevels, Limit); !Cursor.done(); Cursor.next())
    Out.push_back(Cursor.levels());
  assert(Out.size() == *Total && "enumeration miscounted");
  return Out;
}
