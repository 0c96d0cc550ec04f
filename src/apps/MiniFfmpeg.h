//===- apps/MiniFfmpeg.h - Video filter pipeline ---------------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A video filter pipeline standing in for FFmpeg (paper Sec. 4.1): a
/// synthetic grayscale scene is decoded frame by frame, passed through a
/// blur / edge-detection / deflate filter chain, then re-encoded with a
/// delta encoder that only keeps changes relative to the previously
/// *reconstructed* frame -- precisely the inter-frame dependency the
/// paper blames for first-phase errors propagating through all 150
/// frames (Sec. 5.1.1). The outer loop enumerates frames, so its
/// iteration count is input-determined and speedup is phase-invariant.
///
/// The `filter_order` input swaps the deflate and edge-detection stages,
/// reproducing Fig. 7's control-flow-dependent QoS and giving the
/// decision-tree classifier a genuinely input-dependent control flow.
///
/// QoS metric: PSNR (higher is better), exposed to the budget interface
/// via psnrToDegradationPercent.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPS_MINIFFMPEG_H
#define OPPROX_APPS_MINIFFMPEG_H

#include "apps/ApproxApp.h"

namespace opprox {

/// FFmpeg-style filter-pipeline application. See file comment.
class MiniFfmpeg : public ApproxApp {
public:
  MiniFfmpeg();

  std::string name() const override { return "ffmpeg"; }
  const std::vector<ApproximableBlock> &blocks() const override {
    return Blocks;
  }
  std::vector<std::string> parameterNames() const override;
  std::vector<std::vector<double>> trainingInputs() const override;
  std::vector<double> defaultInput() const override;
  double qosDegradation(const RunResult &Exact,
                        const RunResult &Approx) const override;
  bool usesPsnr() const override { return true; }
  double psnrValue(const RunResult &Exact,
                   const RunResult &Approx) const override;

  enum BlockId : size_t {
    BlurFilter = 0,
    EdgeFilter = 1,
    DeflateFilter = 2,
  };

protected:
  RunResult execute(const std::vector<double> &Input,
                    const PhaseSchedule &Schedule, size_t NominalIterations,
                    const RunStart &Start) const override;

private:
  std::vector<ApproximableBlock> Blocks;
};

} // namespace opprox

#endif // OPPROX_APPS_MINIFFMPEG_H
