//===- apps/MiniFfmpeg.cpp ------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/MiniFfmpeg.h"
#include "apps/QoSMetrics.h"
#include "approx/CallContextLog.h"
#include "approx/Techniques.h"
#include "approx/WorkCounter.h"
#include <algorithm>
#include <cmath>

using namespace opprox;

namespace {

constexpr size_t Width = 48;
constexpr size_t Height = 32;
constexpr double Peak = 255.0;

constexpr uint64_t DecodeWork = 2;  // Per pixel.
constexpr uint64_t BlurWork = 9;    // 3x3 kernel per pixel.
constexpr uint64_t EdgeWork = 8;    // Sobel per pixel.
constexpr uint64_t DeflateWork = 5; // Morphological min per pixel.
constexpr uint64_t EncodeWork = 3;  // Per pixel.

using Frame = std::vector<double>; // Height * Width, row-major.

double &pixel(Frame &F, size_t Row, size_t Col) {
  return F[Row * Width + Col];
}
double pixelAt(const Frame &F, size_t Row, size_t Col) {
  return F[Row * Width + Col];
}

/// Synthetic scene: a moving bright box over a drifting sinusoidal
/// texture. Deterministic in (frame index, total frames).
Frame decodeFrame(size_t FrameIdx, size_t TotalFrames) {
  Frame F(Width * Height);
  double T = static_cast<double>(FrameIdx) /
             static_cast<double>(std::max<size_t>(TotalFrames, 1));
  size_t BoxCol = static_cast<size_t>(T * static_cast<double>(Width - 12));
  size_t BoxRow = static_cast<size_t>(
      (0.5 + 0.4 * std::sin(6.28318 * T)) * static_cast<double>(Height - 10));
  // The texture sin(0.5 C + 8T) * cos(0.4 R - 5T) is separable: one sine
  // per column and one cosine per row instead of one of each per pixel.
  double SinC[Width], CosR[Height];
  for (size_t C = 0; C < Width; ++C)
    SinC[C] = std::sin(0.5 * static_cast<double>(C) + 8.0 * T);
  for (size_t R = 0; R < Height; ++R)
    CosR[R] = std::cos(0.4 * static_cast<double>(R) - 5.0 * T);
  for (size_t R = 0; R < Height; ++R) {
    for (size_t C = 0; C < Width; ++C) {
      double Texture = 96.0 + 64.0 * SinC[C] * CosR[R];
      bool InBox = R >= BoxRow && R < BoxRow + 10 && C >= BoxCol &&
                   C < BoxCol + 12;
      pixel(F, R, C) = InBox ? 230.0 : Texture;
    }
  }
  return F;
}

/// 3x3 box blur with clamped borders; perforation skips rows, which copy
/// the previously blurred row.
Frame blurFilter(const Frame &In, int Level, WorkCounter &WC) {
  Frame Out(Width * Height, 0.0);
  size_t LastDone = 0;
  perforatedLoop(Height, Level, [&](size_t R) {
    for (size_t C = 0; C < Width; ++C) {
      double Sum = 0.0;
      for (int DR = -1; DR <= 1; ++DR) {
        for (int DC = -1; DC <= 1; ++DC) {
          size_t RR = std::min<size_t>(
              Height - 1,
              static_cast<size_t>(std::max<long>(
                  0, static_cast<long>(R) + DR)));
          size_t CC = std::min<size_t>(
              Width - 1, static_cast<size_t>(std::max<long>(
                             0, static_cast<long>(C) + DC)));
          Sum += pixelAt(In, RR, CC);
        }
      }
      pixel(Out, R, C) = Sum / 9.0;
      WC.add(BlurWork);
    }
    // Backfill rows skipped since the last executed row.
    for (size_t Fill = LastDone + 1; Fill < R; ++Fill)
      for (size_t C = 0; C < Width; ++C)
        pixel(Out, Fill, C) = pixelAt(Out, R, C);
    LastDone = R;
  });
  // Rows after the last executed row reuse it.
  for (size_t Fill = LastDone + 1; Fill < Height; ++Fill)
    for (size_t C = 0; C < Width; ++C)
      pixel(Out, Fill, C) = pixelAt(Out, LastDone, C);
  return Out;
}

/// Sobel edge magnitude blended over the input; perforation skips rows
/// (copied from the nearest processed row).
Frame edgeFilter(const Frame &In, int Level, WorkCounter &WC) {
  Frame Out = In;
  size_t LastDone = 0;
  perforatedLoop(Height, Level, [&](size_t R) {
    for (size_t C = 0; C < Width; ++C) {
      size_t RU = R > 0 ? R - 1 : 0, RD = std::min(R + 1, Height - 1);
      size_t CL = C > 0 ? C - 1 : 0, CR = std::min(C + 1, Width - 1);
      double GX = pixelAt(In, R, CR) - pixelAt(In, R, CL);
      double GY = pixelAt(In, RD, C) - pixelAt(In, RU, C);
      double Magnitude = std::sqrt(GX * GX + GY * GY);
      pixel(Out, R, C) =
          std::min(Peak, 0.6 * pixelAt(In, R, C) + 1.2 * Magnitude);
      WC.add(EdgeWork);
    }
    for (size_t Fill = LastDone + 1; Fill < R; ++Fill)
      for (size_t C = 0; C < Width; ++C)
        pixel(Out, Fill, C) = pixelAt(Out, R, C);
    LastDone = R;
  });
  for (size_t Fill = LastDone + 1; Fill < Height; ++Fill)
    for (size_t C = 0; C < Width; ++C)
      pixel(Out, Fill, C) = pixelAt(Out, LastDone, C);
  return Out;
}

/// Deflate (morphological erosion: 3x3 minimum). Memoization computes
/// the true minimum every (Level+1)-th row band and reuses the cached
/// row's values for the rows in between.
Frame deflateFilter(const Frame &In, int Level, WorkCounter &WC) {
  Frame Out = In;
  std::vector<double> CachedRow(Width, 0.0);
  memoizedLoop<int>(
      Height, Level,
      [&](size_t R) {
        for (size_t C = 0; C < Width; ++C) {
          double Min = 1e30;
          size_t RU = R > 0 ? R - 1 : 0, RD = std::min(R + 1, Height - 1);
          size_t CL = C > 0 ? C - 1 : 0, CR = std::min(C + 1, Width - 1);
          for (size_t RR = RU; RR <= RD; ++RR)
            for (size_t CC = CL; CC <= CR; ++CC)
              Min = std::min(Min, pixelAt(In, RR, CC));
          pixel(Out, R, C) = Min;
          CachedRow[C] = Min;
          WC.add(DeflateWork);
        }
        return 0;
      },
      [&](size_t R, int) {
        for (size_t C = 0; C < Width; ++C)
          pixel(Out, R, C) = CachedRow[C];
      });
  return Out;
}

/// Loop-carried state of the frame loop: the encoder's reference frame.
/// The other carried frame, the reconstruction, is the last frame the
/// loop emitted, so a resumed run re-reads it from the exact output.
struct FfmpegState {
  Frame PreviousFiltered = Frame(Width * Height, 0.0);
};

} // namespace

MiniFfmpeg::MiniFfmpeg() {
  Blocks = {
      {"blur", ApproxTechniqueKind::LoopPerforation, 5},
      {"edge_detect", ApproxTechniqueKind::LoopPerforation, 5},
      {"deflate", ApproxTechniqueKind::Memoization, 5},
  };
}

std::vector<std::string> MiniFfmpeg::parameterNames() const {
  return {"fps", "duration", "bitrate", "filter_order"};
}

std::vector<std::vector<double>> MiniFfmpeg::trainingInputs() const {
  // fps, duration (s), bitrate (quantizer), filter order (0/1).
  return {{15, 4, 4, 0}, {15, 4, 4, 1}, {30, 5, 4, 0}, {30, 5, 4, 1},
          {30, 3, 8, 0}, {30, 3, 8, 1}};
}

std::vector<double> MiniFfmpeg::defaultInput() const {
  // 150 frames, as in the paper's experiment.
  return {30, 5, 4, 0};
}

RunResult MiniFfmpeg::execute(const std::vector<double> &Input,
                              const PhaseSchedule &Schedule,
                              size_t NominalIterations,
                              const RunStart &Start) const {
  assert(Input.size() == 4 &&
         "ffmpeg expects [fps, duration, bitrate, filter_order]");
  assert(Schedule.numBlocks() == Blocks.size() && "block count mismatch");
  size_t Fps = static_cast<size_t>(Input[0]);
  size_t Duration = static_cast<size_t>(Input[1]);
  double Bitrate = Input[2];
  bool DeflateFirst = Input[3] < 0.5;
  size_t Frames = Fps * Duration;
  assert(Frames > 0 && "empty video");
  // Coarse dead-zone quantization: filtered-value changes below the step
  // are never re-sent, so approximation errors smaller than the step
  // persist in the reconstruction until the content moves -- the
  // inter-frame propagation behind Fig. 9d.
  double QuantStep = std::max(2.0, 48.0 / Bitrate);

  ResumableLoop<FfmpegState> Loop(Start, Frames);
  FfmpegState S = Loop.resumedState() ? *Loop.resumedState() : FfmpegState();
  Frame &PreviousFiltered = S.PreviousFiltered;
  Frame Reconstructed(Width * Height, 0.0);

  WorkCounter &WC = Loop.WC;
  CallContextLog &Log = Loop.Log;
  PhaseMap PM(NominalIterations ? NominalIterations : Frames,
              Schedule.numPhases());

  RunResult R;
  R.Output.reserve(Frames * Width * Height);
  // Frames before the resume point are the exact run's; the last of them
  // is the reconstruction the next frame's deltas apply to.
  if (const RunResult *Exact = Loop.exact()) {
    auto PrefixEnd = Exact->Output.begin() +
                     static_cast<std::ptrdiff_t>(Loop.firstIteration() *
                                                 Width * Height);
    R.Output.assign(Exact->Output.begin(), PrefixEnd);
    Reconstructed.assign(PrefixEnd - Width * Height, PrefixEnd);
  }

  for (size_t FrameIdx = Loop.firstIteration(); FrameIdx < Frames;
       ++FrameIdx) {
    Loop.atIteration(FrameIdx, S);
    Log.beginIteration();
    size_t Phase = PM.phaseOf(FrameIdx);

    Frame Raw = decodeFrame(FrameIdx, Frames);
    WC.add(DecodeWork * Width * Height);

    uint64_t Mark = WC.total();
    Frame Blurred = blurFilter(Raw, Schedule.level(Phase, BlurFilter), WC);
    Log.recordBlock(BlurFilter, WC.since(Mark));

    // Filter order is an input parameter: deflate->edge vs edge->deflate
    // (Fig. 7). The call-context log captures the difference.
    Frame Filtered;
    if (DeflateFirst) {
      Mark = WC.total();
      Frame Deflated =
          deflateFilter(Blurred, Schedule.level(Phase, DeflateFilter), WC);
      Log.recordBlock(DeflateFilter, WC.since(Mark));
      Mark = WC.total();
      Filtered = edgeFilter(Deflated, Schedule.level(Phase, EdgeFilter), WC);
      Log.recordBlock(EdgeFilter, WC.since(Mark));
    } else {
      Mark = WC.total();
      Frame Edged = edgeFilter(Blurred, Schedule.level(Phase, EdgeFilter), WC);
      Log.recordBlock(EdgeFilter, WC.since(Mark));
      Mark = WC.total();
      Filtered =
          deflateFilter(Edged, Schedule.level(Phase, DeflateFilter), WC);
      Log.recordBlock(DeflateFilter, WC.since(Mark));
    }

    // Open-loop DPCM encoder: each frame transmits the quantized change
    // relative to the previous *filtered* frame, with a dead zone --
    // sub-threshold changes are dropped and never corrected, so any
    // reconstruction offset accumulated while a phase was approximated
    // persists through every remaining frame (the paper's Sec. 5.1.1
    // explanation: "the second encoded frame only keeps the information
    // relative to the first").
    for (size_t P = 0; P < Width * Height; ++P) {
      if (FrameIdx == 0) {
        Reconstructed[P] = QuantStep * std::round(Filtered[P] / QuantStep);
      } else {
        double Delta = Filtered[P] - PreviousFiltered[P];
        if (std::fabs(Delta) >= QuantStep)
          Reconstructed[P] += QuantStep * std::round(Delta / QuantStep);
      }
      Reconstructed[P] = std::clamp(Reconstructed[P], 0.0, Peak);
      PreviousFiltered[P] = Filtered[P];
      WC.add(EncodeWork);
    }
    R.Output.insert(R.Output.end(), Reconstructed.begin(),
                    Reconstructed.end());
  }

  Loop.finish(R, Frames);
  return R;
}

double MiniFfmpeg::qosDegradation(const RunResult &Exact,
                                  const RunResult &Approx) const {
  return psnrToDegradationPercent(psnrValue(Exact, Approx));
}

double MiniFfmpeg::psnrValue(const RunResult &Exact,
                             const RunResult &Approx) const {
  return psnr(Exact.Output, Approx.Output, Peak);
}
