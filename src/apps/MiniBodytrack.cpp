//===- apps/MiniBodytrack.cpp ---------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/MiniBodytrack.h"
#include "apps/QoSMetrics.h"
#include "approx/CallContextLog.h"
#include "approx/Techniques.h"
#include "approx/WorkCounter.h"
#include "support/Random.h"
#include <algorithm>
#include <cmath>

using namespace opprox;

namespace {

constexpr size_t PoseDim = 5;     // Torso, head, two arms, two legs - 1.
constexpr size_t FeatureCells = 32;

constexpr uint64_t LikelihoodWork = 4; // Per particle per pose component.
constexpr uint64_t PerturbWork = 3;    // Per particle per pose component.
constexpr uint64_t FeatureWork = 5;    // Per image cell.
constexpr uint64_t ResampleWork = 2;   // Per particle.

/// Ground-truth pose component K at time T: smooth periodic motion with
/// per-component amplitude and frequency. Components are ordered by
/// magnitude so the weighted QoS metric emphasizes the torso.
double truePose(size_t K, double T) {
  double Amplitude = 4.0 / (1.0 + static_cast<double>(K));
  double Frequency = 1.0 + 0.7 * static_cast<double>(K);
  double Offset = 2.0 + static_cast<double>(PoseDim - K);
  return Offset + Amplitude * std::sin(Frequency * T + 0.3 * static_cast<double>(K));
}

/// Loop-carried state of the (frame, annealing layer) loop: the particle
/// population with its weights, and the current frame's observation
/// (extracted in the frame's first layer, read by every later one).
struct TrackState {
  std::vector<std::vector<double>> Particles;
  std::vector<double> Weights;
  std::vector<double> Observation;
};

/// A particle population initialized around the first true pose.
TrackState initialState(size_t NumParticles, Rng &InitRng) {
  TrackState S;
  S.Particles.assign(NumParticles, std::vector<double>(PoseDim, 0.0));
  S.Weights.assign(NumParticles, 1.0);
  S.Observation.assign(PoseDim, 0.0);
  for (size_t P = 0; P < NumParticles; ++P)
    for (size_t K = 0; K < PoseDim; ++K)
      S.Particles[P][K] = truePose(K, 0.0) + 0.5 * InitRng.gaussian();
  return S;
}

} // namespace

MiniBodytrack::MiniBodytrack() {
  Blocks = {
      {"likelihood_eval", ApproxTechniqueKind::LoopPerforation, 5},
      {"particle_perturb", ApproxTechniqueKind::LoopPerforation, 5},
      {"feature_extract", ApproxTechniqueKind::LoopPerforation, 5},
      {"min_particles", ApproxTechniqueKind::ParameterTuning, 5},
  };
}

std::vector<std::string> MiniBodytrack::parameterNames() const {
  return {"annealing_layers", "num_particles", "num_frames"};
}

std::vector<std::vector<double>> MiniBodytrack::trainingInputs() const {
  return {{3, 96, 10}, {3, 160, 14}, {4, 96, 14}, {4, 160, 10},
          {5, 128, 12}};
}

std::vector<double> MiniBodytrack::defaultInput() const {
  return {4, 128, 12};
}

RunResult MiniBodytrack::execute(const std::vector<double> &Input,
                                 const PhaseSchedule &Schedule,
                                 size_t NominalIterations,
                                 const RunStart &Start) const {
  assert(Input.size() == 3 &&
         "bodytrack expects [annealing_layers, num_particles, num_frames]");
  assert(Schedule.numBlocks() == Blocks.size() && "block count mismatch");
  size_t Layers = static_cast<size_t>(Input[0]);
  size_t NumParticles = static_cast<size_t>(Input[1]);
  size_t Frames = static_cast<size_t>(Input[2]);
  assert(Layers >= 1 && NumParticles >= 8 && Frames >= 1 &&
         "degenerate configuration");
  size_t TotalIterations = Frames * Layers;

  // Deterministic streams: one for observation noise, one for particle
  // dynamics, both keyed by the input so trajectories are reproducible.
  uint64_t Seed = 0xB0D7ULL ^ (Layers * 2654435761ULL) ^
                  (NumParticles * 40503ULL) ^ (Frames * 69069ULL);
  Rng InitRng(Seed);
  // Counter-based noise: hashing (seed, iteration, entity, salt) keeps
  // every random draw identical no matter which loop iterations a
  // perforated kernel skips, so QoS differences reflect dynamics, not a
  // shifted random stream.
  auto HashNormal = [Seed](uint64_t A, uint64_t B, uint64_t Salt) {
    uint64_t X = Seed ^ (A * 0x9e3779b97f4a7c15ULL) ^
                 (B * 0xbf58476d1ce4e5b9ULL) ^ (Salt * 0x94d049bb133111ebULL);
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ULL;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebULL;
    X ^= X >> 31;
    double U1 = std::max(
        static_cast<double>(X >> 11) * 0x1.0p-53, 1e-300);
    uint64_t Y = X * 0xd1b54a32d192ed03ULL + 0x9e3779b97f4a7c15ULL;
    Y ^= Y >> 29;
    double U2 = static_cast<double>(Y >> 11) * 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(U1)) * std::cos(6.283185307179586 * U2);
  };

  // The outer loop runs over (frame, annealing layer) pairs, frame-major.
  ResumableLoop<TrackState> Loop(Start, TotalIterations);
  TrackState S = Loop.resumedState() ? *Loop.resumedState()
                                     : initialState(NumParticles, InitRng);
  std::vector<std::vector<double>> &Particles = S.Particles;
  std::vector<double> &Weights = S.Weights, &Observation = S.Observation;

  WorkCounter &WC = Loop.WC;
  CallContextLog &Log = Loop.Log;
  PhaseMap PM(NominalIterations ? NominalIterations : TotalIterations,
              Schedule.numPhases());

  std::vector<double> Estimates; // Frames x PoseDim.
  Estimates.reserve(Frames * PoseDim);
  // Estimates of frames finished before the resume point are the exact
  // run's.
  if (const RunResult *Exact = Loop.exact())
    Estimates.assign(Exact->Output.begin(),
                     Exact->Output.begin() +
                         static_cast<std::ptrdiff_t>(
                             Loop.firstIteration() / Layers * PoseDim));

  size_t Iter = Loop.firstIteration();
  for (; Iter < TotalIterations; ++Iter) {
    size_t Frame = Iter / Layers;
    size_t Layer = Iter % Layers;
    double T = 0.2 * static_cast<double>(Frame);
    Loop.atIteration(Iter, S);
    Log.beginIteration();
    size_t Phase = PM.phaseOf(Iter);

    // Annealing temperature: later layers peak the likelihood. The
    // base is deliberately soft -- a broad likelihood makes the filter
    // lean on temporal continuity, so a corrupted population takes
    // several frames to re-acquire the target (early-phase errors
    // cascade, Fig. 9c).
    double Beta =
        0.15 * std::pow(2.0, static_cast<double>(Layer));

    // --- feature_extract (perforation over image cells) ------------
    if (Layer == 0) {
      int Level = Schedule.level(Phase, FeatureExtract);
      uint64_t Mark = WC.total();
      // Each cell contributes a noisy vote per pose component; the
      // observation is the average of processed cells. Skipping cells
      // coarsens the observation.
      std::vector<double> Acc(PoseDim, 0.0);
      size_t Used = 0;
      perforatedLoop(FeatureCells, Level, [&](size_t Cell) {
        for (size_t K = 0; K < PoseDim; ++K) {
          // Each cell has a fixed calibration offset plus per-frame
          // noise. Averaging over *all* cells cancels the offsets;
          // perforation averages a subset, leaving a systematic bias
          // that drags the observation -- and with it the particle
          // population -- off target for the whole phase.
          double CellBias = 1.6 * HashNormal(Cell, K, 23);
          double FrameNoise = 0.4 * HashNormal(Frame * 100 + Cell, K, 11);
          Acc[K] += truePose(K, T) + CellBias + FrameNoise;
        }
        ++Used;
        WC.add(FeatureWork);
      });
      for (size_t K = 0; K < PoseDim; ++K)
        Observation[K] = Acc[K] / static_cast<double>(Used);
      Log.recordBlock(FeatureExtract, WC.since(Mark));
    }

    // --- min_particles knob (parameter tuning) ----------------------
    // Higher levels shrink the active particle set, reducing all
    // downstream work at the cost of tracking robustness.
    size_t ActiveParticles = tunedParameter(
        NumParticles, Schedule.level(Phase, MinParticlesKnob));

    // --- particle_perturb (perforation) -----------------------------
    {
      int Level = Schedule.level(Phase, ParticlePerturb);
      uint64_t Mark = WC.total();
      double Spread = 0.18 / std::sqrt(Beta);
      perforatedLoop(ActiveParticles, Level, [&](size_t P) {
        for (size_t K = 0; K < PoseDim; ++K) {
          Particles[P][K] += Spread * HashNormal(Iter, P, K + 17);
          WC.add(PerturbWork);
        }
      });
      Log.recordBlock(ParticlePerturb, WC.since(Mark));
    }

    // --- likelihood_eval (perforation) -------------------------------
    {
      int Level = Schedule.level(Phase, LikelihoodEval);
      uint64_t Mark = WC.total();
      // Perforated particles keep their stale weight.
      perforatedLoop(ActiveParticles, Level, [&](size_t P) {
        double Err2 = 0.0;
        for (size_t K = 0; K < PoseDim; ++K) {
          double D = Particles[P][K] - Observation[K];
          Err2 += D * D;
          WC.add(LikelihoodWork);
        }
        Weights[P] = std::exp(-Beta * Err2);
      });
      Log.recordBlock(LikelihoodEval, WC.since(Mark));
    }

    // --- systematic resampling (exact epilogue) ----------------------
    {
      double WeightSum = 0.0;
      for (size_t P = 0; P < ActiveParticles; ++P)
        WeightSum += Weights[P];
      if (WeightSum > 1e-300) {
        std::vector<std::vector<double>> Resampled;
        Resampled.reserve(ActiveParticles);
        double Step = WeightSum / static_cast<double>(ActiveParticles);
        double Position = 0.5 * Step;
        double Cumulative = Weights[0];
        size_t Src = 0;
        for (size_t P = 0; P < ActiveParticles; ++P) {
          while (Cumulative < Position && Src + 1 < ActiveParticles)
            Cumulative += Weights[++Src];
          Resampled.push_back(Particles[Src]);
          Position += Step;
          WC.add(ResampleWork);
        }
        for (size_t P = 0; P < ActiveParticles; ++P)
          Particles[P] = Resampled[P];
      }
    }

    // Frame estimate after the frame's last layer: mean of the
    // (resampled, hence equal-weight) particle population.
    if (Layer + 1 == Layers) {
      for (size_t K = 0; K < PoseDim; ++K) {
        double Sum = 0.0;
        for (size_t P = 0; P < NumParticles; ++P)
          Sum += Particles[P][K];
        Estimates.push_back(Sum / static_cast<double>(NumParticles));
      }
    }
  }

  RunResult R;
  R.Output = std::move(Estimates);
  Loop.finish(R, Iter);
  return R;
}

double MiniBodytrack::qosDegradation(const RunResult &Exact,
                                     const RunResult &Approx) const {
  return weightedDistortionPercent(Exact.Output, Approx.Output);
}
