//===- apps/Pso.cpp -------------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/Pso.h"
#include "apps/QoSMetrics.h"
#include "approx/CallContextLog.h"
#include "approx/Techniques.h"
#include "approx/WorkCounter.h"
#include "support/Random.h"
#include <algorithm>
#include <cmath>

using namespace opprox;

namespace {

constexpr size_t MaxIterations = 400;
// A lenient stagnation detector is what makes PSO's convergence loop
// vulnerable to premature convergence under stale fitness -- the
// phase-dependent speedup/error behaviour of Figs. 9b/10b.
constexpr size_t StagnationPatience = 12;
constexpr double StagnationTolerance = 2e-4;
constexpr double Inertia = 0.72;
constexpr double CognitiveCoeff = 1.49;
constexpr double SocialCoeff = 1.49;
constexpr double DomainHalfWidth = 2.0;

constexpr uint64_t FitnessWork = 4;  // Per dimension.
constexpr uint64_t VelocityWork = 3; // Per dimension.
constexpr uint64_t PositionWork = 1; // Per dimension.

/// Rosenbrock function; global minimum 0 at (1, ..., 1).
double rosenbrock(const std::vector<double> &X, WorkCounter &WC) {
  double Sum = 0.0;
  for (size_t D = 0; D + 1 < X.size(); ++D) {
    double A = X[D + 1] - X[D] * X[D];
    double B = 1.0 - X[D];
    Sum += 100.0 * A * A + B * B;
  }
  WC.add(FitnessWork * X.size());
  return Sum;
}

/// Counter-based uniform in [0, 1): hashing (iteration, particle, salt)
/// keeps the stochastic coefficients identical no matter which particles
/// a perforated loop skips, so approximation changes *coverage*, not the
/// random sequence.
double hashUniform(uint64_t Iter, uint64_t Particle, uint64_t Salt) {
  uint64_t X = Iter * 0x9e3779b97f4a7c15ULL ^ Particle * 0xbf58476d1ce4e5b9ULL ^
               Salt * 0x94d049bb133111ebULL;
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return static_cast<double>(X >> 11) * 0x1.0p-53;
}

/// Loop-carried state of the swarm loop, including the convergence
/// detector and the global-best trajectory the output samples.
struct SwarmState {
  std::vector<std::vector<double>> Pos, Vel, BestPos;
  std::vector<double> Fitness, BestFitness;
  size_t GlobalBest = 0;
  double PreviousBest = 0.0;
  size_t StagnantStreak = 0;
  /// Global-best fitness after each iteration.
  std::vector<double> BestHistory;
};

/// Mean log personal-best fitness, the quantity convergence watches.
double meanBest(const std::vector<double> &BestFitness) {
  double Sum = 0.0;
  for (double F : BestFitness)
    Sum += std::log1p(F);
  return Sum / static_cast<double>(BestFitness.size());
}

/// A uniformly scattered swarm keyed by the input, evaluated once.
SwarmState initialState(size_t Swarm, size_t Dim, WorkCounter &WC) {
  Rng InitRng(0x9050ULL ^ (Swarm * 2654435761ULL) ^ (Dim * 40503ULL));
  SwarmState S;
  S.Pos.assign(Swarm, std::vector<double>(Dim));
  S.Vel.assign(Swarm, std::vector<double>(Dim, 0.0));
  S.BestPos.resize(Swarm);
  S.Fitness.assign(Swarm, 0.0);
  S.BestFitness.assign(Swarm, 1e30);
  for (size_t P = 0; P < Swarm; ++P) {
    for (size_t D = 0; D < Dim; ++D)
      S.Pos[P][D] = InitRng.uniform(-DomainHalfWidth, DomainHalfWidth);
    S.Fitness[P] = rosenbrock(S.Pos[P], WC);
    S.BestPos[P] = S.Pos[P];
    S.BestFitness[P] = S.Fitness[P];
  }
  for (size_t P = 1; P < Swarm; ++P)
    if (S.BestFitness[P] < S.BestFitness[S.GlobalBest])
      S.GlobalBest = P;
  S.PreviousBest = meanBest(S.BestFitness);
  return S;
}

} // namespace

Pso::Pso() {
  Blocks = {
      {"fitness_eval", ApproxTechniqueKind::LoopPerforation, 5},
      {"velocity_update", ApproxTechniqueKind::Memoization, 5},
      {"position_update", ApproxTechniqueKind::LoopPerforation, 5},
  };
}

std::vector<std::string> Pso::parameterNames() const {
  return {"swarm_size", "dimension"};
}

std::vector<std::vector<double>> Pso::trainingInputs() const {
  return {{30, 5}, {30, 8}, {45, 6}, {60, 5}, {60, 8}};
}

std::vector<double> Pso::defaultInput() const { return {45, 6}; }

RunResult Pso::execute(const std::vector<double> &Input,
                       const PhaseSchedule &Schedule,
                       size_t NominalIterations,
                       const RunStart &Start) const {
  assert(Input.size() == 2 && "pso expects [swarm_size, dimension]");
  assert(Schedule.numBlocks() == Blocks.size() && "block count mismatch");
  size_t Swarm = static_cast<size_t>(Input[0]);
  size_t Dim = static_cast<size_t>(Input[1]);
  assert(Swarm >= 4 && Dim >= 2 && "degenerate swarm");

  // The iteration count depends on convergence, so it is not fixed.
  ResumableLoop<SwarmState> Loop(Start, 0);
  WorkCounter &WC = Loop.WC;
  CallContextLog &Log = Loop.Log;
  SwarmState S = Loop.resumedState() ? *Loop.resumedState()
                                     : initialState(Swarm, Dim, WC);
  std::vector<std::vector<double>> &Pos = S.Pos, &Vel = S.Vel,
                                   &BestPos = S.BestPos;
  std::vector<double> &Fitness = S.Fitness, &BestFitness = S.BestFitness;
  size_t &GlobalBest = S.GlobalBest;
  double &PreviousBest = S.PreviousBest;
  size_t &StagnantStreak = S.StagnantStreak;
  std::vector<double> &BestHistory = S.BestHistory;

  PhaseMap PM(NominalIterations ? NominalIterations : MaxIterations,
              Schedule.numPhases());

  // Convergence watches the *mean* personal-best fitness: when most of
  // the swarm stops improving (because it converged -- or because
  // perforation froze its fitness), the loop terminates. This is the
  // premature-convergence hazard that makes early-phase approximation so
  // profitable and so dangerous (Figs. 9b/10b). The QoS compares runs by
  // their global-best convergence curves (BestHistory).
  size_t Iter = Loop.firstIteration();
  while (Iter < MaxIterations && StagnantStreak < StagnationPatience) {
    Loop.atIteration(Iter, S);
    Log.beginIteration();
    size_t Phase = PM.phaseOf(Iter);

    // --- velocity_update (memoization of stochastic coefficients) -----
    {
      int Level = Schedule.level(Phase, VelocityUpdate);
      uint64_t Mark = WC.total();
      struct CoeffPair {
        double R1 = 0.5, R2 = 0.5;
      };
      memoizedLoop<CoeffPair>(
          Swarm, Level,
          [&](size_t P) {
            CoeffPair C;
            C.R1 = hashUniform(Iter, P, 1);
            C.R2 = hashUniform(Iter, P, 2);
            for (size_t D = 0; D < Dim; ++D) {
              Vel[P][D] = Inertia * Vel[P][D] +
                          CognitiveCoeff * C.R1 * (BestPos[P][D] - Pos[P][D]) +
                          SocialCoeff * C.R2 *
                              (BestPos[GlobalBest][D] - Pos[P][D]);
              WC.add(VelocityWork);
            }
            return C;
          },
          [&](size_t P, const CoeffPair &C) {
            // Reused coefficients: cheaper, but particles move in
            // lockstep, draining swarm diversity.
            for (size_t D = 0; D < Dim; ++D) {
              Vel[P][D] = Inertia * Vel[P][D] +
                          CognitiveCoeff * C.R1 * (BestPos[P][D] - Pos[P][D]) +
                          SocialCoeff * C.R2 *
                              (BestPos[GlobalBest][D] - Pos[P][D]);
              WC.add(VelocityWork / 3);
            }
          });
      Log.recordBlock(VelocityUpdate, WC.since(Mark));
    }

    // --- position_update (perforation) ---------------------------------
    {
      int Level = Schedule.level(Phase, PositionUpdate);
      uint64_t Mark = WC.total();
      perforatedLoop(Swarm, Level, [&](size_t P) {
        for (size_t D = 0; D < Dim; ++D) {
          Pos[P][D] += Vel[P][D];
          Pos[P][D] = std::clamp(Pos[P][D], -DomainHalfWidth * 2,
                                 DomainHalfWidth * 2);
          WC.add(PositionWork);
        }
      });
      Log.recordBlock(PositionUpdate, WC.since(Mark));
    }

    // --- fitness_eval (perforation) -------------------------------------
    {
      int Level = Schedule.level(Phase, FitnessEval);
      uint64_t Mark = WC.total();
      // Skipped particles keep stale fitness, so their pbest (and hence
      // the gbest) cannot improve -- the premature-convergence hazard.
      perforatedLoop(Swarm, Level, [&](size_t P) {
        Fitness[P] = rosenbrock(Pos[P], WC);
        if (Fitness[P] < BestFitness[P]) {
          BestFitness[P] = Fitness[P];
          BestPos[P] = Pos[P];
        }
      });
      for (size_t P = 0; P < Swarm; ++P)
        if (BestFitness[P] < BestFitness[GlobalBest])
          GlobalBest = P;
      Log.recordBlock(FitnessEval, WC.since(Mark));
    }

    // --- convergence check ----------------------------------------------
    double Current = meanBest(BestFitness);
    double Improvement = (PreviousBest - Current) /
                         std::max(std::fabs(PreviousBest), 1e-12);
    if (Improvement < StagnationTolerance)
      ++StagnantStreak;
    else
      StagnantStreak = 0;
    PreviousBest = Current;
    BestHistory.push_back(BestFitness[GlobalBest]);
    ++Iter;
  }

  RunResult R;
  // Output: each particle's best fitness (the paper's QoS basis) plus
  // the global best position.
  // Output: the per-particle best fitness values (log-compressed; the
  // paper's QoS basis) plus the global-best convergence curve sampled at
  // 20 checkpoints of the *nominal* iteration count. A run that stopped
  // early flatlines at its last value, so premature convergence shows up
  // as a curve offset; a run corrupted early but recovered shows the
  // detour. Checkpoints use the nominal count so exact and approximate
  // runs align.
  R.Output.reserve(Swarm + 20);
  for (double F : BestFitness)
    R.Output.push_back(std::log1p(F));
  size_t CurveBase = NominalIterations ? NominalIterations : Iter;
  for (size_t K = 1; K <= 20; ++K) {
    size_t At = std::min(K * CurveBase / 20, BestHistory.size()) - 1;
    R.Output.push_back(std::log1p(BestHistory[std::min(
        At, BestHistory.size() - 1)]));
  }
  Loop.finish(R, Iter);
  return R;
}

double Pso::qosDegradation(const RunResult &Exact,
                           const RunResult &Approx) const {
  // Average difference of the per-particle best-fitness values (paper
  // Sec. 4.1), in log-space to stay meaningful near convergence. The
  // x30 scale maps "stuck one order of magnitude short" to ~30%.
  assert(Exact.Output.size() == Approx.Output.size() && "output mismatch");
  double Sum = 0.0;
  for (size_t I = 0; I < Exact.Output.size(); ++I)
    Sum += std::fabs(Exact.Output[I] - Approx.Output[I]);
  double Mean = Sum / static_cast<double>(Exact.Output.size());
  return std::min(30.0 * Mean, 1000.0);
}
