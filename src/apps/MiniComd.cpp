//===- apps/MiniComd.cpp --------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "apps/MiniComd.h"
#include "apps/QoSMetrics.h"
#include "approx/CallContextLog.h"
#include "approx/Techniques.h"
#include "approx/WorkCounter.h"
#include "support/Random.h"
#include <algorithm>
#include <cmath>

using namespace opprox;

namespace {

constexpr double TimestepLength = 0.002; // LJ reduced units.
constexpr double Cutoff = 2.5;           // LJ cutoff radius (sigma units).
// A warm FCC crystal: weakly chaotic, so a perturbation injected early
// has the whole remaining trajectory to grow (the paper's "ripple
// effect", Sec. 5.1.1), while one injected late barely moves the final
// energies. The temperature sets the chaos rate.
constexpr double InitTemperature = 0.5;

constexpr uint64_t PairWork = 3;
constexpr uint64_t ForceSetupWork = 2;
constexpr uint64_t AdvanceWork = 3;

struct Vec3 {
  double X = 0, Y = 0, Z = 0;
};

/// Minimum-image displacement in a cubic periodic box of side \p Box.
Vec3 minimumImage(const Vec3 &A, const Vec3 &B, double Box) {
  auto Wrap = [Box](double D) {
    if (D > 0.5 * Box)
      return D - Box;
    if (D < -0.5 * Box)
      return D + Box;
    return D;
  };
  return {Wrap(A.X - B.X), Wrap(A.Y - B.Y), Wrap(A.Z - B.Z)};
}

/// Loop-carried state of the timestep loop.
struct ComdState {
  std::vector<Vec3> Pos, Vel, Force;
  std::vector<double> PotentialPerAtom;
  // Time-averaged per-atom energies: the thermodynamic observables CoMD
  // reports. Averaging over the trajectory means an error injected early
  // contaminates every later step's contribution, so early-phase
  // approximation dominates the final QoS (Fig. 9a).
  std::vector<double> AvgKe, AvgPe;
};

/// A warm FCC crystal with deterministic initial velocities keyed by the
/// input, so every run of the same input sees the same trajectory.
ComdState initialState(size_t Cells, double Lattice, size_t Steps) {
  size_t N = 4 * Cells * Cells * Cells; // FCC: 4 atoms per unit cell.
  Rng SeedRng(0xC0FFEEULL ^ (Cells * 1315423911ULL) ^
              static_cast<uint64_t>(Lattice * 1e6) ^ (Steps * 2654435761ULL));
  ComdState S;
  S.Pos.resize(N);
  S.Vel.resize(N);
  S.Force.resize(N);
  S.PotentialPerAtom.assign(N, 0.0);
  S.AvgKe.assign(N, 0.0);
  S.AvgPe.assign(N, 0.0);
  // FCC basis within each unit cell.
  const double Basis[4][3] = {
      {0.0, 0.0, 0.0}, {0.5, 0.5, 0.0}, {0.5, 0.0, 0.5}, {0.0, 0.5, 0.5}};
  size_t Idx = 0;
  for (size_t X = 0; X < Cells; ++X)
    for (size_t Y = 0; Y < Cells; ++Y)
      for (size_t Z = 0; Z < Cells; ++Z)
        for (const auto &B : Basis) {
          S.Pos[Idx] = {(static_cast<double>(X) + B[0]) * Lattice,
                        (static_cast<double>(Y) + B[1]) * Lattice,
                        (static_cast<double>(Z) + B[2]) * Lattice};
          ++Idx;
        }
  double Sigma = std::sqrt(InitTemperature);
  Vec3 Drift;
  for (Vec3 &V : S.Vel) {
    V = {SeedRng.gaussian(0, Sigma), SeedRng.gaussian(0, Sigma),
         SeedRng.gaussian(0, Sigma)};
    Drift.X += V.X;
    Drift.Y += V.Y;
    Drift.Z += V.Z;
  }
  for (Vec3 &V : S.Vel) { // Remove center-of-mass motion.
    V.X -= Drift.X / static_cast<double>(N);
    V.Y -= Drift.Y / static_cast<double>(N);
    V.Z -= Drift.Z / static_cast<double>(N);
  }
  return S;
}

} // namespace

MiniComd::MiniComd() {
  Blocks = {
      {"compute_forces", ApproxTechniqueKind::LoopPerforation, 5},
      {"pair_scan", ApproxTechniqueKind::LoopTruncation, 5},
      {"advance_atoms", ApproxTechniqueKind::LoopPerforation, 5},
  };
}

std::vector<std::string> MiniComd::parameterNames() const {
  return {"unit_cells", "lattice_param", "num_timesteps"};
}

std::vector<std::vector<double>> MiniComd::trainingInputs() const {
  // Unit cells per dimension, FCC lattice constant (equilibrium ~1.56
  // sigma), timesteps.
  return {{3, 1.52, 150}, {3, 1.60, 250}, {4, 1.52, 250},
          {4, 1.60, 150}, {3, 1.56, 200}};
}

std::vector<double> MiniComd::defaultInput() const { return {3, 1.56, 200}; }

RunResult MiniComd::execute(const std::vector<double> &Input,
                            const PhaseSchedule &Schedule,
                            size_t NominalIterations,
                            const RunStart &Start) const {
  assert(Input.size() == 3 &&
         "comd expects [unit_cells, lattice_param, num_timesteps]");
  assert(Schedule.numBlocks() == Blocks.size() && "block count mismatch");
  size_t Cells = static_cast<size_t>(Input[0]);
  double Lattice = Input[1];
  size_t Steps = static_cast<size_t>(Input[2]);
  assert(Cells >= 2 && Lattice > 1.4 && "unphysical lattice");
  size_t N = 4 * Cells * Cells * Cells;
  double Box = static_cast<double>(Cells) * Lattice;

  ResumableLoop<ComdState> Loop(Start, Steps);
  ComdState S = Loop.resumedState() ? *Loop.resumedState()
                                    : initialState(Cells, Lattice, Steps);
  std::vector<Vec3> &Pos = S.Pos, &Vel = S.Vel, &Force = S.Force;
  std::vector<double> &PotentialPerAtom = S.PotentialPerAtom;
  std::vector<double> &AvgKe = S.AvgKe, &AvgPe = S.AvgPe;

  WorkCounter &WC = Loop.WC;
  CallContextLog &Log = Loop.Log;
  PhaseMap PM(NominalIterations ? NominalIterations : Steps,
              Schedule.numPhases());

  double CutoffSq = Cutoff * Cutoff;
  for (size_t Step = Loop.firstIteration(); Step < Steps; ++Step) {
    Loop.atIteration(Step, S);
    Log.beginIteration();
    size_t Phase = PM.phaseOf(Step);

    // --- compute_forces (perforation) + pair_scan (truncation) --------
    {
      int ForceLevel = Schedule.level(Phase, ComputeForces);
      int PairLevel = Schedule.level(Phase, PairScan);
      uint64_t Mark = WC.total();
      // Perforated atoms keep their stale force from the previous step.
      rotatingPerforatedLoop(N, ForceLevel, Step, [&](size_t I) {
        Vec3 F;
        double Pot = 0.0;
        WC.add(ForceSetupWork);
        // The partner scan is itself an AB: truncation drops trailing
        // partners, systematically under-counting interactions.
        truncatedLoop(N, PairLevel, Blocks[PairScan].MaxLevel,
                      [&](size_t J) {
                        if (I == J)
                          return;
                        Vec3 D = minimumImage(Pos[I], Pos[J], Box);
                        double R2 = D.X * D.X + D.Y * D.Y + D.Z * D.Z;
                        WC.add(PairWork);
                        if (R2 >= CutoffSq || R2 < 1e-12)
                          return;
                        double Inv2 = 1.0 / R2;
                        double Inv6 = Inv2 * Inv2 * Inv2;
                        // LJ: F = 24 eps (2 (s/r)^12 - (s/r)^6) / r^2 * d.
                        double Scale = 24.0 * Inv2 * Inv6 * (2.0 * Inv6 - 1.0);
                        F.X += Scale * D.X;
                        F.Y += Scale * D.Y;
                        F.Z += Scale * D.Z;
                        Pot += 2.0 * Inv6 * (Inv6 - 1.0); // Half of 4eps(..).
                      });
        Force[I] = F;
        PotentialPerAtom[I] = Pot;
      });
      Log.recordBlock(ComputeForces, WC.since(Mark));
      Log.recordBlock(PairScan, 0);
    }

    // --- advance_atoms (perforation) -----------------------------------
    {
      int Level = Schedule.level(Phase, AdvanceAtoms);
      uint64_t Mark = WC.total();
      // Perforated atoms coast: stale velocity, no force application.
      rotatingPerforatedLoop(N, Level, Step, [&](size_t I) {
        Vel[I].X += TimestepLength * Force[I].X;
        Vel[I].Y += TimestepLength * Force[I].Y;
        Vel[I].Z += TimestepLength * Force[I].Z;
        WC.add(AdvanceWork);
      });
      for (size_t I = 0; I < N; ++I) {
        Pos[I].X += TimestepLength * Vel[I].X;
        Pos[I].Y += TimestepLength * Vel[I].Y;
        Pos[I].Z += TimestepLength * Vel[I].Z;
        // Periodic wraparound.
        auto Wrap = [Box](double &C) {
          if (C < 0)
            C += Box;
          else if (C >= Box)
            C -= Box;
        };
        Wrap(Pos[I].X);
        Wrap(Pos[I].Y);
        Wrap(Pos[I].Z);
      }
      Log.recordBlock(AdvanceAtoms, WC.since(Mark));
    }

    for (size_t I = 0; I < N; ++I) {
      AvgKe[I] += 0.5 * (Vel[I].X * Vel[I].X + Vel[I].Y * Vel[I].Y +
                         Vel[I].Z * Vel[I].Z);
      AvgPe[I] += PotentialPerAtom[I];
    }
  }

  // Output: per-atom kinetic and potential energy (the paper's QoS:
  // energy difference vs. the exact run, averaged across atoms). A
  // perturbation injected early has the rest of the weakly chaotic
  // trajectory to grow, so early-phase approximation shows the largest
  // final difference -- provided the run stays below full decorrelation
  // (the small timestep keeps per-step approximation error tiny).
  RunResult R;
  R.Output.reserve(2 * N);
  double Steps_d = static_cast<double>(Steps);
  for (size_t I = 0; I < N; ++I)
    R.Output.push_back(AvgKe[I] / Steps_d);
  for (size_t I = 0; I < N; ++I)
    R.Output.push_back(AvgPe[I] / Steps_d);
  Loop.finish(R, Steps);
  return R;
}

double MiniComd::qosDegradation(const RunResult &Exact,
                                const RunResult &Approx) const {
  return relativeDistortionPercent(Exact.Output, Approx.Output);
}
