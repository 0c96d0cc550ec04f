//===- apps/MiniComd.h - Molecular-dynamics miniapp ------------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Lennard-Jones molecular-dynamics miniapp standing in for CoMD
/// (paper Sec. 4.1): a simple-cubic crystal in a periodic box advanced
/// with velocity-Verlet for a fixed number of timesteps. The outer loop
/// is a classic timestep loop -- its iteration count is an input
/// parameter and never depends on approximation, so speedup is
/// phase-invariant while early-phase errors ripple through the
/// trajectory (Figs. 9a/10a).
///
/// Approximable blocks: force computation (perforation over atoms),
/// pair-list scan (truncation of each atom's partner loop), and the
/// position/velocity advance (perforation over atoms).
///
/// Input parameters: unit cells per dimension, lattice parameter, and
/// the number of timesteps.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPS_MINICOMD_H
#define OPPROX_APPS_MINICOMD_H

#include "apps/ApproxApp.h"

namespace opprox {

/// CoMD-style molecular dynamics application. See file comment.
class MiniComd : public ApproxApp {
public:
  MiniComd();

  std::string name() const override { return "comd"; }
  const std::vector<ApproximableBlock> &blocks() const override {
    return Blocks;
  }
  std::vector<std::string> parameterNames() const override;
  std::vector<std::vector<double>> trainingInputs() const override;
  std::vector<double> defaultInput() const override;
  double qosDegradation(const RunResult &Exact,
                        const RunResult &Approx) const override;

  enum BlockId : size_t {
    ComputeForces = 0,
    PairScan = 1,
    AdvanceAtoms = 2,
  };

protected:
  RunResult execute(const std::vector<double> &Input,
                    const PhaseSchedule &Schedule, size_t NominalIterations,
                    const RunStart &Start) const override;

private:
  std::vector<ApproximableBlock> Blocks;
};

} // namespace opprox

#endif // OPPROX_APPS_MINICOMD_H
