//===- apps/Pso.h - Particle swarm optimization ----------------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Particle swarm optimization on a continuous objective (Rosenbrock),
/// the paper's fifth benchmark (Sec. 4.1). The outer loop is a genuine
/// convergence loop: it stops once the global best has stagnated, so
/// approximating early phases both corrupts the search *and* triggers
/// premature convergence -- large speedup, large error -- while
/// late-phase approximation barely shortens an almost-finished run
/// (the Fig. 9b / 10b shapes).
///
/// Approximable blocks (paper techniques: perforation + memoization):
/// fitness evaluation (perforation over particles, stale fitness),
/// velocity update (memoization of the stochastic coefficients), and
/// position update (perforation; skipped particles do not move).
///
/// QoS: average relative difference of each particle's best fitness
/// value vs. the exact run.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPS_PSO_H
#define OPPROX_APPS_PSO_H

#include "apps/ApproxApp.h"

namespace opprox {

/// PSO application. See file comment.
class Pso : public ApproxApp {
public:
  Pso();

  std::string name() const override { return "pso"; }
  const std::vector<ApproximableBlock> &blocks() const override {
    return Blocks;
  }
  std::vector<std::string> parameterNames() const override;
  std::vector<std::vector<double>> trainingInputs() const override;
  std::vector<double> defaultInput() const override;
  double qosDegradation(const RunResult &Exact,
                        const RunResult &Approx) const override;

  enum BlockId : size_t {
    FitnessEval = 0,
    VelocityUpdate = 1,
    PositionUpdate = 2,
  };

protected:
  RunResult execute(const std::vector<double> &Input,
                    const PhaseSchedule &Schedule, size_t NominalIterations,
                    const RunStart &Start) const override;

private:
  std::vector<ApproximableBlock> Blocks;
};

} // namespace opprox

#endif // OPPROX_APPS_PSO_H
