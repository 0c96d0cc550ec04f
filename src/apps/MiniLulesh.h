//===- apps/MiniLulesh.h - Lagrangian shock hydrodynamics ------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A 1-D Lagrangian explicit shock-hydrodynamics miniapp standing in for
/// LULESH (paper Sec. 2): a Sedov-style blast in a gamma-law gas on a
/// staggered mesh, advanced with an adaptive Courant timestep until a
/// fixed simulation end time. Matches LULESH's computation pattern in
/// the respects the paper relies on:
///
///  - a while-style outer loop whose iteration count depends on the
///    evolving state (approximation changes dt, so the number of
///    iterations rises or falls vs. the exact run -- Fig. 3);
///  - four approximable blocks mirroring the paper's choices:
///    forces_on_elements (perforation), position_of_elements
///    (perforation), strain_of_elements (memoization), and
///    calculate_timeconstraints (truncation);
///  - QoS = relative difference in final per-element energy.
///
/// Input parameters: mesh size (elements = 10x) and number of material
/// regions (scales force-kernel cost, as LULESH's region loops do).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPS_MINILULESH_H
#define OPPROX_APPS_MINILULESH_H

#include "apps/ApproxApp.h"

namespace opprox {

/// LULESH-style shock-hydro application. See file comment.
class MiniLulesh : public ApproxApp {
public:
  MiniLulesh();

  std::string name() const override { return "lulesh"; }
  const std::vector<ApproximableBlock> &blocks() const override {
    return Blocks;
  }
  std::vector<std::string> parameterNames() const override;
  std::vector<std::vector<double>> trainingInputs() const override;
  std::vector<double> defaultInput() const override;
  double qosDegradation(const RunResult &Exact,
                        const RunResult &Approx) const override;

  /// Block indices, for readable schedules in tests and benches.
  enum BlockId : size_t {
    ForcesOnElements = 0,
    PositionOfElements = 1,
    StrainOfElements = 2,
    CalculateTimeConstraints = 3,
  };

protected:
  RunResult execute(const std::vector<double> &Input,
                    const PhaseSchedule &Schedule, size_t NominalIterations,
                    const RunStart &Start) const override;

private:
  std::vector<ApproximableBlock> Blocks;
};

} // namespace opprox

#endif // OPPROX_APPS_MINILULESH_H
