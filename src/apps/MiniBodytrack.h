//===- apps/MiniBodytrack.h - Annealed particle filter ---------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An annealed-particle-filter tracker standing in for PARSEC Bodytrack
/// (paper Sec. 4.1): a synthetic 5-component articulated pose follows
/// smooth trajectories; per video frame the tracker extracts noisy
/// image features and refines a particle population through annealing
/// layers. The outer loop enumerates (frame, layer) pairs, so its count
/// is fixed by the inputs (#frames x #annealing layers); early-phase
/// approximation corrupts the particle population that every later frame
/// inherits.
///
/// Approximable blocks mirror the paper's technique mix (perforation +
/// input tuning): likelihood evaluation (perforation over particles),
/// particle perturbation (perforation), feature extraction (perforation
/// over image cells), and a min-particles knob (parameter tuning).
///
/// QoS: magnitude-weighted distortion of the estimated pose vectors
/// (Sec. 4.1: larger body components weigh more).
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_APPS_MINIBODYTRACK_H
#define OPPROX_APPS_MINIBODYTRACK_H

#include "apps/ApproxApp.h"

namespace opprox {

/// Bodytrack-style annealed particle filter. See file comment.
class MiniBodytrack : public ApproxApp {
public:
  MiniBodytrack();

  std::string name() const override { return "bodytrack"; }
  const std::vector<ApproximableBlock> &blocks() const override {
    return Blocks;
  }
  std::vector<std::string> parameterNames() const override;
  std::vector<std::vector<double>> trainingInputs() const override;
  std::vector<double> defaultInput() const override;
  double qosDegradation(const RunResult &Exact,
                        const RunResult &Approx) const override;

  enum BlockId : size_t {
    LikelihoodEval = 0,
    ParticlePerturb = 1,
    FeatureExtract = 2,
    MinParticlesKnob = 3,
  };

protected:
  RunResult execute(const std::vector<double> &Input,
                    const PhaseSchedule &Schedule, size_t NominalIterations,
                    const RunStart &Start) const override;

private:
  std::vector<ApproximableBlock> Blocks;
};

} // namespace opprox

#endif // OPPROX_APPS_MINIBODYTRACK_H
