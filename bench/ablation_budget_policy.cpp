//===- bench/ablation_budget_policy.cpp -----------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
// Ablation (DESIGN.md Sec. 5): the paper allocates the QoS budget across
// phases proportional to ROI (Eq. 1) and calls the split a replaceable
// policy. This bench compares ROI-proportional allocation against a
// uniform split and a greedy highest-ROI-takes-all policy on ground
// truth.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "support/StringUtils.h"
#include "core/Optimizer.h"

using namespace opprox;
using namespace opprox::bench;

namespace {

/// Re-implements the outer loop of Algorithm 2 with a pluggable share
/// function so alternative policies reuse the same per-phase search.
PhaseSchedule optimizeWithShares(const Opprox &Tuner,
                                 const std::vector<double> &Input,
                                 double Budget,
                                 const std::vector<double> &Shares) {
  const AppModel &Model = Tuner.model();
  std::vector<int> MaxLevels = Tuner.app().maxLevels();
  PhaseSchedule S(Model.numPhases(), MaxLevels.size());
  PhaseSearchStats Stats;
  OptimizeOptions Opts;
  for (size_t P = 0; P < Model.numPhases(); ++P) {
    PhaseDecision D =
        optimizePhase(Model.phaseModels(Input, P), Input, MaxLevels,
                      Budget * Shares[P], Opts, Stats);
    S.setPhaseLevels(P, D.Levels);
  }
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Bench;
  if (!parseBenchFlags(Argc, Argv, Bench))
    return 1;
  banner("ablation_budget_policy",
         "Budget-split policies: ROI-proportional (paper) vs uniform vs "
         "greedy, ground-truth outcomes");

  Table T({"app", "budget_pct", "policy", "speedup", "qos_pct"});
  for (const std::string &Name : {"pso", "lulesh", "ffmpeg"}) {
    auto App = createApp(Name);
    OpproxTrainOptions Opts;
    Opts.Profiling.RandomJointSamples = 24;
    Opprox Tuner = trainBench(*App, Opts, Bench);
    const std::vector<double> Input = App->defaultInput();
    size_t N = Tuner.numPhases();

    for (double Budget : {5.0, 20.0}) {
      // Paper policy: ROI-proportional with leftover redistribution.
      {
        PhaseSchedule S = Tuner.optimize(Input, Budget);
        EvalOutcome E = evaluateSchedule(*App, Tuner.golden(), Input, S);
        T.addRow({Name, format("%.0f", Budget), "roi_proportional",
                  format("%.3f", E.Speedup),
                  format("%.2f", E.QosDegradation)});
      }
      // Uniform split.
      {
        std::vector<double> Shares(N, 1.0 / static_cast<double>(N));
        PhaseSchedule S = optimizeWithShares(Tuner, Input, Budget, Shares);
        EvalOutcome E = evaluateSchedule(*App, Tuner.golden(), Input, S);
        T.addRow({Name, format("%.0f", Budget), "uniform",
                  format("%.3f", E.Speedup),
                  format("%.2f", E.QosDegradation)});
      }
      // Greedy: the highest-ROI phase takes the entire budget.
      {
        std::vector<double> Shares(N, 0.0);
        size_t Best = 0;
        for (size_t P = 1; P < N; ++P)
          if (Tuner.model().phaseModels(Input, P).roi() >
              Tuner.model().phaseModels(Input, Best).roi())
            Best = P;
        Shares[Best] = 1.0;
        PhaseSchedule S = optimizeWithShares(Tuner, Input, Budget, Shares);
        EvalOutcome E = evaluateSchedule(*App, Tuner.golden(), Input, S);
        T.addRow({Name, format("%.0f", Budget), "greedy_top_roi",
                  format("%.3f", E.Speedup),
                  format("%.2f", E.QosDegradation)});
      }
    }
  }
  emit("ablation_budget_policy", T);
  return 0;
}
