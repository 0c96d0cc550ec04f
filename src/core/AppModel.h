//===- core/AppModel.h - Trained speedup/QoS model stack -------*- C++ -*-===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trained model stack of paper Sec. 3.6, per (control-flow class,
/// phase):
///
///  - local per-AB speedup and QoS models s_b(a_b, P), q_b(a_b, P);
///  - an outer-loop iteration estimator I(A, P);
///  - overall models S(s_1..s_M, I) and Q(q_1..q_M, I) that take the
///    local predictions and the iteration estimate as features;
///  - per-phase ROI (Eq. 1) for budget allocation;
///
/// plus the decision-tree control-flow classifier selecting which class's
/// models apply to a production input (Sec. 3.4). Conservative
/// predictions use the confidence interval bounds of Sec. 3.6.
///
//===----------------------------------------------------------------------===//

#ifndef OPPROX_CORE_APPMODEL_H
#define OPPROX_CORE_APPMODEL_H

#include "core/ControlFlowModel.h"
#include "core/TrainingData.h"
#include "ml/ModelSelection.h"
#include <optional>

namespace opprox {

class PhaseModels;

/// Precomputed per-(input, phase, confidence-mode) state for batched
/// prediction over the level space. Everything here is read-only during
/// the scan and shared across worker threads.
struct PhaseEvalPlan {
  std::vector<double> Input;
  std::vector<int> MaxLevels;
  bool Conservative = false;
  /// halfWidth(Confidence) of the overall models; 0 when !Conservative.
  double SpeedupHalfWidth = 0.0;
  double QosHalfWidth = 0.0;
  /// Local model predictions memoized per (block, level): the overall
  /// models' features depend on Levels only through these values and the
  /// iteration estimate, so they are computed once by the same scalar
  /// predict calls the naive path makes.
  std::vector<std::vector<double>> LocalSpeedupTab; // [Block][Level]
  std::vector<std::vector<double>> LocalQosTab;     // [Block][Level]
};

/// Per-thread workspace for the batched prediction kernels; reuse across
/// calls to keep the hot path allocation-free at steady state.
struct PredictScratch {
  Matrix IterX;                ///< Batch x (inputs + blocks) iteration rows.
  std::vector<double> IterOut; ///< Iteration estimates.
  Matrix OverallX;             ///< Batch x (blocks + 1) overall rows.
  std::vector<double> LogOut;  ///< Overall model outputs before transform.
  SelectedModel::BatchScratch Model;
};

/// Models for one (control-flow class, phase) pair.
class PhaseModels {
public:
  /// Point estimate of the application speedup when \p Levels are applied
  /// in this phase for \p Input.
  double predictSpeedup(const std::vector<double> &Input,
                        const std::vector<int> &Levels) const;

  /// Conservative (lower-bound) speedup at confidence \p P.
  double conservativeSpeedup(const std::vector<double> &Input,
                             const std::vector<int> &Levels, double P) const;

  /// Point estimate of the QoS degradation.
  double predictQos(const std::vector<double> &Input,
                    const std::vector<int> &Levels) const;

  /// Conservative (upper-bound) QoS degradation at confidence \p P.
  double conservativeQos(const std::vector<double> &Input,
                         const std::vector<int> &Levels, double P) const;

  /// Predicted outer-loop iteration count.
  double predictIterations(const std::vector<double> &Input,
                           const std::vector<int> &Levels) const;

  /// Builds the shared evaluation state for scanning the level space
  /// [0, MaxLevels[b]] per block for \p Input: local prediction tables
  /// and confidence half-widths.
  PhaseEvalPlan makeEvalPlan(const std::vector<double> &Input,
                             const std::vector<int> &MaxLevels,
                             bool Conservative, double Confidence) const;

  /// Iteration estimates for \p N level rows, row-major
  /// \p N x numBlocks() in \p Levels, into \p Out. Both overall models
  /// consume this estimate; computing it once per batch and passing it
  /// to the IterEst-taking predict overloads halves the iteration-model
  /// work on the scan hot path without changing any bit (per-row results
  /// are independent of batch composition).
  void predictIterationsBatch(const PhaseEvalPlan &Plan, const int *Levels,
                              size_t N, std::vector<double> &Out,
                              PredictScratch &S) const;

  /// Predicted (or conservative, per \p Plan) speedup for \p N level
  /// rows, row-major \p N x numBlocks() in \p Levels, into \p Out. Each
  /// row's value is bit-identical to predictSpeedup /
  /// conservativeSpeedup on that row, independent of batch size or
  /// composition.
  void predictSpeedupBatch(const PhaseEvalPlan &Plan, const int *Levels,
                           size_t N, std::vector<double> &Out,
                           PredictScratch &S) const;

  /// predictSpeedupBatch with the per-row iteration estimates already
  /// computed (\p IterEst, one per row, from predictIterationsBatch on
  /// the same rows).
  void predictSpeedupBatch(const PhaseEvalPlan &Plan, const int *Levels,
                           const double *IterEst, size_t N,
                           std::vector<double> &Out, PredictScratch &S) const;

  /// Batched counterpart of predictQos / conservativeQos; same contract
  /// as predictSpeedupBatch.
  void predictQosBatch(const PhaseEvalPlan &Plan, const int *Levels,
                       size_t N, std::vector<double> &Out,
                       PredictScratch &S) const;

  /// predictQosBatch with precomputed iteration estimates.
  void predictQosBatch(const PhaseEvalPlan &Plan, const int *Levels,
                       const double *IterEst, size_t N,
                       std::vector<double> &Out, PredictScratch &S) const;

  /// ROI of this phase: mean speedup-per-unit-QoS over its training
  /// samples (Eq. 1).
  double roi() const { return Roi; }

  /// Cross-validated R^2 of the overall models (introspection).
  double speedupCvR2() const { return OverallSpeedup->cvR2(); }
  double qosCvR2() const { return OverallQos->cvR2(); }

  /// Number of approximable blocks this stack models.
  size_t numBlocks() const { return LocalSpeedup.size(); }

  /// Artifact serialization: all five model groups plus the phase ROI.
  Json toJson() const;
  static Expected<PhaseModels> fromJson(const Json &Value);

private:
  friend class ModelBuilder;

  /// Features for the overall speedup model: local speedup predictions
  /// plus the iteration estimate. Part of the self-contained scalar path
  /// (see the .cpp comment); the batch kernels assemble the same values
  /// from the eval plan's memoized tables instead.
  std::vector<double> overallFeatures(const std::vector<double> &Input,
                                      const std::vector<int> &Levels) const;

  /// Batched log-space overall-model outputs (no transform applied) for
  /// \p N row-major level rows, using the plan's memoized local tables
  /// and the precomputed per-row iteration estimates \p IterEst.
  void overallLogBatch(const PhaseEvalPlan &Plan, const int *Levels,
                       const double *IterEst, size_t N, bool Qos,
                       std::vector<double> &Out, PredictScratch &S) const;

  std::vector<SelectedModel> LocalSpeedup; // One per AB.
  std::vector<SelectedModel> LocalQos;     // One per AB.
  std::optional<SelectedModel> IterationModel;
  std::optional<SelectedModel> OverallSpeedup;
  std::optional<SelectedModel> OverallQos;
  double Roi = 1.0;
};

/// All models for one application: classifier + per-class per-phase
/// model stacks.
class AppModel {
public:
  size_t numPhases() const { return NumPhases; }
  size_t numClasses() const { return Classes.size(); }

  /// Control-flow class predicted for \p Input.
  int classOf(const std::vector<double> &Input) const;

  /// Models of (class predicted for \p Input, \p Phase).
  const PhaseModels &phaseModels(const std::vector<double> &Input,
                                 size_t Phase) const;

  /// Models of an explicit class id (introspection, benches).
  const PhaseModels &phaseModelsForClass(int ClassId, size_t Phase) const;

  /// Number of approximable blocks (from any class's phase-0 stack).
  size_t numBlocks() const;

  /// Artifact serialization: classifier + the full per-(class, phase)
  /// model grid. fromJson enforces a rectangular grid with a consistent
  /// block count so a loaded model can never index out of range.
  Json toJson() const;
  static Expected<AppModel> fromJson(const Json &Value);

private:
  friend class ModelBuilder;

  size_t NumPhases = 0;
  ControlFlowModel Classifier;
  // Classes[ClassId][Phase].
  std::vector<std::vector<PhaseModels>> Classes;
};

/// Options controlling model construction.
struct ModelBuildOptions {
  /// Model-selection policy (degrees, folds, MIC threshold; Sec. 3.7).
  ModelSelectOptions Selection;
  /// Floor applied to QoS degradation in the ROI denominator so
  /// error-free phases get large-but-finite ROI.
  double RoiQosFloor = 0.05;
  /// Base seed for fold shuffling. The (class, phase) model-fit task
  /// draws its RNG from deriveSeed(Seed, ClassId, Phase), so each task's
  /// stream is independent of scheduling and worker count. (The "2"
  /// marks the per-task derivation scheme that replaced the old shared
  /// sequential stream.)
  uint64_t Seed = 0xB111D2;
  /// Fit parallelism across (class, phase) tasks: 1 = serial, 0 = auto
  /// (OPPROX_THREADS, else hardware concurrency). The built model is
  /// identical for any value.
  size_t NumThreads = 0;
};

/// Builds an AppModel from profiled training data (Secs. 3.4, 3.6, 3.7).
class ModelBuilder {
public:
  /// \p Data must contain per-phase samples for every phase in
  /// [0, NumPhases). All-phase (uniform) samples are ignored here; they
  /// serve the oracle comparison. Fits the per-(class, phase) model
  /// stacks concurrently across Opts.NumThreads executors.
  static AppModel build(const TrainingSet &Data, size_t NumPhases,
                        size_t NumBlocks, const ModelBuildOptions &Opts);
};

} // namespace opprox

#endif // OPPROX_CORE_APPMODEL_H
