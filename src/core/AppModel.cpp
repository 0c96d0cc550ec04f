//===- core/AppModel.cpp --------------------------------------------------===//
//
// Part of the OPPROX reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/AppModel.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

using namespace opprox;

/// Replaces \p V with quiet NaN / +infinity when the prediction fault
/// sites fire. Applied at prediction-output returns -- after the range
/// clamps -- so injected garbage reaches consumers through exactly the
/// value path a defective model artifact would use.
static double injectPredictionFault(double V) {
  if (faultPoint(faults::PredictNan))
    return std::numeric_limits<double>::quiet_NaN();
  if (faultPoint(faults::PredictInf))
    return std::numeric_limits<double>::infinity();
  return V;
}

/// Per-row fault gate for the batch kernels; free when disarmed.
static void injectPredictionFaults(std::vector<double> &Out, size_t N) {
  if (OPPROX_LIKELY(
          !detail::GlobalFaultsArmed.load(std::memory_order_relaxed)))
    return;
  for (size_t R = 0; R < N; ++R)
    Out[R] = injectPredictionFault(Out[R]);
}

//===----------------------------------------------------------------------===//
// PhaseModels
//===----------------------------------------------------------------------===//

// The scalar entry points below are the original self-contained
// implementations (per-call feature assembly through the scalar model
// predicts). They stay independent of the batch kernels on purpose: the
// optimizer's naive reference engine uses them, so the equivalence tests
// compare two genuinely distinct code paths bit for bit rather than one
// kernel against itself.

std::vector<double>
PhaseModels::overallFeatures(const std::vector<double> &Input,
                             const std::vector<int> &Levels) const {
  assert(Levels.size() == LocalSpeedup.size() && "level count mismatch");
  std::vector<double> Features;
  Features.reserve(LocalSpeedup.size() + 1);
  for (size_t B = 0; B < LocalSpeedup.size(); ++B) {
    std::vector<double> LocalX = Input;
    LocalX.push_back(static_cast<double>(Levels[B]));
    Features.push_back(LocalSpeedup[B].predict(LocalX));
  }
  Features.push_back(predictIterations(Input, Levels));
  return Features;
}

double PhaseModels::predictIterations(const std::vector<double> &Input,
                                      const std::vector<int> &Levels) const {
  assert(IterationModel && "model stack not built");
  std::vector<double> X = Input;
  for (int L : Levels)
    X.push_back(static_cast<double>(L));
  return injectPredictionFault(IterationModel->predict(X));
}

double PhaseModels::predictSpeedup(const std::vector<double> &Input,
                                   const std::vector<int> &Levels) const {
  assert(OverallSpeedup && "model stack not built");
  // Models live in log space (see ModelBuilder); transform back, clamped
  // to a physically meaningful range so extrapolation cannot overflow.
  double LogPred = OverallSpeedup->predict(overallFeatures(Input, Levels));
  // Cap at ~50x: no configuration of these transformations can exceed
  // that, so anything larger is extrapolation noise.
  return injectPredictionFault(
      std::clamp(std::exp(std::min(LogPred, 4.0)), 0.01, 50.0));
}

double PhaseModels::conservativeSpeedup(const std::vector<double> &Input,
                                        const std::vector<int> &Levels,
                                        double P) const {
  assert(OverallSpeedup && "model stack not built");
  double Lower = OverallSpeedup->lowerBound(overallFeatures(Input, Levels), P);
  return injectPredictionFault(
      std::clamp(std::exp(std::min(Lower, 4.0)), 0.01, 50.0));
}

double PhaseModels::predictQos(const std::vector<double> &Input,
                               const std::vector<int> &Levels) const {
  assert(OverallQos && "model stack not built");
  // The QoS overall model consumes the *QoS* local predictions.
  std::vector<double> Features;
  Features.reserve(LocalQos.size() + 1);
  for (size_t B = 0; B < LocalQos.size(); ++B) {
    std::vector<double> LocalX = Input;
    LocalX.push_back(static_cast<double>(Levels[B]));
    Features.push_back(LocalQos[B].predict(LocalX));
  }
  Features.push_back(predictIterations(Input, Levels));
  double LogPred = std::min(OverallQos->predict(Features), 7.0);
  return injectPredictionFault(
      std::clamp(std::expm1(LogPred), 0.0, 1000.0));
}

double PhaseModels::conservativeQos(const std::vector<double> &Input,
                                    const std::vector<int> &Levels,
                                    double P) const {
  assert(OverallQos && "model stack not built");
  std::vector<double> Features;
  Features.reserve(LocalQos.size() + 1);
  for (size_t B = 0; B < LocalQos.size(); ++B) {
    std::vector<double> LocalX = Input;
    LocalX.push_back(static_cast<double>(Levels[B]));
    Features.push_back(LocalQos[B].predict(LocalX));
  }
  Features.push_back(predictIterations(Input, Levels));
  double LogUpper = std::min(OverallQos->upperBound(Features, P), 7.0);
  return injectPredictionFault(
      std::clamp(std::expm1(LogUpper), 0.0, 1000.0));
}

void PhaseModels::predictIterationsBatch(const PhaseEvalPlan &Plan,
                                         const int *Levels, size_t N,
                                         std::vector<double> &Out,
                                         PredictScratch &S) const {
  assert(IterationModel && "model stack not built");
  size_t NumBlocks = LocalSpeedup.size();
  size_t NumInputs = Plan.Input.size();
  S.IterX.reshape(N, NumInputs + NumBlocks);
  for (size_t R = 0; R < N; ++R) {
    double *Row = S.IterX.rowData(R);
    std::copy(Plan.Input.begin(), Plan.Input.end(), Row);
    const int *Config = Levels + R * NumBlocks;
    for (size_t B = 0; B < NumBlocks; ++B)
      Row[NumInputs + B] = static_cast<double>(Config[B]);
  }
  IterationModel->predictBatch(S.IterX, Out, S.Model);
  injectPredictionFaults(Out, N);
}

void PhaseModels::overallLogBatch(const PhaseEvalPlan &Plan,
                                  const int *Levels, const double *IterEst,
                                  size_t N, bool Qos,
                                  std::vector<double> &Out,
                                  PredictScratch &S) const {
  assert(IterationModel && OverallSpeedup && OverallQos &&
         "model stack not built");
  size_t NumBlocks = LocalSpeedup.size();
  const std::vector<std::vector<double>> &Tab =
      Qos ? Plan.LocalQosTab : Plan.LocalSpeedupTab;
  S.OverallX.reshape(N, NumBlocks + 1);
  for (size_t R = 0; R < N; ++R) {
    double *Row = S.OverallX.rowData(R);
    const int *Config = Levels + R * NumBlocks;
    for (size_t B = 0; B < NumBlocks; ++B)
      Row[B] = Tab[B][static_cast<size_t>(Config[B])];
    Row[NumBlocks] = IterEst[R];
  }
  (Qos ? *OverallQos : *OverallSpeedup).predictBatch(S.OverallX, Out, S.Model);
}

void PhaseModels::predictSpeedupBatch(const PhaseEvalPlan &Plan,
                                      const int *Levels, const double *IterEst,
                                      size_t N, std::vector<double> &Out,
                                      PredictScratch &S) const {
  overallLogBatch(Plan, Levels, IterEst, N, /*Qos=*/false, S.LogOut, S);
  Out.resize(N);
  for (size_t R = 0; R < N; ++R) {
    double P = S.LogOut[R];
    if (Plan.Conservative)
      P -= Plan.SpeedupHalfWidth;
    Out[R] = std::clamp(std::exp(std::min(P, 4.0)), 0.01, 50.0);
  }
  injectPredictionFaults(Out, N);
}

void PhaseModels::predictSpeedupBatch(const PhaseEvalPlan &Plan,
                                      const int *Levels, size_t N,
                                      std::vector<double> &Out,
                                      PredictScratch &S) const {
  predictIterationsBatch(Plan, Levels, N, S.IterOut, S);
  predictSpeedupBatch(Plan, Levels, S.IterOut.data(), N, Out, S);
}

void PhaseModels::predictQosBatch(const PhaseEvalPlan &Plan,
                                  const int *Levels, const double *IterEst,
                                  size_t N, std::vector<double> &Out,
                                  PredictScratch &S) const {
  overallLogBatch(Plan, Levels, IterEst, N, /*Qos=*/true, S.LogOut, S);
  Out.resize(N);
  for (size_t R = 0; R < N; ++R) {
    double P = S.LogOut[R];
    if (Plan.Conservative)
      P += Plan.QosHalfWidth;
    Out[R] = std::clamp(std::expm1(std::min(P, 7.0)), 0.0, 1000.0);
  }
  injectPredictionFaults(Out, N);
}

void PhaseModels::predictQosBatch(const PhaseEvalPlan &Plan,
                                  const int *Levels, size_t N,
                                  std::vector<double> &Out,
                                  PredictScratch &S) const {
  predictIterationsBatch(Plan, Levels, N, S.IterOut, S);
  predictQosBatch(Plan, Levels, S.IterOut.data(), N, Out, S);
}

PhaseEvalPlan PhaseModels::makeEvalPlan(const std::vector<double> &Input,
                                        const std::vector<int> &MaxLevels,
                                        bool Conservative,
                                        double Confidence) const {
  assert(IterationModel && OverallSpeedup && OverallQos &&
         "model stack not built");
  size_t NumBlocks = LocalSpeedup.size();
  assert(MaxLevels.size() == NumBlocks && "level count mismatch");

  PhaseEvalPlan Plan;
  Plan.Input = Input;
  Plan.MaxLevels = MaxLevels;
  Plan.Conservative = Conservative;
  if (Conservative) {
    Plan.SpeedupHalfWidth = OverallSpeedup->confidence().halfWidth(Confidence);
    Plan.QosHalfWidth = OverallQos->confidence().halfWidth(Confidence);
  }

  // Local predictions per (block, level), by the same scalar calls the
  // naive path makes, so table lookups reproduce its bits exactly.
  Plan.LocalSpeedupTab.resize(NumBlocks);
  Plan.LocalQosTab.resize(NumBlocks);
  std::vector<double> LocalX = Input;
  LocalX.push_back(0.0);
  for (size_t B = 0; B < NumBlocks; ++B) {
    for (int L = 0; L <= MaxLevels[B]; ++L) {
      LocalX.back() = static_cast<double>(L);
      Plan.LocalSpeedupTab[B].push_back(LocalSpeedup[B].predict(LocalX));
      Plan.LocalQosTab[B].push_back(LocalQos[B].predict(LocalX));
    }
  }
  return Plan;
}

Json PhaseModels::toJson() const {
  Json Out = Json::object();
  Json Speedups = Json::array();
  for (const SelectedModel &M : LocalSpeedup)
    Speedups.push(M.toJson());
  Out.set("local_speedup", std::move(Speedups));
  Json Qos = Json::array();
  for (const SelectedModel &M : LocalQos)
    Qos.push(M.toJson());
  Out.set("local_qos", std::move(Qos));
  assert(IterationModel && OverallSpeedup && OverallQos &&
         "serializing an unbuilt model stack");
  Out.set("iterations", IterationModel->toJson());
  Out.set("overall_speedup", OverallSpeedup->toJson());
  Out.set("overall_qos", OverallQos->toJson());
  Out.set("roi", Roi);
  return Out;
}

/// Parses an array of SelectedModel values from member \p Key of \p Obj.
static Expected<std::vector<SelectedModel>>
modelVector(const Json &Obj, const std::string &Key) {
  Expected<const Json *> List = getArray(Obj, Key);
  if (!List)
    return List.error();
  std::vector<SelectedModel> Models;
  for (size_t I = 0; I < (*List)->size(); ++I) {
    Expected<SelectedModel> M = SelectedModel::fromJson((*List)->at(I));
    if (!M)
      return Error(format("%s[%zu]: %s", Key.c_str(), I,
                          M.error().message().c_str()));
    Models.push_back(std::move(*M));
  }
  return Models;
}

/// Parses one SelectedModel from object member \p Key of \p Obj.
static Expected<SelectedModel> modelMember(const Json &Obj,
                                           const std::string &Key) {
  Expected<const Json *> Member = getObject(Obj, Key);
  if (!Member)
    return Member.error();
  Expected<SelectedModel> M = SelectedModel::fromJson(**Member);
  if (!M)
    return Error(format("%s: %s", Key.c_str(), M.error().message().c_str()));
  return M;
}

Expected<PhaseModels> PhaseModels::fromJson(const Json &Value) {
  Expected<std::vector<SelectedModel>> LocalSpeedup =
      modelVector(Value, "local_speedup");
  if (!LocalSpeedup)
    return LocalSpeedup.error();
  Expected<std::vector<SelectedModel>> LocalQos =
      modelVector(Value, "local_qos");
  if (!LocalQos)
    return LocalQos.error();
  Expected<SelectedModel> Iterations = modelMember(Value, "iterations");
  if (!Iterations)
    return Iterations.error();
  Expected<SelectedModel> OverallSpeedup =
      modelMember(Value, "overall_speedup");
  if (!OverallSpeedup)
    return OverallSpeedup.error();
  Expected<SelectedModel> OverallQos = modelMember(Value, "overall_qos");
  if (!OverallQos)
    return OverallQos.error();
  Expected<double> Roi = getNumber(Value, "roi");
  if (!Roi)
    return Roi.error();

  if (LocalSpeedup->size() != LocalQos->size())
    return Error(format("model stack has %zu local speedup models but %zu "
                        "local QoS models",
                        LocalSpeedup->size(), LocalQos->size()));
  PhaseModels PM;
  PM.LocalSpeedup = std::move(*LocalSpeedup);
  PM.LocalQos = std::move(*LocalQos);
  PM.IterationModel = std::move(*Iterations);
  PM.OverallSpeedup = std::move(*OverallSpeedup);
  PM.OverallQos = std::move(*OverallQos);
  PM.Roi = *Roi;
  return PM;
}

//===----------------------------------------------------------------------===//
// AppModel
//===----------------------------------------------------------------------===//

int AppModel::classOf(const std::vector<double> &Input) const {
  int ClassId = Classifier.predictClass(Input);
  // A never-seen class cannot have models; fall back to class 0.
  if (ClassId < 0 || static_cast<size_t>(ClassId) >= Classes.size())
    return 0;
  return ClassId;
}

const PhaseModels &AppModel::phaseModels(const std::vector<double> &Input,
                                         size_t Phase) const {
  return phaseModelsForClass(classOf(Input), Phase);
}

const PhaseModels &AppModel::phaseModelsForClass(int ClassId,
                                                 size_t Phase) const {
  assert(ClassId >= 0 && static_cast<size_t>(ClassId) < Classes.size() &&
         "unknown control-flow class");
  assert(Phase < NumPhases && "phase out of range");
  return Classes[static_cast<size_t>(ClassId)][Phase];
}

size_t AppModel::numBlocks() const {
  assert(!Classes.empty() && !Classes.front().empty() && "empty model");
  return Classes.front().front().numBlocks();
}

Json AppModel::toJson() const {
  Json Out = Json::object();
  Out.set("num_phases", NumPhases);
  Out.set("classifier", Classifier.toJson());
  Json ClassList = Json::array();
  for (const std::vector<PhaseModels> &PerPhase : Classes) {
    Json PhaseList = Json::array();
    for (const PhaseModels &PM : PerPhase)
      PhaseList.push(PM.toJson());
    ClassList.push(std::move(PhaseList));
  }
  Out.set("classes", std::move(ClassList));
  return Out;
}

Expected<AppModel> AppModel::fromJson(const Json &Value) {
  Expected<size_t> NumPhases = getSize(Value, "num_phases");
  if (!NumPhases)
    return NumPhases.error();
  Expected<const Json *> ClassifierJson = getObject(Value, "classifier");
  if (!ClassifierJson)
    return ClassifierJson.error();
  Expected<const Json *> ClassList = getArray(Value, "classes");
  if (!ClassList)
    return ClassList.error();

  if (*NumPhases == 0)
    return Error("model needs at least one phase");
  Expected<ControlFlowModel> Classifier =
      ControlFlowModel::fromJson(**ClassifierJson);
  if (!Classifier)
    return Error(format("classifier: %s",
                        Classifier.error().message().c_str()));
  if ((*ClassList)->size() == 0)
    return Error("model has no control-flow classes");

  AppModel Model;
  Model.NumPhases = *NumPhases;
  Model.Classifier = std::move(*Classifier);
  for (size_t C = 0; C < (*ClassList)->size(); ++C) {
    const Json &PhaseList = (*ClassList)->at(C);
    if (!PhaseList.isArray())
      return Error(format("class %zu is not an array of phase models", C));
    if (PhaseList.size() != *NumPhases)
      return Error(format("class %zu has %zu phase stacks, expected %zu", C,
                          PhaseList.size(), *NumPhases));
    std::vector<PhaseModels> PerPhase;
    for (size_t P = 0; P < PhaseList.size(); ++P) {
      Expected<PhaseModels> PM = PhaseModels::fromJson(PhaseList.at(P));
      if (!PM)
        return Error(format("class %zu phase %zu: %s", C, P,
                            PM.error().message().c_str()));
      PerPhase.push_back(std::move(*PM));
    }
    Model.Classes.push_back(std::move(PerPhase));
  }

  // The optimizer indexes every stack with one block count; a ragged
  // grid would fault at prediction time, so reject it at load time.
  size_t Blocks = Model.Classes.front().front().numBlocks();
  for (const std::vector<PhaseModels> &PerPhase : Model.Classes)
    for (const PhaseModels &PM : PerPhase)
      if (PM.numBlocks() != Blocks)
        return Error("inconsistent block counts across model stacks");
  return Model;
}

//===----------------------------------------------------------------------===//
// ModelBuilder
//===----------------------------------------------------------------------===//

/// Builds the feature-name vector "in_0.., al" used by local models.
static std::vector<std::string> localFeatureNames(size_t NumInputs) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < NumInputs; ++I)
    Names.push_back(format("in_%zu", I));
  Names.push_back("al");
  return Names;
}

static std::vector<std::string> iterFeatureNames(size_t NumInputs,
                                                 size_t NumBlocks) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < NumInputs; ++I)
    Names.push_back(format("in_%zu", I));
  for (size_t B = 0; B < NumBlocks; ++B)
    Names.push_back(format("al_%zu", B));
  return Names;
}

/// True when only block \p B carries a nonzero level.
static bool onlyBlockApproximated(const TrainingSample &S, size_t B) {
  for (size_t J = 0; J < S.Levels.size(); ++J) {
    if (J == B)
      continue;
    if (S.Levels[J] != 0)
      return false;
  }
  return true;
}

AppModel ModelBuilder::build(const TrainingSet &Data, size_t NumPhases,
                             size_t NumBlocks,
                             const ModelBuildOptions &Opts) {
  assert(!Data.empty() && "no training data");
  size_t NumInputs = Data[0].Input.size();

  AppModel Model;
  Model.NumPhases = NumPhases;

  // Classifier over every sample's (input -> class).
  {
    std::vector<std::vector<double>> Inputs;
    std::vector<int> Labels;
    for (const TrainingSample &S : Data.samples()) {
      Inputs.push_back(S.Input);
      Labels.push_back(S.ControlFlowClass);
    }
    Model.Classifier = ControlFlowModel::train(Inputs, Labels);
  }

  std::set<int> ClassIds;
  for (const TrainingSample &S : Data.samples())
    ClassIds.insert(S.ControlFlowClass);
  assert(!ClassIds.empty() && "no control-flow classes");
  int MaxClass = *ClassIds.rbegin();
  Model.Classes.resize(static_cast<size_t>(MaxClass) + 1);

  // Per-class context shared by that class's phase tasks, precomputed
  // serially so the parallel section below only reads it.
  struct ClassContext {
    TrainingSet ClassData;
    /// Distinct inputs of the class anchor the level-0 behaviour:
    /// speedup 1, degradation 0, nominal iterations.
    std::set<std::vector<double>> DistinctInputs;
    std::map<std::vector<double>, double> NominalIterations;
  };
  std::map<int, ClassContext> Contexts;
  for (int ClassId : ClassIds) {
    ClassContext &Ctx = Contexts[ClassId];
    Ctx.ClassData = Data.forClass(ClassId);
    Model.Classes[static_cast<size_t>(ClassId)].resize(NumPhases);
    for (const TrainingSample &S : Ctx.ClassData.samples()) {
      Ctx.DistinctInputs.insert(S.Input);
      // The per-phase nominal count: every exact-phase sample of a
      // fixed-count app reports it; for adaptive apps the median of
      // observed counts is a serviceable anchor.
      Ctx.NominalIterations[S.Input] = S.OuterIterations;
    }
  }

  // Every (class, phase) model stack fits independently into its
  // preallocated slot, each with an RNG derived from (Seed, ClassId,
  // Phase) -- identical results for any worker count.
  struct FitTask {
    int ClassId;
    size_t Phase;
  };
  std::vector<FitTask> Fits;
  for (int ClassId : ClassIds)
    for (size_t Phase = 0; Phase < NumPhases; ++Phase)
      Fits.push_back({ClassId, Phase});

  Counter &FitCounter = MetricsRegistry::global().counter("train.fits");
  Histogram &FitMs = MetricsRegistry::global().histogram("train.fit_ms");
  ThreadPool Pool(ThreadPool::resolveWorkers(Opts.NumThreads));
  Pool.parallelFor(Fits.size(), [&](size_t T) {
    int ClassId = Fits[T].ClassId;
    size_t Phase = Fits[T].Phase;
    TraceSpan FitSpan("train.fit", "train");
    FitSpan.arg("class", static_cast<double>(ClassId));
    FitSpan.arg("phase", static_cast<double>(Phase));
    const ClassContext &Ctx = Contexts.at(ClassId);
    const std::set<std::vector<double>> &DistinctInputs = Ctx.DistinctInputs;
    const std::map<std::vector<double>, double> &NominalIterations =
        Ctx.NominalIterations;
    Rng BuildRng(deriveSeed(Opts.Seed, static_cast<uint64_t>(ClassId), Phase));

    {
      TrainingSet PhaseData = Ctx.ClassData.forPhase(static_cast<int>(Phase));
      assert(!PhaseData.empty() && "no samples for a (class, phase) pair");
      PhaseModels &PM =
          Model.Classes[static_cast<size_t>(ClassId)][Phase];

      // --- Local per-AB models (step 1 of Sec. 3.6) --------------------
      for (size_t B = 0; B < NumBlocks; ++B) {
        Dataset SpeedupData(localFeatureNames(NumInputs));
        Dataset QosData(localFeatureNames(NumInputs));
        for (const TrainingSample &S : PhaseData.samples()) {
          if (!onlyBlockApproximated(S, B))
            continue;
          std::vector<double> X = S.Input;
          X.push_back(static_cast<double>(S.Levels[B]));
          // Log-space targets: speedups and QoS degradations are
          // heavy-tailed (premature convergence, saturated instability),
          // and multiplicative structure is what the overall model
          // composes anyway.
          SpeedupData.addSample(X, std::log(std::max(S.Speedup, 1e-3)));
          QosData.addSample(X, std::log1p(S.QosDegradation));
        }
        // Anchor the exact configuration.
        for (const std::vector<double> &Input : DistinctInputs) {
          std::vector<double> X = Input;
          X.push_back(0.0);
          SpeedupData.addSample(X, 0.0); // log(1)
          QosData.addSample(X, 0.0);     // log1p(0)
        }
        PM.LocalSpeedup.push_back(
            SelectedModel::train(SpeedupData, Opts.Selection, BuildRng, &Pool));
        PM.LocalQos.push_back(
            SelectedModel::train(QosData, Opts.Selection, BuildRng, &Pool));
      }

      // --- Iteration estimator ------------------------------------------
      {
        Dataset IterData(iterFeatureNames(NumInputs, NumBlocks));
        for (const TrainingSample &S : PhaseData.samples()) {
          std::vector<double> X = S.Input;
          for (int L : S.Levels)
            X.push_back(static_cast<double>(L));
          IterData.addSample(X, S.OuterIterations);
        }
        for (const std::vector<double> &Input : DistinctInputs) {
          std::vector<double> X = Input;
          X.resize(NumInputs + NumBlocks, 0.0);
          IterData.addSample(X, NominalIterations.at(Input));
        }
        PM.IterationModel =
            SelectedModel::train(IterData, Opts.Selection, BuildRng, &Pool);
      }

      // --- Overall models (step 2 of Sec. 3.6) --------------------------
      {
        std::vector<std::string> Names;
        for (size_t B = 0; B < NumBlocks; ++B)
          Names.push_back(format("local_%zu", B));
        Names.push_back("iter_est");

        Dataset SpeedupData(Names), QosData(Names);
        for (const TrainingSample &S : PhaseData.samples()) {
          // Speedup features: local speedup predictions + iter estimate.
          std::vector<double> SFeat;
          std::vector<double> QFeat;
          for (size_t B = 0; B < NumBlocks; ++B) {
            std::vector<double> LocalX = S.Input;
            LocalX.push_back(static_cast<double>(S.Levels[B]));
            SFeat.push_back(PM.LocalSpeedup[B].predict(LocalX));
            QFeat.push_back(PM.LocalQos[B].predict(LocalX));
          }
          double IterEst = PM.predictIterations(S.Input, S.Levels);
          SFeat.push_back(IterEst);
          QFeat.push_back(IterEst);
          SpeedupData.addSample(SFeat, std::log(std::max(S.Speedup, 1e-3)));
          QosData.addSample(QFeat, std::log1p(S.QosDegradation));
        }
        // Anchor the exact configuration so the polynomial cannot run
        // wild at the all-zero corner, which joint sampling rarely
        // visits.
        std::vector<int> ZeroLevels(NumBlocks, 0);
        for (const std::vector<double> &Input : DistinctInputs) {
          std::vector<double> SFeat, QFeat;
          for (size_t B = 0; B < NumBlocks; ++B) {
            std::vector<double> LocalX = Input;
            LocalX.push_back(0.0);
            SFeat.push_back(PM.LocalSpeedup[B].predict(LocalX));
            QFeat.push_back(PM.LocalQos[B].predict(LocalX));
          }
          double IterEst = PM.predictIterations(Input, ZeroLevels);
          SFeat.push_back(IterEst);
          QFeat.push_back(IterEst);
          for (int Copy = 0; Copy < 3; ++Copy) {
            SpeedupData.addSample(SFeat, 0.0);
            QosData.addSample(QFeat, 0.0);
          }
        }
        PM.OverallSpeedup =
            SelectedModel::train(SpeedupData, Opts.Selection, BuildRng, &Pool);
        PM.OverallQos =
            SelectedModel::train(QosData, Opts.Selection, BuildRng, &Pool);
      }

      // --- ROI (Eq. 1) ---------------------------------------------------
      {
        double Sum = 0.0;
        for (const TrainingSample &S : PhaseData.samples())
          Sum += S.Speedup / std::max(S.QosDegradation, Opts.RoiQosFloor);
        PM.Roi = Sum / static_cast<double>(PhaseData.size());
      }
    }
    FitCounter.add();
    FitMs.record(FitSpan.seconds() * 1e3);
  });

  // Classes that never occurred get copies of class 0's models so
  // phaseModelsForClass never dereferences an empty slot.
  size_t FirstClass = static_cast<size_t>(*ClassIds.begin());
  for (auto &PerPhase : Model.Classes)
    if (PerPhase.empty())
      PerPhase = Model.Classes[FirstClass];

  return Model;
}
