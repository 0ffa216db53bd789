#ifndef CREW_EVAL_RUNNER_H_
#define CREW_EVAL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/metrics.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/experiment.h"
#include "crew/eval/faithfulness.h"
#include "crew/model/trainer.h"

namespace crew {

class StreamingSink;
class CheckpointStore;
class FaultInjector;

/// Stable-timing mode: when enabled, every wall-clock-derived field the
/// runner records (InstanceEvaluation::runtime_ms, ExperimentCell::wall_ms,
/// registry duration totals) is forced to zero. Counts, metric values, and
/// everything seeded stay untouched. This is what makes "resumed run ==
/// uninterrupted run" checkable *byte for byte*: timing is the only
/// legitimately nondeterministic output, so the resume tests and the CI
/// resume-smoke diff run with --stable-timing on both sides.
/// Process-global, default off.
void SetStableTiming(bool stable);
bool StableTiming();

/// Forces every wall-clock-derived field of `cell` to zero (wall_ms,
/// registry duration totals, per-instance runtime_ms) — the normalization
/// stable-timing mode applies to fresh and checkpoint-restored cells alike.
struct ExperimentCell;
void ZeroCellTimings(ExperimentCell* cell);

/// Optional streaming/restart plumbing threaded through ExperimentRunner.
/// Default-constructed hooks are inert: no sinks, no checkpoint, no fault
/// injection, canonical schedule — the pre-streaming behavior exactly.
struct RunHooks {
  /// Receive every cell as it completes (completion order, including
  /// checkpoint-restored cells, which arrive with restored=true).
  std::vector<StreamingSink*> sinks;
  /// When set, completed cells are durably appended here and cells already
  /// present are restored instead of recomputed (--resume).
  CheckpointStore* checkpoint = nullptr;
  /// When set, the runner consults it before each fresh cell and "crashes"
  /// deterministically once armed (--fail-after-cells / CREW_FAULT_SEED).
  FaultInjector* fault = nullptr;
  /// Prefix for checkpoint cell keys; disambiguates repeated grids over
  /// the same dataset x variant pairs (e.g. bench_f4's sweep points).
  std::string scope;
  /// Non-zero: execute the grid in an Rng(shuffle_seed)-shuffled order.
  /// Results land in canonical slots regardless — this exists so tests can
  /// prove cell results are independent of completion order.
  uint64_t shuffle_seed = 0;
};

/// Minimum seconds between runner progress heartbeats on stderr
/// ("[progress] dataset/variant done/total (rate/s)"). <= 0 disables them
/// entirely. Heartbeats are throttled and observation-only: they never
/// change what the runner computes. Default: 1 second.
void SetProgressInterval(double seconds);
double ProgressInterval();

/// Label prefixed to progress heartbeats while in scope (the runner sets
/// "dataset/variant" around each cell). Process-global, save/restore.
class ScopedProgressLabel {
 public:
  explicit ScopedProgressLabel(std::string label);
  ~ScopedProgressLabel();
  ScopedProgressLabel(const ScopedProgressLabel&) = delete;
  ScopedProgressLabel& operator=(const ScopedProgressLabel&) = delete;

 private:
  std::string saved_;
};

/// Knobs for the per-instance metric block. Defaults reproduce the
/// historical EvaluateExplainerOnDataset numbers; the optional extras
/// (deletion curve, seed stability) are only computed when requested so
/// the common path stays cheap.
struct InstanceEvalOptions {
  int aopc_max_k = 5;
  int insertion_max_k = 3;
  int token_budget = 5;
  /// Non-empty: also record the deletion curve at these fractions.
  std::vector<double> curve_fractions;
  /// Non-empty: also re-explain with each seed and record the mean
  /// pairwise top-k Jaccard (ExplainerStability).
  std::vector<uint64_t> stability_seeds;
  int stability_top_k = 10;
};

/// Everything one explained instance contributes to any experiment table —
/// the pure per-instance record the runner shards and reduces.
struct InstanceEvaluation {
  int index = -1;         ///< pair index in the test split
  bool evaluated = false;  ///< false when the explanation had no units
  bool predicted_match = false;
  // Faithfulness.
  double aopc = 0.0;
  double comprehensiveness_at_1 = 0.0;
  double comprehensiveness_at_3 = 0.0;
  double sufficiency_at_1 = 0.0;
  double sufficiency_at_3 = 0.0;
  double comprehensiveness_budget = 0.0;
  bool decision_flip = false;
  double insertion_aopc = 0.0;
  FlipSetResult flip_set;
  /// Aligned with InstanceEvalOptions::curve_fractions; empty if not asked.
  std::vector<double> curve;
  // Comprehensibility.
  double total_units = 0.0;
  double effective_units = 0.0;
  double words_per_unit = 0.0;
  double semantic_coherence = 0.0;
  double attribute_purity = 0.0;
  // Cluster diagnostics (CREW only).
  bool has_cluster_stats = false;
  double cluster_coherence = 0.0;
  double cluster_silhouette = 0.0;
  int chosen_k = 0;
  /// Mean pairwise Jaccard across stability_seeds; 0 when not measured.
  double stability = 0.0;
  // Bookkeeping.
  double surrogate_r2 = 0.0;
  double runtime_ms = 0.0;
};

/// Explains `test.pair(index)` and computes the full per-instance metric
/// block. Pure given its inputs: the instance seed derives as
/// `seed ^ (index << 20)`, so the result is independent of which thread or
/// in which order instances run.
Result<InstanceEvaluation> EvaluateInstance(
    const Explainer& explainer, const Matcher& matcher, const Dataset& test,
    int index, const EmbeddingStore* embeddings, uint64_t seed,
    const InstanceEvalOptions& options = InstanceEvalOptions());

/// EvaluateInstance over `indices`, sharded across the shared scoring pool
/// (SetScoringThreads). Results are written by index and errors are
/// reported in index order, so output is bit-identical for any thread
/// count. Perturbation scoring nested inside a sharded instance runs
/// inline (see ParallelFor's nesting rule) — the two parallelism levels
/// compose without oversubscribing the pool.
Result<std::vector<InstanceEvaluation>> EvaluateInstances(
    const Explainer& explainer, const Matcher& matcher, const Dataset& test,
    const std::vector<int>& indices, const EmbeddingStore* embeddings,
    uint64_t seed, const InstanceEvalOptions& options = InstanceEvalOptions());

/// Deterministic reduction of per-instance records (in vector order) to
/// the per-explainer aggregate. Unevaluated records are skipped, matching
/// the historical serial loop bit-for-bit.
ExplainerAggregate ReduceInstances(
    const std::string& name, const std::vector<InstanceEvaluation>& records);

/// ReduceInstances over the subset where `filter` holds (e.g. predicted
/// matches only, for the match/non-match split tables).
ExplainerAggregate ReduceInstancesIf(
    const std::string& name, const std::vector<InstanceEvaluation>& records,
    const std::function<bool(const InstanceEvaluation&)>& filter);

/// One dataset's trained pipeline + selected explanation instances — the
/// prepare stage shared by every experiment.
struct PreparedDataset {
  std::string name;
  TrainedPipeline pipeline;
  std::vector<int> instances;
};

/// One cell of the experiment grid: (dataset, variant) with its aggregate,
/// the per-instance records behind it, and the scoring-engine counters
/// attributed to computing it. `variant` is usually an explainer name but
/// ablation experiments use design-case labels ("sem+attr", "k=4", ...).
struct ExperimentCell {
  std::string dataset;
  std::string variant;
  ExplainerAggregate aggregate;
  std::vector<InstanceEvaluation> instances;
  /// Full metrics-registry delta while this cell ran (scoring-engine
  /// counters, per-stage counters, stage durations, batch-size histogram
  /// buckets).
  MetricsSnapshot registry;
  double wall_ms = 0.0;
  /// Extra named values for cells that don't come from the standard
  /// per-instance engine (dataset stats, matcher P/R/F1, sweeps).
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Full structured result of one experiment: the grid plus the parameters
/// that produced it. Sinks (crew/eval/sinks.h) turn this into aligned
/// tables and JSON.
struct ExperimentResult {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<ExperimentCell> cells;
  /// When true, sinks also emit each cell's registry delta (--metrics).
  bool include_metrics = false;

  /// Variant names in first-appearance order.
  std::vector<std::string> VariantNames() const;

  /// Per-instance AOPC samples of `variant`, concatenated across datasets
  /// in cell order (only evaluated instances) — the paired vectors the
  /// significance tests consume.
  std::vector<double> PerInstanceAopc(const std::string& variant) const;

  /// Aggregate of `variant` over all its cells' instances (cross-dataset
  /// mean, weighted by instance like the historical accumulation loops).
  ExplainerAggregate ReduceAcross(const std::string& variant) const;

  /// Mean deletion curve of `variant` across all evaluated instances of
  /// all datasets; empty when no curve was recorded.
  std::vector<double> MeanCurve(const std::string& variant) const;
};

/// Named explainer line-up entry. The name is the grid's variant label —
/// ablations reuse one explainer class under several configurations, so it
/// can differ from Explainer::Name().
struct SuiteEntry {
  std::string name;
  std::unique_ptr<Explainer> explainer;
};

/// Labels a BuildExplainerSuite-style line-up with each explainer's own
/// Name().
std::vector<SuiteEntry> NameSuite(
    std::vector<std::unique_ptr<Explainer>> suite);

/// Declarative description of one experiment: the dataset x matcher x
/// explainer grid plus the evaluation knobs.
struct ExperimentSpec {
  std::string name;
  std::vector<BenchmarkEntry> datasets;
  MatcherKind matcher = MatcherKind::kMlp;
  double train_fraction = 0.7;
  int instances_per_dataset = 12;
  uint64_t seed = 7;
  InstanceEvalOptions eval;
  /// Builds the explainer line-up for one prepared pipeline. Required by
  /// Run() and RunPrepared(); RunWith-based experiments may leave it empty.
  ///
  /// Contract: the variant names must not depend on the pipeline. The
  /// runner lists them once by calling `suite(TrainedPipeline())` (no
  /// matcher, no embeddings, empty splits) before anything is prepared, so
  /// a factory may only capture the pipeline's members, never dereference
  /// them while building. Every call on a real pipeline must return the
  /// same names in the same order; a run whose factory breaks this fails
  /// with InvalidArgument.
  std::function<std::vector<SuiteEntry>(const TrainedPipeline&)> suite;
};

/// Generates + trains one dataset of the spec and selects its explanation
/// instances (seeded exactly like the historical bench prepare step).
Result<PreparedDataset> PrepareDataset(const BenchmarkEntry& entry,
                                       const ExperimentSpec& spec);

/// Executes an ExperimentSpec key-first: the whole grid of cell keys
/// (spec.datasets x the suite's variant names) is known before any dataset
/// is prepared, checkpoint-restored cells are copied first, and a dataset
/// is set up only when one of its cells must be computed. Fresh cells
/// evaluate every instance (sharded across the scoring pool) and reduce
/// deterministically into the structured grid.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentSpec spec) : spec_(std::move(spec)) {}

  const ExperimentSpec& spec() const { return spec_; }

  /// The standard grid: spec.datasets x spec.suite, walked slot by slot in
  /// canonical (or `hooks.shuffle_seed`-shuffled) order. A slot the
  /// checkpoint holds is restored and streamed without any set-up. A
  /// dataset is prepared (PrepareDataset) when the first of its cells that
  /// is not restored comes up, after the fault-injection check and before
  /// the cell's registry snapshot, and released after its last cell; a
  /// resume over a finished checkpoint therefore costs only the checkpoint
  /// load. `hooks` (optional) adds streaming sinks, checkpoint
  /// restore/append, fault injection, and schedule shuffling; default
  /// hooks reproduce the plain batch run.
  Result<ExperimentResult> Run(const RunHooks& hooks = RunHooks()) const;

  /// Run() over externally prepared datasets — lets budget sweeps reuse
  /// one trained pipeline across several runner invocations. Same cell
  /// loop as Run(); the grid's rows are `prepared` (by name) instead of
  /// spec.datasets, and a row's suite is built only when one of its cells
  /// must be computed.
  Result<ExperimentResult> RunPrepared(
      const std::vector<PreparedDataset>& prepared,
      const RunHooks& hooks = RunHooks()) const;

  /// Shared prepare + emit scaffolding for experiments whose cell
  /// production is custom (global explanations, matcher quality): `fn` is
  /// invoked once per prepared dataset and appends cells. Cells appended
  /// by `fn` are streamed/checkpointed after each dataset completes, but —
  /// unlike the standard grid — already-checkpointed cells are not skipped
  /// (the runner cannot resume work it does not schedule itself).
  Result<ExperimentResult> RunWith(
      const std::function<Status(const PreparedDataset&, ExperimentResult*)>&
          fn,
      const RunHooks& hooks = RunHooks()) const;

 private:
  ExperimentResult EmptyResult() const;

  ExperimentSpec spec_;
};

}  // namespace crew

#endif  // CREW_EVAL_RUNNER_H_
