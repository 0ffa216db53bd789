#include "crew/eval/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "crew/common/dcheck.h"
#include "crew/common/logging.h"
#include "crew/common/metrics.h"
#include "crew/common/thread_pool.h"
#include "crew/common/string_util.h"
#include "crew/common/timer.h"
#include "crew/common/trace.h"
#include "crew/eval/comprehensibility.h"
#include "crew/eval/stability.h"
#include "crew/eval/streaming.h"

namespace crew {
namespace {

std::atomic<bool> g_stable_timing{false};

}  // namespace

void SetStableTiming(bool stable) {
  g_stable_timing.store(stable, std::memory_order_relaxed);
}

bool StableTiming() {
  return g_stable_timing.load(std::memory_order_relaxed);
}

void ZeroCellTimings(ExperimentCell* cell) {
  cell->wall_ms = 0.0;
  cell->aggregate.runtime_ms = 0.0;
  for (MetricEntry& entry : cell->registry) entry.total_ms = 0.0;
  for (InstanceEvaluation& r : cell->instances) r.runtime_ms = 0.0;
}

namespace {

// Runner-level registry handles (interned once, leaked with the registry).
struct RunnerMetrics {
  Counter* instances;
  DurationStat* instance_wall;
  DurationStat* instance_cpu;
};

RunnerMetrics& Runner() {
  static RunnerMetrics* m = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* r = new RunnerMetrics();
    r->instances = reg.GetCounter("crew/runner/instances");
    r->instance_wall = reg.GetDuration("crew/runner/instance");
    r->instance_cpu = reg.GetDuration("crew/runner/instance_cpu");
    return r;
  }();
  return *m;
}

// --- Progress heartbeats ---------------------------------------------------

std::atomic<double> g_progress_interval{1.0};

std::mutex g_progress_label_mu;
std::string& ProgressLabelLocked() {
  static std::string* label = new std::string();
  return *label;
}

std::string ProgressLabel() {
  std::lock_guard<std::mutex> lock(g_progress_label_mu);
  return ProgressLabelLocked();
}

std::int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Throttled live progress for one EvaluateInstances call. Tick() is called
// once per finished instance from whichever worker finished it; emission is
// rate-limited by ProgressInterval() and serialized through a CAS on the
// last-emit timestamp. Purely observational: writes only to stderr.
class ProgressMeter {
 public:
  explicit ProgressMeter(int total)
      : total_(total), start_ns_(MonotonicNowNs()), last_emit_ns_(start_ns_) {}

  void Tick() {
    const int done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double interval = g_progress_interval.load(std::memory_order_relaxed);
    if (interval <= 0.0) return;
    const std::int64_t now = MonotonicNowNs();
    std::int64_t last = last_emit_ns_.load(std::memory_order_relaxed);
    const bool final_tick = done == total_;
    if (!final_tick &&
        static_cast<double>(now - last) < interval * 1e9) {
      return;
    }
    // One emitter per interval; losers simply skip.
    if (!last_emit_ns_.compare_exchange_strong(last, now,
                                               std::memory_order_relaxed)) {
      return;
    }
    // The final tick only reports when an earlier heartbeat already fired —
    // fast cells stay silent instead of spamming one line per cell.
    if (final_tick && !emitted_.load(std::memory_order_relaxed)) return;
    emitted_.store(true, std::memory_order_relaxed);
    const double elapsed_s =
        static_cast<double>(now - start_ns_) / 1e9;
    const double rate = elapsed_s > 0.0 ? done / elapsed_s : 0.0;
    const std::string label = ProgressLabel();
    // crew-lint: allow(raw-stdio): heartbeats are a raw operator channel by
    // design — no severity tag or timestamp prefix, so progress lines stay
    // grep-able and CREW_MIN_LOG_LEVEL cannot silence them.
    std::fprintf(stderr, "[progress] %s%s%d/%d instances (%.1f/s)\n",
                 label.c_str(), label.empty() ? "" : " ", done, total_, rate);
  }

 private:
  const int total_;
  const std::int64_t start_ns_;
  std::atomic<int> done_{0};
  std::atomic<std::int64_t> last_emit_ns_;
  std::atomic<bool> emitted_{false};
};

}  // namespace

void SetProgressInterval(double seconds) {
  g_progress_interval.store(seconds, std::memory_order_relaxed);
}

double ProgressInterval() {
  return g_progress_interval.load(std::memory_order_relaxed);
}

ScopedProgressLabel::ScopedProgressLabel(std::string label) {
  std::lock_guard<std::mutex> lock(g_progress_label_mu);
  saved_ = std::move(ProgressLabelLocked());
  ProgressLabelLocked() = std::move(label);
}

ScopedProgressLabel::~ScopedProgressLabel() {
  std::lock_guard<std::mutex> lock(g_progress_label_mu);
  ProgressLabelLocked() = std::move(saved_);
}

Result<InstanceEvaluation> EvaluateInstance(
    const Explainer& explainer, const Matcher& matcher, const Dataset& test,
    int index, const EmbeddingStore* embeddings, uint64_t seed,
    const InstanceEvalOptions& options) {
  CREW_TRACE_SPAN("runner/instance");
  CREW_DCHECK_BOUNDS(index, test.size());
  RunnerMetrics& rm = Runner();
  rm.instances->Increment();
  ScopedDuration wall(rm.instance_wall);
  ScopedCpuDuration cpu(rm.instance_cpu);
  InstanceEvaluation r;
  r.index = index;
  const RecordPair& pair = test.pair(index);
  const uint64_t instance_seed =
      seed ^ (static_cast<uint64_t>(index) << 20);
  auto explained = [&] {
    CREW_TRACE_SPAN("runner/explain");
    return ExplainAsUnitsEx(explainer, matcher, pair, instance_seed);
  }();
  if (!explained.ok()) return explained.status();
  const WordExplanation& words = explained->words;
  const std::vector<ExplanationUnit>& units = explained->units;
  if (units.empty()) return r;  // evaluated stays false
  r.evaluated = true;

  {
    CREW_TRACE_SPAN("runner/eval");
    ScopedMetricStage stage("eval");
    Tokenizer tokenizer;
    EvalInstance instance{
        PairTokenView(AnonymousSchema(pair), tokenizer, pair), units,
        words.base_score, matcher.threshold()};
    r.predicted_match = instance.PredictedMatch();

    // One scoring batch feeds every faithfulness metric of the instance.
    const FaithfulnessBatch batch(matcher, instance,
                                  options.insertion_max_k);
    r.aopc = AopcDeletion(batch, options.aopc_max_k);
    r.comprehensiveness_at_1 = ComprehensivenessAtK(batch, 1);
    r.comprehensiveness_at_3 = ComprehensivenessAtK(batch, 3);
    r.sufficiency_at_1 = SufficiencyAtK(batch, 1);
    r.sufficiency_at_3 = SufficiencyAtK(batch, 3);
    r.comprehensiveness_budget =
        ComprehensivenessAtTokenBudget(batch, options.token_budget);
    r.decision_flip = DecisionFlipAtTop(batch);
    r.insertion_aopc = AopcInsertion(batch, options.insertion_max_k);
    r.flip_set = MinimalFlipSet(batch);
    if (!options.curve_fractions.empty()) {
      r.curve = DeletionCurve(batch, options.curve_fractions);
    }

    const ComprehensibilityResult comp =
        EvaluateComprehensibility(words, units, embeddings);
    r.total_units = comp.total_units;
    r.effective_units = comp.effective_units;
    r.words_per_unit = comp.avg_words_per_unit;
    r.semantic_coherence = comp.semantic_coherence;
    r.attribute_purity = comp.attribute_purity;
  }

  r.has_cluster_stats = explained->has_cluster_stats;
  r.cluster_coherence = explained->cluster_coherence;
  r.cluster_silhouette = explained->cluster_silhouette;
  r.chosen_k = explained->chosen_k;

  if (!options.stability_seeds.empty()) {
    CREW_TRACE_SPAN("runner/stability");
    ScopedMetricStage stage("stability");
    auto stability =
        ExplainerStability(explainer, matcher, pair, options.stability_seeds,
                           options.stability_top_k);
    if (!stability.ok()) return stability.status();
    r.stability = stability.value();
  }

  r.surrogate_r2 = words.surrogate_r2;
  // The only wall-clock-derived per-instance field; see SetStableTiming.
  r.runtime_ms = StableTiming() ? 0.0 : words.runtime_ms;
  return r;
}

Result<std::vector<InstanceEvaluation>> EvaluateInstances(
    const Explainer& explainer, const Matcher& matcher, const Dataset& test,
    const std::vector<int>& indices, const EmbeddingStore* embeddings,
    uint64_t seed, const InstanceEvalOptions& options) {
  const int n = static_cast<int>(indices.size());
  for (int index : indices) CREW_DCHECK_BOUNDS(index, test.size());
  std::vector<InstanceEvaluation> records(n);
  std::vector<Status> errors(n);
  ProgressMeter progress(n);
  // Every slot is written by exactly one chunk, and the per-instance seed
  // depends only on the pair index, so any thread count produces the same
  // records. Scoring nested inside a chunk runs inline (ParallelFor's
  // nesting rule) — one pool, no oversubscription.
  ParallelFor(SharedScoringPool(), n, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      auto r = EvaluateInstance(explainer, matcher, test, indices[i],
                                embeddings, seed, options);
      if (r.ok()) {
        records[i] = std::move(r.value());
      } else {
        errors[i] = r.status();
      }
      progress.Tick();
    }
  });
  // First error in index order, so failures are as deterministic as
  // successes.
  for (const Status& status : errors) {
    if (!status.ok()) return status;
  }
  return records;
}

ExplainerAggregate ReduceInstancesIf(
    const std::string& name, const std::vector<InstanceEvaluation>& records,
    const std::function<bool(const InstanceEvaluation&)>& filter) {
  ExplainerAggregate agg;
  agg.name = name;
  int flipped = 0;
  int clustered = 0;
  for (const InstanceEvaluation& r : records) {
    if (!r.evaluated) continue;
    if (filter != nullptr && !filter(r)) continue;
    agg.aopc += r.aopc;
    agg.comprehensiveness_at_1 += r.comprehensiveness_at_1;
    agg.comprehensiveness_at_3 += r.comprehensiveness_at_3;
    agg.sufficiency_at_1 += r.sufficiency_at_1;
    agg.sufficiency_at_3 += r.sufficiency_at_3;
    agg.comprehensiveness_budget5 += r.comprehensiveness_budget;
    agg.decision_flip_rate += r.decision_flip ? 1.0 : 0.0;
    agg.insertion_aopc += r.insertion_aopc;
    if (r.flip_set.flipped) {
      agg.flip_set_rate += 1.0;
      agg.flip_set_units += r.flip_set.units_removed;
      agg.flip_set_tokens += r.flip_set.tokens_removed;
      ++flipped;
    }
    agg.total_units += r.total_units;
    agg.effective_units += r.effective_units;
    agg.words_per_unit += r.words_per_unit;
    agg.semantic_coherence += r.semantic_coherence;
    agg.attribute_purity += r.attribute_purity;
    if (r.has_cluster_stats) {
      agg.cluster_coherence += r.cluster_coherence;
      agg.cluster_silhouette += r.cluster_silhouette;
      agg.mean_chosen_k += r.chosen_k;
      ++clustered;
    }
    agg.stability += r.stability;
    agg.surrogate_r2 += r.surrogate_r2;
    agg.runtime_ms += r.runtime_ms;
    ++agg.instances;
  }
  if (agg.instances > 0) {
    const double inv = 1.0 / agg.instances;
    agg.aopc *= inv;
    agg.comprehensiveness_at_1 *= inv;
    agg.comprehensiveness_at_3 *= inv;
    agg.sufficiency_at_1 *= inv;
    agg.sufficiency_at_3 *= inv;
    agg.comprehensiveness_budget5 *= inv;
    agg.decision_flip_rate *= inv;
    agg.insertion_aopc *= inv;
    agg.flip_set_rate *= inv;
    agg.total_units *= inv;
    agg.effective_units *= inv;
    agg.words_per_unit *= inv;
    agg.semantic_coherence *= inv;
    agg.attribute_purity *= inv;
    agg.stability *= inv;
    agg.surrogate_r2 *= inv;
    agg.runtime_ms *= inv;
  }
  if (flipped > 0) {
    agg.flip_set_units /= flipped;
    agg.flip_set_tokens /= flipped;
  }
  if (clustered > 0) {
    agg.cluster_coherence /= clustered;
    agg.cluster_silhouette /= clustered;
    agg.mean_chosen_k /= clustered;
  }
  return agg;
}

ExplainerAggregate ReduceInstances(
    const std::string& name, const std::vector<InstanceEvaluation>& records) {
  return ReduceInstancesIf(name, records, nullptr);
}

std::vector<std::string> ExperimentResult::VariantNames() const {
  std::vector<std::string> names;
  for (const ExperimentCell& cell : cells) {
    if (std::find(names.begin(), names.end(), cell.variant) == names.end()) {
      names.push_back(cell.variant);
    }
  }
  return names;
}

std::vector<double> ExperimentResult::PerInstanceAopc(
    const std::string& variant) const {
  std::vector<double> out;
  for (const ExperimentCell& cell : cells) {
    if (cell.variant != variant) continue;
    for (const InstanceEvaluation& r : cell.instances) {
      if (r.evaluated) out.push_back(r.aopc);
    }
  }
  return out;
}

ExplainerAggregate ExperimentResult::ReduceAcross(
    const std::string& variant) const {
  std::vector<InstanceEvaluation> all;
  for (const ExperimentCell& cell : cells) {
    if (cell.variant != variant) continue;
    all.insert(all.end(), cell.instances.begin(), cell.instances.end());
  }
  return ReduceInstances(variant, all);
}

std::vector<double> ExperimentResult::MeanCurve(
    const std::string& variant) const {
  std::vector<double> sum;
  int n = 0;
  for (const ExperimentCell& cell : cells) {
    if (cell.variant != variant) continue;
    for (const InstanceEvaluation& r : cell.instances) {
      if (!r.evaluated || r.curve.empty()) continue;
      if (sum.empty()) sum.assign(r.curve.size(), 0.0);
      for (size_t i = 0; i < r.curve.size() && i < sum.size(); ++i) {
        sum[i] += r.curve[i];
      }
      ++n;
    }
  }
  if (n > 0) {
    for (double& v : sum) v /= n;
  }
  return sum;
}

std::vector<SuiteEntry> NameSuite(
    std::vector<std::unique_ptr<Explainer>> suite) {
  std::vector<SuiteEntry> out;
  out.reserve(suite.size());
  for (auto& explainer : suite) {
    SuiteEntry entry;
    entry.name = explainer->Name();
    entry.explainer = std::move(explainer);
    out.push_back(std::move(entry));
  }
  return out;
}

Result<PreparedDataset> PrepareDataset(const BenchmarkEntry& entry,
                                       const ExperimentSpec& spec) {
  CREW_TRACE_SPAN("runner/prepare");
  PreparedDataset out;
  out.name = entry.name;
  auto dataset = GenerateDataset(entry.config);
  if (!dataset.ok()) return dataset.status();
  auto pipeline = TrainPipeline(dataset.value(), spec.matcher,
                                spec.train_fraction, spec.seed);
  if (!pipeline.ok()) return pipeline.status();
  out.pipeline = std::move(pipeline.value());
  // Same selection seed the benches have always used, so the explained
  // pairs (and every downstream number) survive the refactor unchanged.
  Rng rng(spec.seed ^ 0xbeac4ULL);
  out.instances =
      SelectExplainInstances(*out.pipeline.matcher, out.pipeline.test,
                             spec.instances_per_dataset, rng);
  return out;
}

ExperimentResult ExperimentRunner::EmptyResult() const {
  ExperimentResult out;
  out.name = spec_.name;
  out.params.push_back({"matcher", MatcherKindName(spec_.matcher)});
  out.params.push_back(
      {"instances", std::to_string(spec_.instances_per_dataset)});
  out.params.push_back({"seed", std::to_string(spec_.seed)});
  out.params.push_back({"threads", std::to_string(ScoringThreads())});
  return out;
}

Result<ExperimentResult> ExperimentRunner::RunWith(
    const std::function<Status(const PreparedDataset&, ExperimentResult*)>&
        fn,
    const RunHooks& hooks) const {
  ExperimentResult out = EmptyResult();
  CellStreamer streamer(hooks);
  // The runner does not know how many cells `fn` will append; a seed-armed
  // fault resolves against the dataset count (one "window" per dataset).
  CREW_RETURN_IF_ERROR(
      streamer.Begin(out, static_cast<int>(spec_.datasets.size())));
  size_t streamed = 0;
  for (const BenchmarkEntry& entry : spec_.datasets) {
    CREW_RETURN_IF_ERROR(streamer.BeforeFreshCell());
    auto prepared = PrepareDataset(entry, spec_);
    if (!prepared.ok()) return prepared.status();
    Status status = fn(prepared.value(), &out);
    if (!status.ok()) return status;
    // Stream whatever the dataset callback appended. Appends are
    // idempotent per cell key, so re-running over an existing checkpoint
    // never duplicates lines — but custom cells are not skipped either
    // (the runner cannot resume work it does not schedule itself).
    for (; streamed < out.cells.size(); ++streamed) {
      if (StableTiming()) ZeroCellTimings(&out.cells[streamed]);
      CREW_RETURN_IF_ERROR(streamer.Emit(out.cells[streamed]));
    }
  }
  CREW_RETURN_IF_ERROR(streamer.Finish(out));
  return out;
}

namespace {

std::vector<std::string> VariantNamesOf(const std::vector<SuiteEntry>& suite) {
  std::vector<std::string> names;
  names.reserve(suite.size());
  for (const SuiteEntry& entry : suite) names.push_back(entry.name);
  return names;
}

// Evaluates one fresh cell of the grid into `cell`.
Status ComputeCell(const ExperimentSpec& spec, const PreparedDataset& p,
                   const SuiteEntry& entry, ExperimentCell* cell) {
  ScopedProgressLabel label(p.name + "/" + entry.name);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  WallTimer timer;
  auto records = EvaluateInstances(
      *entry.explainer, *p.pipeline.matcher, p.pipeline.test, p.instances,
      p.pipeline.embeddings.get(), spec.seed, spec.eval);
  if (!records.ok()) return records.status();
  cell->dataset = p.name;
  cell->variant = entry.name;
  cell->wall_ms = timer.ElapsedMillis();
  // All-zero entries are dropped so the delta's shape reflects this
  // cell's activity only — metrics a *previous* cell registered must not
  // leak in, or the block would depend on execution order.
  cell->registry = DropZeroMetrics(
      MetricsDelta(MetricsRegistry::Global().Snapshot(), before));
  cell->instances = std::move(records.value());
  {
    CREW_TRACE_SPAN("runner/reduce");
    cell->aggregate = ReduceInstances(entry.name, cell->instances);
  }
  if (StableTiming()) ZeroCellTimings(cell);
  return Status::Ok();
}

// Where grid row `row`'s PreparedDataset comes from: Run() prepares it
// into `*owned`, RunPrepared() lends the caller's.
using PreparedSource = std::function<Result<const PreparedDataset*>(
    size_t row, std::optional<PreparedDataset>* owned)>;

// The one cell loop behind Run() and RunPrepared(). The key grid (`rows`
// x the suite's variant names) is fixed before anything is prepared, so
// a restored cell never waits for set-up: a row's dataset is obtained
// (and its suite built) when its first fresh cell comes up, and released
// after its last cell in execution order.
Result<ExperimentResult> RunGrid(const ExperimentSpec& spec,
                                 ExperimentResult out,
                                 const std::vector<std::string>& rows,
                                 const PreparedSource& source,
                                 const RunHooks& hooks) {
  CREW_CHECK(spec.suite != nullptr);
  // Checkpoint keys and result positions are a function of the spec
  // alone, never of execution order or of what has been prepared.
  const std::vector<std::string> variants =
      VariantNamesOf(spec.suite(TrainedPipeline()));
  const size_t width = variants.size();
  out.cells.resize(rows.size() * width);

  CellStreamer streamer(hooks);
  CREW_RETURN_IF_ERROR(
      streamer.Begin(out, static_cast<int>(out.cells.size())));

  // Execution order is a pure schedule: shuffling it (shuffle_seed) or
  // skipping restored cells changes which slot is filled when, never what
  // any slot contains — per-instance seeds derive from the grid key.
  std::vector<int> order(out.cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  if (hooks.shuffle_seed != 0) {
    Rng(hooks.shuffle_seed).Shuffle(order);
  }
  std::vector<size_t> last_use(rows.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    last_use[static_cast<size_t>(order[i]) / width] = i;
  }

  struct LiveRow {
    std::optional<PreparedDataset> owned;
    const PreparedDataset* prepared = nullptr;
    std::vector<SuiteEntry> suite;
  };
  std::vector<LiveRow> live(rows.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t row = static_cast<size_t>(order[i]) / width;
    const size_t variant = static_cast<size_t>(order[i]) % width;
    ExperimentCell& cell = out.cells[order[i]];
    auto restored = streamer.TryRestore(rows[row], variants[variant], &cell);
    if (!restored.ok()) return restored.status();
    if (!restored.value()) {
      CREW_RETURN_IF_ERROR(streamer.BeforeFreshCell());
      LiveRow& r = live[row];
      if (r.prepared == nullptr) {
        auto prepared = source(row, &r.owned);
        if (!prepared.ok()) return prepared.status();
        r.prepared = prepared.value();
        r.suite = spec.suite(r.prepared->pipeline);
        const std::vector<std::string> names = VariantNamesOf(r.suite);
        if (names != variants) {
          return Status::InvalidArgument(
              "ExperimentSpec::suite returned variants [" +
              Join(names, ",") + "] for dataset " + rows[row] + " but [" +
              Join(variants, ",") +
              "] without a pipeline; its names must not depend on the "
              "pipeline");
        }
      }
      CREW_RETURN_IF_ERROR(
          ComputeCell(spec, *r.prepared, r.suite[variant], &cell));
      CREW_RETURN_IF_ERROR(streamer.Emit(cell));
    }
    if (i == last_use[row]) live[row] = LiveRow();
  }
  CREW_RETURN_IF_ERROR(streamer.Finish(out));
  return out;
}

}  // namespace

Result<ExperimentResult> ExperimentRunner::RunPrepared(
    const std::vector<PreparedDataset>& prepared,
    const RunHooks& hooks) const {
  std::vector<std::string> rows;
  rows.reserve(prepared.size());
  for (const PreparedDataset& p : prepared) rows.push_back(p.name);
  return RunGrid(
      spec_, EmptyResult(), rows,
      [&prepared](size_t row, std::optional<PreparedDataset>*)
          -> Result<const PreparedDataset*> { return &prepared[row]; },
      hooks);
}

Result<ExperimentResult> ExperimentRunner::Run(const RunHooks& hooks) const {
  std::vector<std::string> rows;
  rows.reserve(spec_.datasets.size());
  for (const BenchmarkEntry& entry : spec_.datasets) rows.push_back(entry.name);
  return RunGrid(
      spec_, EmptyResult(), rows,
      [this](size_t row, std::optional<PreparedDataset>* owned)
          -> Result<const PreparedDataset*> {
        auto prepared = PrepareDataset(spec_.datasets[row], spec_);
        if (!prepared.ok()) return prepared.status();
        return &owned->emplace(std::move(prepared.value()));
      },
      hooks);
}

}  // namespace crew
