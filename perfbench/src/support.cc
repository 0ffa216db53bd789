#include "support.h"

#include <sys/resource.h>

#include <ctime>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "crew/common/rng.h"
#include "crew/data/generator.h"
#include "crew/embed/sgns.h"
#include "crew/eval/experiment.h"
#include "crew/model/features.h"
#include "crew/model/metrics.h"
#include "crew/model/trainer.h"

namespace perfbench {

using crew::ExperimentCell;
using crew::ExperimentResult;
using crew::MetricEntry;
using crew::MetricsSnapshot;
using crew::PreparedDataset;
using crew::Result;
using crew::Status;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// --- Report ---------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  if (std::find(failures_.begin(), failures_.end(), what) != failures_.end()) {
    return;  // report each distinct failure once
  }
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

void Report::Print() const {
  for (const std::vector<Metric>* list : {&metrics_, &notes_}) {
    for (const Metric& m : *list) {
      std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("attempted %lld failed 0 checks %s\n",
              static_cast<long long>(attempted_),
              failures_.empty() ? "passed" : "FAILED");
  std::string json = "{\"correct\": ";
  json += failures_.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": 0";
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics_[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Tracer ---------------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr),
      name_(name) {
  if (tracer_ != nullptr) start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  auto ns = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  };
  tracer_->events_.push_back(
      {name_, ns(start_ - tracer_->epoch_), ns(end - start_), 1});
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  const std::string json = crew::TraceEventsToChromeJson(events_);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::NotFound("cannot write " + path);
  const bool written = std::fwrite(json.data(), 1, json.size(), f) ==
                       json.size();
  const bool ok = std::fclose(f) == 0 && written;
  return ok ? Status::Ok() : Status::Internal("write failed: " + path);
}

// --- TimedMatcher ---------------------------------------------------------

MatcherCounts MatcherCounts::operator-(const MatcherCounts& o) const {
  return {single_calls - o.single_calls, single_ns - o.single_ns,
          batch_calls - o.batch_calls, batch_pairs - o.batch_pairs,
          batch_ns - o.batch_ns};
}

MatcherCounts& MatcherCounts::operator+=(const MatcherCounts& o) {
  single_calls += o.single_calls;
  single_ns += o.single_ns;
  batch_calls += o.batch_calls;
  batch_pairs += o.batch_pairs;
  batch_ns += o.batch_ns;
  return *this;
}

namespace {

int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

double TimedMatcher::PredictProba(const crew::RecordPair& pair) const {
  const Clock::time_point start = Clock::now();
  const double score = inner_->PredictProba(pair);
  single_ns_.fetch_add(NanosSince(start), std::memory_order_relaxed);
  single_calls_.fetch_add(1, std::memory_order_relaxed);
  return score;
}

void TimedMatcher::PredictProbaBatch(const crew::RecordPair* pairs,
                                     size_t count, double* out) const {
  const Clock::time_point start = Clock::now();
  inner_->PredictProbaBatch(pairs, count, out);
  batch_ns_.fetch_add(NanosSince(start), std::memory_order_relaxed);
  batch_pairs_.fetch_add(static_cast<int64_t>(count),
                         std::memory_order_relaxed);
  const int64_t call =
      batch_calls_.fetch_add(1, std::memory_order_relaxed);
  if (count > 0 && call % kSampleEvery == 0) {
    std::lock_guard<std::mutex> lock(sample_mu_);
    if (sample_.size() < kSampleCap) sample_.push_back(pairs[count / 2]);
  }
}

MatcherCounts TimedMatcher::counts() const {
  MatcherCounts c;
  c.single_calls = single_calls_.load(std::memory_order_relaxed);
  c.single_ns = single_ns_.load(std::memory_order_relaxed);
  c.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  c.batch_pairs = batch_pairs_.load(std::memory_order_relaxed);
  c.batch_ns = batch_ns_.load(std::memory_order_relaxed);
  return c;
}

std::vector<crew::RecordPair> TimedMatcher::sample() const {
  std::lock_guard<std::mutex> lock(sample_mu_);
  return sample_;
}

void WrapMatchers(std::vector<PreparedDataset>* prepared) {
  for (PreparedDataset& p : *prepared) {
    p.pipeline.matcher =
        std::make_unique<TimedMatcher>(std::move(p.pipeline.matcher));
  }
}

void UnwrapMatchers(std::vector<PreparedDataset>* prepared) {
  for (PreparedDataset& p : *prepared) {
    if (auto* timed = dynamic_cast<TimedMatcher*>(p.pipeline.matcher.get())) {
      p.pipeline.matcher = timed->Release();
    }
  }
}

namespace {

MatcherCounts SumCounts(const std::vector<PreparedDataset>& prepared) {
  MatcherCounts total;
  for (const PreparedDataset& p : prepared) {
    if (const auto* timed =
            dynamic_cast<const TimedMatcher*>(p.pipeline.matcher.get())) {
      total += timed->counts();
    }
  }
  return total;
}

}  // namespace

// --- Set-up ---------------------------------------------------------------

namespace {

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

bool SameMetrics(const crew::ClassificationMetrics& a,
                 const crew::ClassificationMetrics& b) {
  return a.true_positives == b.true_positives &&
         a.false_positives == b.false_positives &&
         a.true_negatives == b.true_negatives &&
         a.false_negatives == b.false_negatives;
}

Result<std::vector<PreparedDataset>> PrepareAll(
    const crew::ExperimentSpec& spec) {
  std::vector<PreparedDataset> out;
  out.reserve(spec.datasets.size());
  for (const crew::BenchmarkEntry& entry : spec.datasets) {
    auto p = crew::PrepareDataset(entry, spec);
    if (!p.ok()) return p.status();
    out.push_back(std::move(p.value()));
  }
  return out;
}

// Prepares one dataset by calling TrainPipeline's steps one at a time
// (GenerateDataset, Split, TrainSgnsEmbeddings, TrainMatcher,
// EvaluateMatcher, SelectExplainInstances) so the traced run can split
// set-up by layer. The caller compares the result with PrepareDataset's.
Result<PreparedDataset> PrepareStepwise(const crew::BenchmarkEntry& entry,
                                        const crew::ExperimentSpec& spec,
                                        Tracer* tracer, SetupSplit* split) {
  Tracer::Span whole(tracer, "setup/dataset");
  PreparedDataset out;
  out.name = entry.name;
  crew::TrainedPipeline& p = out.pipeline;

  Clock::time_point t = Clock::now();
  Result<crew::Dataset> dataset = [&] {
    Tracer::Span span(tracer, "data/generate");
    return crew::GenerateDataset(entry.config);
  }();
  if (!dataset.ok()) return dataset.status();
  split->generate_ms += MsSince(t);

  {
    Tracer::Span span(tracer, "data/split");
    crew::Rng rng(spec.seed);
    dataset->Split(spec.train_fraction, rng, &p.train, &p.test);
  }

  t = Clock::now();
  {
    Tracer::Span span(tracer, "embed/sgns_train");
    crew::Tokenizer tokenizer;
    crew::SgnsConfig sgns;
    sgns.seed = spec.seed ^ 0x5eedULL;  // as TrainPipeline seeds it
    auto embeddings =
        crew::TrainSgnsEmbeddings(crew::BuildCorpus(p.train, tokenizer), sgns);
    if (!embeddings.ok()) return embeddings.status();
    p.embeddings = std::make_shared<const crew::EmbeddingStore>(
        std::move(embeddings.value()));
  }
  split->sgns_ms += MsSince(t);

  t = Clock::now();
  {
    Tracer::Span span(tracer, "model/train");
    auto matcher =
        crew::TrainMatcher(spec.matcher, p.train, p.embeddings, spec.seed);
    if (!matcher.ok()) return matcher.status();
    p.matcher = std::move(matcher.value());
  }
  split->train_ms += MsSince(t);

  {
    Tracer::Span span(tracer, "model/evaluate");
    p.test_metrics = crew::EvaluateMatcher(*p.matcher, p.test);
  }
  {
    Tracer::Span span(tracer, "eval/select_instances");
    crew::Rng rng(spec.seed ^ 0xbeac4ULL);  // as PrepareDataset seeds it
    out.instances = crew::SelectExplainInstances(
        *p.matcher, p.test, spec.instances_per_dataset, rng);
  }
  return out;
}

}  // namespace

Result<std::vector<PreparedDataset>> TimedSetup(
    const crew::ExperimentSpec& spec, int reps, Tracer* tracer,
    Report* report, std::vector<double>* cpu_seconds,
    std::vector<double>* wall_seconds, SetupSplit* split_median) {
  const bool traced = tracer != nullptr && tracer->enabled();
  std::vector<PreparedDataset> kept;
  for (int r = 0; r < (traced ? 1 : reps); ++r) {
    const Stopwatch watch;
    Tracer::Span span(tracer, "setup/prepare_all");
    auto prepared = PrepareAll(spec);
    if (!prepared.ok()) return prepared.status();
    cpu_seconds->push_back(watch.CpuSeconds());
    wall_seconds->push_back(watch.WallSeconds());
    kept = std::move(prepared.value());
  }
  if (!traced) return kept;

  // Traced: the same set-up step by step, checked against PrepareDataset.
  std::vector<double> generate, sgns, train;
  for (int r = 0; r < reps; ++r) {
    SetupSplit split;
    std::vector<PreparedDataset> stepwise;
    for (size_t i = 0; i < spec.datasets.size(); ++i) {
      auto p = PrepareStepwise(spec.datasets[i], spec, tracer, &split);
      if (!p.ok()) return p.status();
      report->Check(
          SameMetrics(p->pipeline.test_metrics, kept[i].pipeline.test_metrics),
          "stepwise set-up test metrics equal TrainPipeline's on " +
              kept[i].name);
      report->Check(p->instances == kept[i].instances,
                    "stepwise set-up selects PrepareDataset's instances on " +
                        kept[i].name);
      stepwise.push_back(std::move(p.value()));
    }
    generate.push_back(split.generate_ms);
    sgns.push_back(split.sgns_ms);
    train.push_back(split.train_ms);
    kept = std::move(stepwise);
  }
  split_median->generate_ms = Median(generate);
  split_median->sgns_ms = Median(sgns);
  split_median->train_ms = Median(train);
  return kept;
}

// --- Grid helpers ---------------------------------------------------------

Status CaptureSink::OnBegin(const ExperimentResult& header) {
  (void)header;
  if (begin_time_ == Clock::time_point{}) begin_time_ = Clock::now();
  return Status::Ok();
}

Status CaptureSink::OnCell(const ExperimentCell& cell, bool restored) {
  cells_.push_back({cell, restored});
  return Status::Ok();
}

namespace {

const std::vector<std::string>& SuiteVariants() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "lime",        "mojito_drop", "mojito_copy", "landmark", "lemon",
      "kernel_shap", "certa",       "random",      "wym",      "crew"};
  return *names;
}

}  // namespace

std::string StableCellText(const ExperimentCell& cell) {
  ExperimentCell copy = cell;
  crew::ZeroCellTimings(&copy);
  return crew::CellToJsonl("", copy);
}

int64_t EvaluatedInstances(const ExperimentResult& result) {
  int64_t n = 0;
  for (const ExperimentCell& cell : result.cells) {
    for (const crew::InstanceEvaluation& r : cell.instances) {
      n += r.evaluated ? 1 : 0;
    }
  }
  return n;
}

int64_t AllInstances(const ExperimentResult& result) {
  int64_t n = 0;
  for (const ExperimentCell& cell : result.cells) {
    n += static_cast<int64_t>(cell.instances.size());
  }
  return n;
}

Result<std::vector<double>> WriteCheckpoint(const ExperimentResult& result,
                                            const std::string& path) {
  std::remove(path.c_str());
  crew::CheckpointStore store(path);
  CREW_RETURN_IF_ERROR(store.Load());
  CREW_RETURN_IF_ERROR(store.WriteHeaderIfNew(result));
  std::vector<double> append_ms;
  for (const ExperimentCell& cell : result.cells) {
    const Clock::time_point start = Clock::now();
    CREW_RETURN_IF_ERROR(store.Append("", cell));
    append_ms.push_back(MsSince(start));
  }
  return append_ms;
}

Result<RestartTiming> TimedRestart(const crew::ExperimentSpec& spec,
                                   const std::string& checkpoint,
                                   const std::string& stream_path,
                                   Tracer* tracer) {
  Tracer::Span whole(tracer, "restart");
  RestartTiming out;
  const Stopwatch watch;
  const Clock::time_point start = Clock::now();
  crew::CheckpointStore store(checkpoint);
  {
    Tracer::Span span(tracer, "stream/load");
    CREW_RETURN_IF_ERROR(store.Load());
  }
  out.load_ms = MsSince(start);
  crew::JsonlStreamSink stream(stream_path);
  CaptureSink capture;
  crew::RunHooks hooks;
  hooks.checkpoint = &store;
  hooks.sinks = {&stream, &capture};
  crew::ExperimentRunner runner(spec);
  const Clock::time_point run_start = Clock::now();
  auto result = [&] {
    Tracer::Span span(tracer, "restart/run");
    return runner.Run(hooks);
  }();
  out.cpu_s = watch.CpuSeconds();
  out.wall_s = watch.WallSeconds();
  if (!result.ok()) return result.status();
  out.prepare_ms =
      std::chrono::duration<double, std::milli>(capture.begin_time() -
                                                run_start)
          .count();
  out.result = std::move(result.value());
  out.cells = capture.cells();
  return out;
}

// --- Per-layer accumulation ----------------------------------------------

namespace {

int64_t CountOf(const MetricsSnapshot& snapshot, std::string_view name) {
  const MetricEntry* e = crew::FindMetric(snapshot, name);
  return e == nullptr ? 0 : e->count;
}

double MsOf(const MetricsSnapshot& snapshot, std::string_view name) {
  const MetricEntry* e = crew::FindMetric(snapshot, name);
  return e == nullptr ? 0.0 : e->total_ms;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

void LayerStats::AddCell(const ExperimentCell& cell, bool in_segment) {
  const auto n = static_cast<int64_t>(cell.instances.size());
  Variant& v = variants[cell.variant];
  v.wall_ms += cell.wall_ms;
  v.instances += n;
  v.predictions += CountOf(cell.registry, "crew/scoring/predictions");
  if (!in_segment) return;
  explanations += n;
  if (cell.variant == "crew") {
    crew_explanations += n;
    for (const crew::InstanceEvaluation& r : cell.instances) {
      crew_units_sum += r.total_units;
    }
  } else if (cell.variant == "wym") {
    wym_explanations += n;
  }
}

void LayerStats::AddCells(const std::vector<CaptureSink::Captured>& cells,
                          bool in_segment) {
  for (const CaptureSink::Captured& c : cells) {
    if (!c.restored) AddCell(c.cell, in_segment);
  }
}

void LayerStats::AddGrid(const ExperimentResult& result) {
  for (const ExperimentCell& cell : result.cells) {
    AddCell(cell, /*in_segment=*/true);
  }
}

Segment::Segment(const std::vector<PreparedDataset>* prepared,
                 LayerStats* stats, bool grid)
    : prepared_(prepared),
      stats_(stats),
      grid_(grid),
      before_(crew::MetricsRegistry::Global().Snapshot()),
      counts_before_(SumCounts(*prepared)) {}

void Segment::Close() {
  const MetricsSnapshot delta = crew::MetricsDelta(
      crew::MetricsRegistry::Global().Snapshot(), before_);
  stats_->registry = crew::MetricsSum({stats_->registry, delta});
  const MatcherCounts counts = SumCounts(*prepared_) - counts_before_;
  stats_->matcher += counts;
  if (grid_) {
    stats_->grid_predict_ms +=
        static_cast<double>(counts.single_ns + counts.batch_ns) / 1e6;
    stats_->grid_instance_ms += MsOf(delta, "crew/runner/instance");
  }
}

void ReplaySample(const std::vector<PreparedDataset>& prepared,
                  Report* report, LayerStats* stats) {
  double predict_ns = 0.0, featurize_ns = 0.0;
  int64_t pairs = 0;
  for (const PreparedDataset& p : prepared) {
    const auto* timed =
        dynamic_cast<const TimedMatcher*>(p.pipeline.matcher.get());
    if (timed == nullptr) continue;
    const std::vector<crew::RecordPair> sample = timed->sample();
    if (sample.empty()) continue;
    const crew::Matcher& matcher = timed->inner();
    const size_t n = sample.size();
    std::vector<double> batch(n);
    matcher.PredictProbaBatch(sample.data(), n, batch.data());
    for (size_t i = 0; i < n; ++i) {
      if (batch[i] != matcher.PredictProba(sample[i])) {
        report->Fail("PredictProbaBatch differs from PredictProba on a "
                     "sampled pair of " + p.name);
        break;
      }
    }
    // Minimum of a few passes: the replay is single-threaded and short, so
    // the fastest pass is the least disturbed one.
    constexpr int kPasses = 5;
    crew::PairFeaturizer featurizer(p.pipeline.train.schema(),
                                    p.pipeline.embeddings);
    crew::PairFeaturizer::Scratch scratch;
    crew::la::Vec features;
    double best_predict = 1e300, best_featurize = 1e300;
    for (int pass = 0; pass < kPasses; ++pass) {
      Clock::time_point t = Clock::now();
      matcher.PredictProbaBatch(sample.data(), n, batch.data());
      best_predict = std::min(best_predict, static_cast<double>(NanosSince(t)));
      t = Clock::now();
      for (const crew::RecordPair& pair : sample) {
        featurizer.ExtractInto(pair, &scratch, &features);
      }
      best_featurize =
          std::min(best_featurize, static_cast<double>(NanosSince(t)));
    }
    predict_ns += best_predict;
    featurize_ns += best_featurize;
    pairs += static_cast<int64_t>(n);
  }
  stats->replay_predict_us_per_pair = Ratio(predict_ns / 1e3, pairs);
  stats->featurize_us_per_pair = Ratio(featurize_ns / 1e3, pairs);
}

void ReportLayers(const LayerStats& s, const SetupSplit& split,
                  bool feature_matcher, double untraced_rate,
                  double traced_rate, Report* report) {
  const MetricsSnapshot& reg = s.registry;
  report->Add("data.generate_ms", split.generate_ms, "ms");
  report->Add("embed.sgns_train_ms", split.sgns_ms, "ms");
  report->Add("model.train_ms", split.train_ms, "ms");

  const MatcherCounts& m = s.matcher;
  const double pairs = static_cast<double>(m.single_calls + m.batch_pairs);
  report->Add("model.pairs_scored", pairs, "count");
  report->Add("model.single_calls", static_cast<double>(m.single_calls),
              "count");
  report->Add("model.batch_pairs_mean",
              Ratio(static_cast<double>(m.batch_pairs),
                    static_cast<double>(m.batch_calls)),
              "count");
  report->Add("model.predict_us_per_pair",
              Ratio(static_cast<double>(m.single_ns + m.batch_ns) / 1e3,
                    pairs),
              "us");
  // Share of the runner's per-instance time spent inside the matcher, over
  // the grids of the traced phase (both sums run over every worker).
  report->Add("model.predict_share",
              Ratio(s.grid_predict_ms, s.grid_instance_ms), "ratio");
  report->Add("model.featurize_us_per_pair", s.featurize_us_per_pair, "us");
  // Feature matchers spend predict on featurization plus the model's own
  // forward pass; the embedding-bag matcher has no featurizer in its path.
  report->Add("model.forward_us_per_pair",
              feature_matcher
                  ? s.replay_predict_us_per_pair - s.featurize_us_per_pair
                  : s.replay_predict_us_per_pair,
              "us");

  const auto predictions =
      static_cast<double>(CountOf(reg, "crew/scoring/predictions"));
  report->Check(static_cast<double>(m.batch_pairs) == predictions,
                "decorator batch pairs (" + std::to_string(m.batch_pairs) +
                    ") equal the crew/scoring/predictions delta (" +
                    std::to_string(static_cast<int64_t>(predictions)) + ")");
  report->Add("scoring.predictions", predictions, "count");
  report->Add("scoring.batches",
              static_cast<double>(CountOf(reg, "crew/scoring/batches")),
              "count");
  report->Add("scoring.materialize_us_per_pair",
              Ratio(MsOf(reg, "crew/scoring/materialize") * 1e3, predictions),
              "us");

  for (const std::string& variant : SuiteVariants()) {
    const auto it = s.variants.find(variant);
    const LayerStats::Variant v =
        it == s.variants.end() ? LayerStats::Variant() : it->second;
    const auto n = static_cast<double>(v.instances);
    report->Add("explain." + variant + ".ms_per_instance",
                Ratio(v.wall_ms, n), "ms");
    report->Add("explain." + variant + ".pairs_per_instance",
                Ratio(static_cast<double>(v.predictions), n), "count");
  }

  const auto explanations = static_cast<double>(s.explanations);
  const auto crew_n = static_cast<double>(s.crew_explanations);
  report->Add("crew.tokenize_ms",
              Ratio(MsOf(reg, "crew/stage/tokenize"), explanations), "ms");
  report->Add("crew.attribution_ms",
              Ratio(MsOf(reg, "crew/stage/attribution"), crew_n), "ms");
  report->Add("crew.affinity_ms",
              Ratio(MsOf(reg, "crew/stage/affinity"), crew_n), "ms");
  report->Add("crew.clustering_ms",
              Ratio(MsOf(reg, "crew/stage/clustering"), crew_n), "ms");
  report->Add("crew.decision_units_ms",
              Ratio(MsOf(reg, "crew/stage/decision_units"),
                    static_cast<double>(s.wym_explanations)),
              "ms");
  report->Add("crew.units_mean", Ratio(s.crew_units_sum, crew_n), "count");

  const double instance_ms = MsOf(reg, "crew/runner/instance");
  report->Add("eval.ms_per_instance",
              Ratio(instance_ms,
                    static_cast<double>(CountOf(reg, "crew/runner/instance"))),
              "ms");
  report->Add("runner.cpu_per_wall",
              Ratio(MsOf(reg, "crew/runner/instance_cpu"), instance_ms),
              "ratio");
  // Process CPU over wall time of the one-at-a-time ExplainClusters calls:
  // about 1 when the pool's fan-out adds nothing, up to the thread count
  // when every worker is busy, below 1 when the calls wait on workers.
  report->Add("explain.cpu_per_wall", Ratio(s.calls_cpu_s, s.calls_wall_s),
              "ratio");

  report->Add("stream.append_ms_per_cell", Mean(s.append_ms), "ms");
  report->Add("stream.bytes_per_cell",
              Ratio(static_cast<double>(s.cell_bytes),
                    static_cast<double>(s.cells_written)),
              "B");
  report->Add("stream.load_ms", Mean(s.load_ms), "ms");
  report->Add("resume.prepare_ms", Mean(s.prepare_ms), "ms");
  report->Add("trace.overhead_pct",
              100.0 * Ratio(untraced_rate - traced_rate, untraced_rate), "%");
}

// --- Statistics -----------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
