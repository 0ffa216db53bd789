// Shared machinery of the crew benchmark: the run report, the span
// recorder behind the traced run, the timing Matcher decorator, set-up,
// grid sinks and the per-layer accumulator. Everything here sits outside
// the library and reaches it only through public functions.
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crew/common/metrics.h"
#include "crew/common/trace.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/runner.h"
#include "crew/eval/streaming.h"
#include "crew/model/matcher.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// CPU time consumed so far by every thread of this process, in seconds.
double ProcessCpuSeconds();

/// Wall-clock and process-CPU stopwatch started at construction.
class Stopwatch {
 public:
  double WallSeconds() const { return SecondsSince(wall_); }
  double CpuSeconds() const { return ProcessCpuSeconds() - cpu_; }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = ProcessCpuSeconds();
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch files (checkpoints, streams, trace)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the end-to-end or per-layer metrics plus the
/// operation counts and the verdict of every output check.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A figure printed for people only, never in the JSON result.
  void Note(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& what);
  /// Records a check; `ok` false is a Fail(what).
  void Check(bool ok, const std::string& what);

  /// Counts operations attempted. An operation that fails ends the run
  /// with an error instead of a result, so a printed result has failed 0.
  void Attempt(int64_t n) { attempted_ += n; }

  /// Human-readable lines, then the JSON object as the last line.
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
};

/// Spans recorded by the benchmark's own code, kept in memory and written
/// once as Chrome trace JSON. Disabled recorders cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    Clock::time_point start_;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Writes the spans with crew::TraceEventsToChromeJson.
  crew::Status WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<crew::TraceEvent> events_;  // main thread only
};

/// Counters of the timing decorator; plain values for deltas.
struct MatcherCounts {
  int64_t single_calls = 0;
  int64_t single_ns = 0;
  int64_t batch_calls = 0;
  int64_t batch_pairs = 0;
  int64_t batch_ns = 0;

  MatcherCounts operator-(const MatcherCounts& o) const;
  MatcherCounts& operator+=(const MatcherCounts& o);
};

/// Timing Matcher decorator for the traced run. It forwards every call,
/// threshold() and Name() to the wrapped matcher, counts pairs and time,
/// and keeps a small sample of batch-scored pairs for the featurizer
/// replay. Explainers never see a difference: only the Matcher is
/// wrapped, never an Explainer (the evaluation harness dynamic_casts
/// CrewExplainer to get cluster units).
class TimedMatcher : public crew::Matcher {
 public:
  explicit TimedMatcher(std::unique_ptr<crew::Matcher> inner)
      : inner_(std::move(inner)) {}

  double PredictProba(const crew::RecordPair& pair) const override;
  using crew::Matcher::PredictProbaBatch;
  void PredictProbaBatch(const crew::RecordPair* pairs, size_t count,
                         double* out) const override;
  double threshold() const override { return inner_->threshold(); }
  std::string Name() const override { return inner_->Name(); }

  MatcherCounts counts() const;
  std::vector<crew::RecordPair> sample() const;
  const crew::Matcher& inner() const { return *inner_; }
  std::unique_ptr<crew::Matcher> Release() { return std::move(inner_); }

 private:
  static constexpr size_t kSampleCap = 96;
  static constexpr int64_t kSampleEvery = 17;  // batch calls

  std::unique_ptr<crew::Matcher> inner_;
  mutable std::atomic<int64_t> single_calls_{0};
  mutable std::atomic<int64_t> single_ns_{0};
  mutable std::atomic<int64_t> batch_calls_{0};
  mutable std::atomic<int64_t> batch_pairs_{0};
  mutable std::atomic<int64_t> batch_ns_{0};
  mutable std::mutex sample_mu_;
  mutable std::vector<crew::RecordPair> sample_;  // guarded by sample_mu_
};

/// Wraps every prepared matcher in a TimedMatcher (traced phase).
void WrapMatchers(std::vector<crew::PreparedDataset>* prepared);
/// Undoes WrapMatchers.
void UnwrapMatchers(std::vector<crew::PreparedDataset>* prepared);

/// Per-step set-up times of one stepwise preparation, in ms.
struct SetupSplit {
  double generate_ms = 0.0;
  double sgns_ms = 0.0;
  double train_ms = 0.0;
};

/// Times `reps` set-ups of the whole workload (CPU and wall seconds per
/// set-up, crew::PrepareDataset for every dataset). In the traced run one
/// such set-up is followed by `reps` step-by-step set-ups, each checked
/// against PrepareDataset's result, and `split_median` gets the per-step
/// medians.
crew::Result<std::vector<crew::PreparedDataset>> TimedSetup(
    const crew::ExperimentSpec& spec, int reps, Tracer* tracer,
    Report* report, std::vector<double>* cpu_seconds,
    std::vector<double>* wall_seconds, SetupSplit* split_median);

/// Streaming sink that keeps every cell it sees (fresh and restored) and
/// notes when OnBegin arrived — the end of preparation in a restart.
class CaptureSink : public crew::StreamingSink {
 public:
  crew::Status OnBegin(const crew::ExperimentResult& header) override;
  crew::Status OnCell(const crew::ExperimentCell& cell,
                      bool restored) override;

  struct Captured {
    crew::ExperimentCell cell;
    bool restored;
  };
  const std::vector<Captured>& cells() const { return cells_; }
  Clock::time_point begin_time() const { return begin_time_; }

 private:
  std::vector<Captured> cells_;
  Clock::time_point begin_time_{};
};

/// Canonical text of a cell with every wall-clock-derived field zeroed
/// (crew::ZeroCellTimings), for equality checks.
std::string StableCellText(const crew::ExperimentCell& cell);

/// Instances in `result` that were explained and evaluated, and all of
/// its instances.
int64_t EvaluatedInstances(const crew::ExperimentResult& result);
int64_t AllInstances(const crew::ExperimentResult& result);

/// Writes `result` as a fresh checkpoint (header + one Append per cell)
/// and returns each Append's time in ms.
crew::Result<std::vector<double>> WriteCheckpoint(
    const crew::ExperimentResult& result, const std::string& path);

/// Restart timing: CheckpointStore::Load through the end of
/// ExperimentRunner::Run over the checkpoint.
struct RestartTiming {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double load_ms = 0.0;
  double prepare_ms = 0.0;  ///< Run() start to the first sink callback
  crew::ExperimentResult result;
  std::vector<CaptureSink::Captured> cells;
};
crew::Result<RestartTiming> TimedRestart(const crew::ExperimentSpec& spec,
                                         const std::string& checkpoint,
                                         const std::string& stream_path,
                                         Tracer* tracer);

/// Per-layer figures gathered over the traced phase.
struct LayerStats {
  crew::MetricsSnapshot registry;  // summed registry deltas
  MatcherCounts matcher;           // summed decorator deltas
  int64_t explanations = 0;        // every explained instance / call
  int64_t crew_explanations = 0;
  int64_t wym_explanations = 0;
  double crew_units_sum = 0.0;
  struct Variant {
    double wall_ms = 0.0;
    int64_t instances = 0;
    int64_t predictions = 0;
  };
  std::map<std::string, Variant> variants;
  std::vector<double> append_ms;
  int64_t cell_bytes = 0;
  int64_t cells_written = 0;
  std::vector<double> load_ms;
  std::vector<double> prepare_ms;
  double grid_predict_ms = 0.0;   // decorator time inside grid segments
  double grid_instance_ms = 0.0;  // crew/runner/instance, same segments
  double calls_cpu_s = 0.0;       // one-at-a-time ExplainClusters calls
  double calls_wall_s = 0.0;
  double featurize_us_per_pair = 0.0;
  double replay_predict_us_per_pair = 0.0;

  /// Adds a grid computed inside a Segment.
  void AddGrid(const crew::ExperimentResult& result);
  /// Adds the fresh cells among `cells`. Cells computed outside any
  /// Segment (`in_segment` false) feed only the per-variant figures, so
  /// registry ratios divide by explanations the registry delta covers.
  void AddCells(const std::vector<CaptureSink::Captured>& cells,
                bool in_segment);

 private:
  void AddCell(const crew::ExperimentCell& cell, bool in_segment);
};

/// Snapshot of the registry and decorator counters; Close() adds the
/// delta since construction to `stats`. Registry reads use Snapshot()
/// and MetricsDelta only (never Reset()). A `grid` segment also adds its
/// predict and runner-instance times, the basis of model.predict_share.
class Segment {
 public:
  Segment(const std::vector<crew::PreparedDataset>* prepared,
          LayerStats* stats, bool grid);
  void Close();

 private:
  const std::vector<crew::PreparedDataset>* prepared_;
  LayerStats* stats_;
  bool grid_;
  crew::MetricsSnapshot before_;
  MatcherCounts counts_before_;
};

/// Replays the decorators' sampled pairs: checks PredictProbaBatch equals
/// PredictProba on each and times the wrapped matcher and a
/// PairFeaturizer built like the matcher's, per pair.
void ReplaySample(const std::vector<crew::PreparedDataset>& prepared,
                  Report* report, LayerStats* stats);

/// Adds every per-layer metric to `report`; `untraced_rate` and
/// `traced_rate` give trace.overhead_pct.
void ReportLayers(const LayerStats& stats, const SetupSplit& split,
                  bool feature_matcher, double untraced_rate,
                  double traced_rate, Report* report);

/// Runs `options.workload` and fills `report`; an error status means the
/// run could not finish.
crew::Status RunWorkload(const Options& options, Report* report);

double Median(std::vector<double> values);
/// Nearest-rank percentile, `q` in (0, 1].
double Percentile(std::vector<double> values, double q);
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
