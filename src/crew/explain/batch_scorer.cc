#include "crew/explain/batch_scorer.h"

#include <algorithm>
#include <string>

#include "crew/common/dcheck.h"
#include "crew/common/metrics.h"
#include "crew/common/thread_pool.h"
#include "crew/common/timer.h"
#include "crew/common/trace.h"

namespace crew {
namespace {

// Pairs are materialized into a fixed ring of this many reused RecordPair
// slots per worker chunk, so steady-state scoring allocates nothing per
// sample while PredictProbaBatch still sees real batches.
constexpr int kBlockSize = 64;

// Registry handles, interned once. Leaked like the registry itself so the
// engine can record from threads draining after main().
struct EngineMetrics {
  Counter* predictions;
  Counter* batches;
  DurationStat* materialize;
  DurationStat* predict;
  Histogram* batch_size;
};

EngineMetrics& Engine() {
  static EngineMetrics* m = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* e = new EngineMetrics();
    e->predictions = reg.GetCounter("crew/scoring/predictions");
    e->batches = reg.GetCounter("crew/scoring/batches");
    e->materialize = reg.GetDuration("crew/scoring/materialize");
    e->predict = reg.GetDuration("crew/scoring/predict");
    e->batch_size = reg.GetHistogram("crew/scoring/batch_size");
    return e;
  }();
  return *m;
}

// Per-stage prediction counter, cached per thread by stage pointer (stage
// labels are string literals, so pointer identity is stable and the
// registry mutex is only taken when the stage actually changes).
Counter* StageCounter(const char* stage) {
  thread_local const char* cached_stage = nullptr;
  thread_local Counter* cached_counter = nullptr;
  if (stage != cached_stage) {
    cached_counter = MetricsRegistry::Global().GetCounter(
        std::string("crew/scoring/predictions/") + stage);
    cached_stage = stage;
  }
  return cached_counter;
}

// One engine entry point issuing n predictions. Runs on the calling thread
// (before any fan-out), so CurrentMetricStage() sees the caller's stage.
void CountBatch(int n) {
  EngineMetrics& m = Engine();
  m.batches->Increment();
  m.predictions->Add(n);
  StageCounter(CurrentMetricStage())->Add(n);
}

void AddStageTimes(double materialize_seconds, double predict_seconds) {
  EngineMetrics& m = Engine();
  m.materialize->Add(materialize_seconds);
  m.predict->Add(predict_seconds);
}

// Scores n samples: materialize(i, slot) writes sample i into a reused
// RecordPair slot, then the matcher scores kBlockSize-sized blocks. Chunked
// over the shared pool; every output index is written exactly once.
template <typename MaterializeFn>
void ScoreMaterialized(const Matcher& matcher, int n,
                       const MaterializeFn& materialize,
                       std::vector<double>* out) {
  out->assign(n, 0.0);
  if (n == 0) return;
  CountBatch(n);
  double* scores = out->data();
  auto work = [&matcher, &materialize, scores](int begin, int end) {
    CREW_TRACE_SPAN("crew/scoring/chunk");
    Histogram* batch_size = Engine().batch_size;
    std::vector<RecordPair> block(std::min(kBlockSize, end - begin));
    double materialize_s = 0.0, predict_s = 0.0;
    WallTimer timer;
    for (int b = begin; b < end; b += kBlockSize) {
      const int block_n = std::min(kBlockSize, end - b);
      timer.Restart();
      for (int i = 0; i < block_n; ++i) materialize(b + i, &block[i]);
      materialize_s += timer.ElapsedSeconds();
      timer.Restart();
      matcher.PredictProbaBatch(block.data(), block_n, scores + b);
      predict_s += timer.ElapsedSeconds();
      batch_size->Observe(block_n);
    }
    AddStageTimes(materialize_s, predict_s);
  };
  ParallelFor(SharedScoringPool(), n, work);
}

}  // namespace

void BatchScorer::ScoreKeepMasks(const std::vector<std::vector<bool>>& keeps,
                                 std::vector<double>* out) const {
  CREW_CHECK(view_ != nullptr);
  CREW_TRACE_SPAN("crew/scoring/keep_masks");
  ScoreMaterialized(
      matcher_, static_cast<int>(keeps.size()),
      [this, &keeps](int i, RecordPair* slot) {
        CREW_DCHECK_EQ(static_cast<int>(keeps[i].size()), view_->size());
        view_->MaterializeInto(keeps[i], slot);
      },
      out);
}

void BatchScorer::ScoreInjectionMasks(
    const std::vector<std::vector<bool>>& keeps,
    const std::vector<std::vector<bool>>& injects,
    std::vector<double>* out) const {
  CREW_CHECK(view_ != nullptr);
  CREW_CHECK(keeps.size() == injects.size());
  CREW_TRACE_SPAN("crew/scoring/injection_masks");
  ScoreMaterialized(
      matcher_, static_cast<int>(keeps.size()),
      [this, &keeps, &injects](int i, RecordPair* slot) {
        CREW_DCHECK_EQ(static_cast<int>(keeps[i].size()), view_->size());
        CREW_DCHECK_EQ(static_cast<int>(injects[i].size()), view_->size());
        view_->MaterializeWithInjectionInto(keeps[i], injects[i], slot);
      },
      out);
}

void BatchScorer::ScorePairs(const std::vector<RecordPair>& pairs,
                             std::vector<double>* out) const {
  CREW_TRACE_SPAN("crew/scoring/pairs");
  const int n = static_cast<int>(pairs.size());
  out->assign(n, 0.0);
  if (n == 0) return;
  CountBatch(n);
  const RecordPair* data = pairs.data();
  double* scores = out->data();
  auto work = [this, data, scores](int begin, int end) {
    CREW_TRACE_SPAN("crew/scoring/chunk");
    WallTimer timer;
    matcher_.PredictProbaBatch(data + begin,
                               static_cast<size_t>(end - begin),
                               scores + begin);
    AddStageTimes(0.0, timer.ElapsedSeconds());
    Engine().batch_size->Observe(end - begin);
  };
  ParallelFor(SharedScoringPool(), n, work);
}

}  // namespace crew
