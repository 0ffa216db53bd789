// The three workloads. Each one sets up its datasets, warms up once,
// repeats whole rounds of identical work for the timed phase, and between
// rounds sets up again (setup_s) and restarts its grid from a checkpoint
// (resume_cpu_s). Every round checks its outputs against an independent
// computation or a property the method must have.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

#include "crew/common/rng.h"
#include "crew/core/crew_explainer.h"
#include "crew/eval/experiment.h"
#include "crew/eval/faithfulness.h"
#include "crew/eval/sinks.h"
#include "crew/explain/token_view.h"
#include "support.h"

namespace perfbench {
namespace {

using crew::ExperimentCell;
using crew::ExperimentResult;
using crew::PreparedDataset;
using crew::Result;
using crew::Status;

// What one round of the timed phase does.
enum class Round {
  kGrid,             // RunPrepared over the grid, then a few calls
  kCalls,            // one-at-a-time ExplainClusters calls only
  kInterruptedGrid,  // grid stopped half-way, restarted, then a few calls
};

// Make-up of one workload. Sizes keep a run's set-ups, warm-up and
// restarts to a few seconds so most of the run is the timed phase.
struct WorkloadConfig {
  Round round;
  std::vector<std::string> datasets;  // StandardBenchmark names; {} = all
  crew::MatcherKind matcher;
  int matches;
  int nonmatches;
  int instances;       // explained pairs per dataset in the grid
  int samples;         // perturbation samples per explanation
  int setup_reps;      // set-ups timed for the setup_s median
  int restarts;        // full-checkpoint restarts (kGrid, kCalls)
  int calls_per_round; // one-at-a-time ExplainClusters calls per round
};

// The paper's faithfulness grid with T3's per-dataset make-up (250/350
// pairs, 12 instances, 96 samples) on one dataset of each flavour instead
// of all nine, so that seven set-ups and seven restarts fit in a run.
const WorkloadConfig kGridMlp = {
    Round::kGrid,
    {"products-structured", "biblio-dirty", "restaurants-textual"},
    crew::MatcherKind::kMlp, 250, 350, 12, 96, 7, 7, 24};

// CREW alone, one pair at a time, over the embedding-bag matcher. Its grid
// (the standard suite, few instances) only feeds the restart.
const WorkloadConfig kLatencyEmbbag = {
    Round::kCalls,
    {"products-dirty", "biblio-structured", "restaurants-textual"},
    crew::MatcherKind::kEmbeddingBag, 150, 200, 2, 64, 7, 7, 240};

// All nine datasets, a small explanation budget, interrupted half-way.
const WorkloadConfig kStreamResume = {
    Round::kInterruptedGrid,
    {}, crew::MatcherKind::kMlp, 60, 80, 2, 32, 7, 0, 120};

constexpr int kMinLatencySamples = 200;
constexpr int kMinRounds = 3;
constexpr int kExplainedPairs = 240;

// The reported figures use the process's CPU time; the wall-clock
// counterparts are printed alongside (see README, "Why CPU time").
struct Phase {
  std::vector<double> rates, wall_rates;            // per round
  std::vector<double> latency_ms, wall_latency_ms;  // per ExplainClusters
  std::vector<double> resume_s, wall_resume_s;      // per restart
};

class Workload {
 public:
  Workload(const Options& options, const WorkloadConfig& config,
           Report* report)
      : options_(options), config_(config), report_(report),
        tracer_(options.trace) {}

  Status Run();

 private:
  crew::ExperimentSpec MakeSpec() const;
  std::string Path(const char* name) const {
    return options_.workdir + "/" + name;
  }
  const crew::Matcher& PlainMatcher(int d) const;

  Status Setup();
  Status ExplainCalls(int count, Phase* phase);
  Status GridRound(Phase* phase);
  Status InterruptedRound(Phase* phase);
  Status Between(int i, Phase* phase);
  Status RunPhase(double seconds, bool between, Phase* phase);
  void CheckAopc(const ExperimentResult& result);
  void CheckReference(const ExperimentResult& result, const char* what);
  void CheckComprehensiveness(const ExperimentResult& result);
  void CheckBatchEqualsSingle();
  Status Persist(const ExperimentResult& grid);
  Status Restart(Phase* phase);

  const Options& options_;
  const WorkloadConfig& config_;
  Report* report_;
  Tracer tracer_;
  crew::ExperimentSpec spec_;
  std::vector<PreparedDataset> prepared_;
  std::vector<std::unique_ptr<crew::CrewExplainer>> crew_;  // per dataset
  std::vector<std::pair<int, int>> probe_pairs_;  // (dataset, test index)
  std::vector<std::string> probe_reference_;      // per probe pair
  int64_t probe_cursor_ = 0;
  std::vector<double> setup_s_, wall_setup_s_;
  SetupSplit split_;
  std::map<std::string, std::string> reference_cells_;  // key -> text
  ExperimentResult last_grid_;
  bool traced_phase_ = false;
  LayerStats layers_;
};

crew::ExperimentSpec Workload::MakeSpec() const {
  crew::ExperimentSpec spec;
  spec.name = "perfbench_" + options_.workload;
  for (crew::BenchmarkEntry& entry : crew::StandardBenchmark(
           options_.seed, config_.matches, config_.nonmatches)) {
    if (config_.datasets.empty() ||
        std::find(config_.datasets.begin(), config_.datasets.end(),
                  entry.name) != config_.datasets.end()) {
      spec.datasets.push_back(std::move(entry));
    }
  }
  spec.matcher = config_.matcher;
  spec.instances_per_dataset = config_.instances;
  spec.seed = options_.seed;
  spec.suite = [samples = config_.samples](
                   const crew::TrainedPipeline& pipeline) {
    crew::ExplainerSuiteConfig suite;
    suite.num_samples = samples;
    return crew::NameSuite(crew::BuildExplainerSuite(
        pipeline.embeddings, pipeline.train, suite));
  };
  return spec;
}

const crew::Matcher& Workload::PlainMatcher(int d) const {
  const crew::Matcher& m = *prepared_[d].pipeline.matcher;
  if (const auto* timed = dynamic_cast<const TimedMatcher*>(&m)) {
    return timed->inner();
  }
  return m;
}

Status Workload::Setup() {
  spec_ = MakeSpec();
  // Untraced, this is the first of the setup_s samples; the others are
  // taken between rounds (Between).
  auto prepared = TimedSetup(spec_, options_.trace ? config_.setup_reps : 1,
                             &tracer_, report_, &setup_s_, &wall_setup_s_,
                             &split_);
  if (!prepared.ok()) return prepared.status();
  prepared_ = std::move(prepared.value());
  crew::CrewConfig crew_config;
  crew_config.importance.perturbation.num_samples = config_.samples;
  // One-at-a-time calls cycle over the first test pairs of every dataset,
  // kExplainedPairs in all, so the latency distribution does not hang on
  // a few selected instances.
  const int per_dataset =
      kExplainedPairs / static_cast<int>(prepared_.size());
  for (size_t d = 0; d < prepared_.size(); ++d) {
    crew_.push_back(std::make_unique<crew::CrewExplainer>(
        prepared_[d].pipeline.embeddings, crew_config));
    const int n = std::min(per_dataset, prepared_[d].pipeline.test.size());
    for (int index = 0; index < n; ++index) {
      probe_pairs_.emplace_back(static_cast<int>(d), index);
    }
  }
  if (probe_pairs_.empty()) {
    return Status::FailedPrecondition("no pairs to explain");
  }
  return Status::Ok();
}

// Word-cover and size checks on one cluster explanation, plus a
// fingerprint of everything it decided (for run-to-run equality).
std::string CheckUnits(const crew::ClusterExplanation& ce, int max_clusters,
                       Report* report) {
  const int n = static_cast<int>(ce.words.attributions.size());
  std::vector<int> seen(n, 0);
  std::string fingerprint;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g|", ce.words.base_score);
  fingerprint += buf;
  for (const crew::ExplanationUnit& unit : ce.units) {
    for (int i : unit.member_indices) {
      if (i >= 0 && i < n) ++seen[i];
      fingerprint += std::to_string(i) + ",";
    }
    std::snprintf(buf, sizeof(buf), ":%.17g;", unit.weight);
    fingerprint += buf;
  }
  bool cover = true;
  for (int c : seen) cover = cover && c == 1;
  report->Check(cover, "CREW units cover each word exactly once");
  report->Check(static_cast<int>(ce.units.size()) <= max_clusters &&
                    (n == 0 || !ce.units.empty()),
                "CREW returns between 1 and max_clusters units");
  return fingerprint;
}

Status Workload::ExplainCalls(int count, Phase* phase) {
  std::optional<Segment> segment;
  if (traced_phase_) segment.emplace(&prepared_, &layers_, /*grid=*/false);
  double cpu_s = 0.0, wall_s = 0.0;
  for (int c = 0; c < count; ++c, ++probe_cursor_) {
    const size_t slot = probe_cursor_ % probe_pairs_.size();
    const auto [d, index] = probe_pairs_[slot];
    const PreparedDataset& p = prepared_[d];
    const crew::RecordPair& pair = p.pipeline.test.pair(index);
    const uint64_t seed = spec_.seed ^ (static_cast<uint64_t>(index) << 20);
    const Stopwatch watch;
    auto explained = [&] {
      Tracer::Span span(&tracer_, "crew/explain_clusters");
      return crew_[d]->ExplainClusters(*p.pipeline.matcher, pair, seed);
    }();
    const double call_cpu = watch.CpuSeconds();
    const double call_wall = watch.WallSeconds();
    report_->Attempt(1);
    if (!explained.ok()) return explained.status();
    cpu_s += call_cpu;
    wall_s += call_wall;
    if (phase != nullptr) {
      phase->latency_ms.push_back(call_cpu * 1e3);
      phase->wall_latency_ms.push_back(call_wall * 1e3);
    }
    // Untimed checks: the base score is the matcher's own verdict on the
    // unperturbed pair, and the units partition the words.
    const crew::ClusterExplanation& ce = explained.value();
    report_->Check(ce.words.base_score == PlainMatcher(d).PredictProba(pair),
                   "ExplainClusters base_score equals PredictProba on " +
                       p.name);
    const std::string fingerprint = CheckUnits(
        ce, crew_[d]->config().max_clusters, report_);
    if (probe_reference_.size() < probe_pairs_.size()) {
      probe_reference_.resize(probe_pairs_.size());
    }
    if (probe_reference_[slot].empty()) {
      probe_reference_[slot] = fingerprint;
    } else {
      report_->Check(probe_reference_[slot] == fingerprint,
                     "ExplainClusters is deterministic for a fixed seed");
    }
    if (traced_phase_) {
      layers_.calls_cpu_s += call_cpu;
      layers_.calls_wall_s += call_wall;
      ++layers_.explanations;
      ++layers_.crew_explanations;
      layers_.crew_units_sum += static_cast<double>(ce.units.size());
    }
  }
  if (segment) segment->Close();
  if (phase != nullptr && config_.round == Round::kCalls && cpu_s > 0.0) {
    phase->rates.push_back(count / cpu_s);
    phase->wall_rates.push_back(count / wall_s);
  }
  return Status::Ok();
}

void Workload::CheckAopc(const ExperimentResult& result) {
  const double crew_aopc = result.ReduceAcross("crew").aopc;
  const double random_aopc = result.ReduceAcross("random").aopc;
  report_->Check(crew_aopc > random_aopc,
                 "CREW mean AOPC (" + std::to_string(crew_aopc) +
                     ") exceeds random's (" + std::to_string(random_aopc) +
                     ")");
}

void Workload::CheckReference(const ExperimentResult& result,
                              const char* what) {
  if (reference_cells_.empty()) {
    for (const ExperimentCell& cell : result.cells) {
      reference_cells_[crew::CellKey("", cell.dataset, cell.variant)] =
          StableCellText(cell);
    }
    return;
  }
  bool same = result.cells.size() == reference_cells_.size();
  for (const ExperimentCell& cell : result.cells) {
    const auto it =
        reference_cells_.find(crew::CellKey("", cell.dataset, cell.variant));
    same = same && it != reference_cells_.end() &&
           it->second == StableCellText(cell);
  }
  report_->Check(same, std::string(what) +
                           " equals the warm-up grid with timings zeroed");
}

Status Workload::GridRound(Phase* phase) {
  std::optional<Segment> segment;
  if (traced_phase_) segment.emplace(&prepared_, &layers_, /*grid=*/true);
  const Stopwatch watch;
  crew::ExperimentRunner runner(spec_);
  auto result = [&] {
    Tracer::Span span(&tracer_, "grid/run_prepared");
    return runner.RunPrepared(prepared_);
  }();
  if (!result.ok()) return result.status();
  {
    Tracer::Span span(&tracer_, "eval/write_json");
    CREW_RETURN_IF_ERROR(
        crew::WriteExperimentJson(result.value(), Path("grid.json")));
  }
  const double cpu_s = watch.CpuSeconds();
  const double wall_s = watch.WallSeconds();
  if (segment) {
    segment->Close();
    layers_.AddGrid(result.value());
  }
  report_->Attempt(AllInstances(result.value()));
  const auto explained =
      static_cast<double>(EvaluatedInstances(result.value()));
  phase->rates.push_back(explained / cpu_s);
  phase->wall_rates.push_back(explained / wall_s);
  CheckAopc(result.value());
  CheckReference(result.value(), "every grid round");
  last_grid_ = std::move(result.value());
  return ExplainCalls(config_.calls_per_round, phase);
}

Status Workload::InterruptedRound(Phase* phase) {
  const std::string checkpoint = Path("resume.ckpt.jsonl");
  std::remove(checkpoint.c_str());
  const Stopwatch watch;

  // Part one: the grid streams every cell to the checkpoint and a JSONL
  // shard until the fault injector stops it half-way.
  const int total_cells = static_cast<int>(reference_cells_.size());
  const int interrupt_after = total_cells / 2;
  CaptureSink before;
  {
    std::optional<Segment> segment;
    if (traced_phase_) segment.emplace(&prepared_, &layers_, /*grid=*/true);
    crew::CheckpointStore store(checkpoint);
    CREW_RETURN_IF_ERROR(store.Load());
    crew::JsonlStreamSink stream(Path("stream-0.jsonl"));
    crew::FaultInjector fault;
    fault.ArmAfterCells(interrupt_after);
    crew::RunHooks hooks;
    hooks.checkpoint = &store;
    hooks.sinks = {&stream, &before};
    hooks.fault = &fault;
    crew::ExperimentRunner runner(spec_);
    auto interrupted = [&] {
      Tracer::Span span(&tracer_, "grid/run_prepared_interrupted");
      return runner.RunPrepared(prepared_, hooks);
    }();
    report_->Check(!interrupted.ok() &&
                       interrupted.status() == fault.FaultStatus(),
                   "the fault injector interrupts the grid");
    if (segment) {
      segment->Close();
      layers_.AddCells(before.cells(), /*in_segment=*/true);
    }
  }

  // Part two: restart from the checkpoint (re-prepares every dataset).
  auto restart = TimedRestart(spec_, checkpoint, Path("stream-1.jsonl"),
                              &tracer_);
  if (!restart.ok()) return restart.status();
  {
    Tracer::Span span(&tracer_, "eval/write_json");
    CREW_RETURN_IF_ERROR(
        crew::WriteExperimentJson(restart->result, Path("grid.json")));
  }
  const double cpu_s = watch.CpuSeconds();
  const double wall_s = watch.WallSeconds();
  phase->resume_s.push_back(restart->cpu_s);
  phase->wall_resume_s.push_back(restart->wall_s);

  int64_t fresh = 0;
  std::map<std::string, std::string> streamed;
  for (const CaptureSink::Captured& c : before.cells()) {
    streamed[crew::CellKey("", c.cell.dataset, c.cell.variant)] =
        crew::CellToJsonl("", c.cell);
    for (const crew::InstanceEvaluation& r : c.cell.instances) {
      fresh += r.evaluated ? 1 : 0;
    }
  }
  bool restored_equal = true;
  int restored = 0;
  for (const CaptureSink::Captured& c : restart->cells) {
    if (c.restored) {
      ++restored;
      const auto it =
          streamed.find(crew::CellKey("", c.cell.dataset, c.cell.variant));
      restored_equal = restored_equal && it != streamed.end() &&
                       it->second == crew::CellToJsonl("", c.cell);
    } else {
      for (const crew::InstanceEvaluation& r : c.cell.instances) {
        fresh += r.evaluated ? 1 : 0;
      }
    }
  }
  report_->Check(static_cast<int>(before.cells().size()) == interrupt_after &&
                     restored == interrupt_after && restored_equal,
                 "restored cells equal the cells streamed before the "
                 "interruption");
  CheckReference(restart->result, "the resumed grid");
  CheckAopc(restart->result);
  report_->Attempt(AllInstances(restart->result));
  phase->rates.push_back(static_cast<double>(fresh) / cpu_s);
  phase->wall_rates.push_back(static_cast<double>(fresh) / wall_s);
  if (traced_phase_) {
    layers_.AddCells(restart->cells, /*in_segment=*/false);
    layers_.load_ms.push_back(restart->load_ms);
    layers_.prepare_ms.push_back(restart->prepare_ms);
  }
  return ExplainCalls(config_.calls_per_round, phase);
}

// The i-th piece of work between rounds: a set-up (untraced runs only)
// and a restart over the full checkpoint (kGrid and kCalls).
Status Workload::Between(int i, Phase* phase) {
  if (!options_.trace && i + 1 < config_.setup_reps) {
    auto prepared = TimedSetup(spec_, 1, &tracer_, report_, &setup_s_,
                               &wall_setup_s_, &split_);
    if (!prepared.ok()) return prepared.status();
  }
  if (i < config_.restarts) CREW_RETURN_IF_ERROR(Restart(phase));
  return Status::Ok();
}

// Runs whole rounds until `seconds` of round time have passed. With
// `between`, the set-ups and restarts are spread over the phase, one after
// every few rounds, so that their medians see the host as the rounds do;
// their time does not count towards `seconds`.
Status Workload::RunPhase(double seconds, bool between, Phase* phase) {
  const int wanted =
      between ? std::max(config_.setup_reps - 1, config_.restarts) : 0;
  int done = 0;
  double between_s = 0.0;
  const Clock::time_point start = Clock::now();
  auto round_s = [&] { return SecondsSince(start) - between_s; };
  while (round_s() < seconds ||
         static_cast<int>(phase->rates.size()) < kMinRounds ||
         static_cast<int>(phase->latency_ms.size()) < kMinLatencySamples) {
    switch (config_.round) {
      case Round::kGrid:
        CREW_RETURN_IF_ERROR(GridRound(phase));
        break;
      case Round::kCalls:
        CREW_RETURN_IF_ERROR(ExplainCalls(config_.calls_per_round, phase));
        break;
      case Round::kInterruptedGrid:
        CREW_RETURN_IF_ERROR(InterruptedRound(phase));
        break;
    }
    while (done < wanted && done < wanted * round_s() / seconds) {
      const Clock::time_point t = Clock::now();
      CREW_RETURN_IF_ERROR(Between(done++, phase));
      between_s += SecondsSince(t);
    }
  }
  while (done < wanted) CREW_RETURN_IF_ERROR(Between(done++, phase));
  return Status::Ok();
}

// Rebuilds the pair from the explanation's TokenRefs without `unit`:
// surviving tokens of each attribute joined by single spaces.
crew::RecordPair RebuildWithout(const crew::ClusterExplanation& ce,
                                const crew::ExplanationUnit& unit,
                                const crew::RecordPair& original) {
  crew::RecordPair out;
  out.label = original.label;
  out.left.values.assign(original.left.values.size(), "");
  out.right.values.assign(original.right.values.size(), "");
  std::set<int> dropped(unit.member_indices.begin(),
                        unit.member_indices.end());
  std::vector<const crew::TokenRef*> kept;
  for (int i = 0; i < static_cast<int>(ce.words.attributions.size()); ++i) {
    if (dropped.count(i) == 0) kept.push_back(&ce.words.attributions[i].token);
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const crew::TokenRef* a, const crew::TokenRef* b) {
                     if (a->side != b->side) return a->side < b->side;
                     if (a->attribute != b->attribute) {
                       return a->attribute < b->attribute;
                     }
                     return a->position < b->position;
                   });
  for (const crew::TokenRef* t : kept) {
    std::string& value = out.side(t->side).values[t->attribute];
    if (!value.empty()) value += ' ';
    value += t->text;
  }
  return out;
}

void Workload::CheckComprehensiveness(const ExperimentResult& result) {
  crew::Rng rng(options_.seed ^ 0xc0a1ULL);
  int checked = 0;
  for (const ExperimentCell& cell : result.cells) {
    if (cell.variant != "crew") continue;
    int d = -1;
    for (size_t i = 0; i < prepared_.size(); ++i) {
      if (prepared_[i].name == cell.dataset) d = static_cast<int>(i);
    }
    if (d < 0 || cell.instances.empty()) continue;
    for (int pick = 0; pick < 2; ++pick) {
      const crew::InstanceEvaluation& r = cell.instances[rng.UniformInt(
          static_cast<int>(cell.instances.size()))];
      if (!r.evaluated) continue;
      const crew::Matcher& matcher = PlainMatcher(d);
      const crew::RecordPair& pair = prepared_[d].pipeline.test.pair(r.index);
      auto ce = crew_[d]->ExplainClusters(
          matcher, pair, spec_.seed ^ (static_cast<uint64_t>(r.index) << 20));
      if (!ce.ok() || ce->units.empty()) {
        report_->Fail("re-explaining a grid instance failed");
        continue;
      }
      const double base = ce->words.base_score;
      const bool match = base >= matcher.threshold();
      // Top supporting unit: the largest weight for a predicted match, the
      // smallest otherwise. Any unit tied for the top is acceptable.
      double best = ce->units[0].weight;
      for (const crew::ExplanationUnit& u : ce->units) {
        best = match ? std::max(best, u.weight) : std::min(best, u.weight);
      }
      bool agrees = false;
      for (const crew::ExplanationUnit& u : ce->units) {
        if (u.weight != best) continue;
        const double after =
            matcher.PredictProba(RebuildWithout(*ce, u, pair));
        const double comp = crew::PredictedClassProb(base, match) -
                            crew::PredictedClassProb(after, match);
        agrees = agrees || comp == r.comprehensiveness_at_1;
      }
      report_->Check(agrees, "independent comprehensiveness@1 equals the "
                             "grid's on " + cell.dataset + " pair " +
                                 std::to_string(r.index));
      ++checked;
    }
  }
  report_->Check(checked > 0, "comprehensiveness@1 was recomputed");
}

void Workload::CheckBatchEqualsSingle() {
  crew::Rng rng(options_.seed ^ 0xba7cULL);
  crew::Tokenizer tokenizer;
  for (size_t d = 0; d < prepared_.size(); ++d) {
    const crew::Matcher& matcher = PlainMatcher(static_cast<int>(d));
    const crew::Dataset& test = prepared_[d].pipeline.test;
    std::vector<crew::RecordPair> pairs;
    for (int i = 0; i < std::min(8, test.size()); ++i) {
      const crew::RecordPair& pair = test.pair(i);
      crew::PairTokenView view(crew::AnonymousSchema(pair), tokenizer, pair);
      pairs.push_back(pair);
      for (int s = 0; s < 8; ++s) {
        std::vector<bool> keep(view.size());
        for (int t = 0; t < view.size(); ++t) keep[t] = rng.Bernoulli(0.7);
        pairs.push_back(view.Materialize(keep));
      }
    }
    std::vector<double> batch;
    matcher.PredictProbaBatch(pairs, &batch);
    bool same = true;
    for (size_t i = 0; i < pairs.size(); ++i) {
      same = same && batch[i] == matcher.PredictProba(pairs[i]);
    }
    report_->Check(same, "PredictProbaBatch equals PredictProba on sampled "
                         "perturbations of " + prepared_[d].name);
  }
}

// Writes `grid` to a fresh checkpoint; the traced run times every Append.
Status Workload::Persist(const ExperimentResult& grid) {
  auto append_ms = WriteCheckpoint(grid, Path("full.ckpt.jsonl"));
  if (!append_ms.ok()) return append_ms.status();
  if (options_.trace) {
    layers_.append_ms = append_ms.value();
    for (const ExperimentCell& cell : grid.cells) {
      layers_.cell_bytes +=
          static_cast<int64_t>(crew::CellToJsonl("", cell).size()) + 1;
      ++layers_.cells_written;
    }
  }
  return Status::Ok();
}

// Restarts from the full checkpoint: every cell is restored, so a restart
// costs only what Run() does besides computing cells.
Status Workload::Restart(Phase* phase) {
  auto restart = TimedRestart(spec_, Path("full.ckpt.jsonl"),
                              Path("restart.jsonl"), &tracer_);
  if (!restart.ok()) return restart.status();
  phase->resume_s.push_back(restart->cpu_s);
  phase->wall_resume_s.push_back(restart->wall_s);
  bool all_restored = restart->cells.size() == reference_cells_.size();
  for (const CaptureSink::Captured& c : restart->cells) {
    all_restored = all_restored && c.restored;
  }
  report_->Attempt(static_cast<int64_t>(restart->cells.size()));
  report_->Check(all_restored,
                 "a restart over a full checkpoint recomputes no cell");
  CheckReference(restart->result, "the restarted grid");
  if (traced_phase_) {
    layers_.load_ms.push_back(restart->load_ms);
    layers_.prepare_ms.push_back(restart->prepare_ms);
  }
  return Status::Ok();
}

Status Workload::Run() {
  tracer_.set_enabled(options_.trace);
  CREW_RETURN_IF_ERROR(Setup());

  // Warm-up: one uninterrupted grid (the reference every later grid must
  // equal) and one pass over the explained pairs.
  tracer_.set_enabled(false);
  crew::ExperimentRunner runner(spec_);
  auto reference = runner.RunPrepared(prepared_);
  if (!reference.ok()) return reference.status();
  CheckReference(reference.value(), "the warm-up grid");
  CREW_RETURN_IF_ERROR(Persist(reference.value()));
  CREW_RETURN_IF_ERROR(
      ExplainCalls(static_cast<int>(probe_pairs_.size()), nullptr));

  Phase phase;
  double untraced_rate = 0.0;
  if (options_.trace) {
    // Untraced half, then the traced half with the timing decorator.
    Phase untraced;
    CREW_RETURN_IF_ERROR(
        RunPhase(options_.seconds / 2, /*between=*/false, &untraced));
    untraced_rate = Median(untraced.rates);
    tracer_.set_enabled(true);
    WrapMatchers(&prepared_);
    traced_phase_ = true;
    CREW_RETURN_IF_ERROR(
        RunPhase(options_.seconds / 2, /*between=*/true, &phase));
    if (config_.round == Round::kCalls) {
      // This workload's rounds run no grid; its grid, under the decorator,
      // must still equal the untraced warm-up grid.
      Segment segment(&prepared_, &layers_, /*grid=*/true);
      auto traced = runner.RunPrepared(prepared_);
      if (!traced.ok()) return traced.status();
      segment.Close();
      layers_.AddGrid(traced.value());
      CheckReference(traced.value(), "the traced grid");
    }
    traced_phase_ = false;
    ReplaySample(prepared_, report_, &layers_);
    UnwrapMatchers(&prepared_);
  } else {
    CREW_RETURN_IF_ERROR(
        RunPhase(options_.seconds, /*between=*/true, &phase));
  }

  CheckBatchEqualsSingle();
  if (config_.round == Round::kGrid) CheckComprehensiveness(last_grid_);

  if (options_.trace) {
    CREW_RETURN_IF_ERROR(tracer_.WriteChromeJson(Path("trace.json")));
    const bool feature_matcher =
        config_.matcher != crew::MatcherKind::kEmbeddingBag;
    ReportLayers(layers_, split_, feature_matcher, untraced_rate,
                 Median(phase.rates), report_);
  } else {
    report_->Add("setup_s", Median(setup_s_), "s");
    report_->Add("explanations_per_cpu_s", Median(phase.rates), "1/s");
    report_->Add("explain_cpu_p50_ms", Median(phase.latency_ms), "ms");
    report_->Add("explain_cpu_p95_ms", Percentile(phase.latency_ms, 0.95),
                 "ms");
    report_->Add("resume_cpu_s", Median(phase.resume_s), "s");
    report_->Add("peak_rss_mb", PeakRssMb(), "MB");
    report_->Note("wall.setup_s", Median(wall_setup_s_), "s");
    report_->Note("wall.explanations_per_s", Median(phase.wall_rates), "1/s");
    report_->Note("wall.explain_p50_ms", Median(phase.wall_latency_ms), "ms");
    report_->Note("wall.explain_p95_ms",
                  Percentile(phase.wall_latency_ms, 0.95), "ms");
    report_->Note("wall.resume_s", Median(phase.wall_resume_s), "s");
  }
  return Status::Ok();
}

}  // namespace

Status RunWorkload(const Options& options, Report* report) {
  const std::map<std::string, const WorkloadConfig*> workloads = {
      {"grid-mlp", &kGridMlp},
      {"latency-embbag", &kLatencyEmbbag},
      {"stream-resume", &kStreamResume}};
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    return Status::InvalidArgument("unknown workload: " + options.workload);
  }
  return Workload(options, *it->second, report).Run();
}

}  // namespace perfbench
