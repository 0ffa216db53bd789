// Tests for the instance-parallel evaluation runner: sharding must be
// invisible (bit-identical records and aggregates for any --threads
// value), the refactored EvaluateExplainerOnDataset must match the
// historical serial loop exactly, and the ExperimentRunner grid + JSON
// sink must produce well-formed structured results.

#include "crew/eval/runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "crew/common/metrics.h"
#include "crew/common/thread_pool.h"
#include "crew/common/trace.h"
#include "crew/data/generator.h"
#include "crew/eval/comprehensibility.h"
#include "crew/eval/faithfulness.h"
#include "crew/eval/sinks.h"
#include "crew/explain/lime.h"
#include "crew/explain/random_explainer.h"
#include "crew/model/trainer.h"
#include "test_util.h"

namespace crew {
namespace {

using testing::TokenWeightMatcher;

// Restores the process-wide scoring thread setting on scope exit so a
// failing test cannot leak a non-default setting into later tests.
class ScopedScoringThreads {
 public:
  explicit ScopedScoringThreads(int n) { SetScoringThreads(n); }
  ~ScopedScoringThreads() { SetScoringThreads(0); }
};

// Turns span recording on for one scope and drops whatever it recorded.
// Used by the determinism tests: tracing is observation-only, so results
// with it on must be bit-identical to results with it off.
class ScopedTracing {
 public:
  ScopedTracing() { SetTracingEnabled(true); }
  ~ScopedTracing() {
    SetTracingEnabled(false);
    ClearTraceEvents();
  }
};

Dataset SmallDataset() {
  GeneratorConfig config;
  config.num_matches = 40;
  config.num_nonmatches = 40;
  config.seed = 3;
  auto d = GenerateDataset(config);
  CREW_CHECK(d.ok());
  return std::move(d.value());
}

std::vector<int> SomeInstances(const Matcher& matcher, const Dataset& dataset,
                               int n) {
  Rng rng(5);
  return SelectExplainInstances(matcher, dataset, n, rng);
}

// Everything except runtime_ms (wall-clock, inherently nondeterministic).
void ExpectRecordsBitIdentical(const InstanceEvaluation& a,
                               const InstanceEvaluation& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.predicted_match, b.predicted_match);
  EXPECT_EQ(a.aopc, b.aopc);
  EXPECT_EQ(a.comprehensiveness_at_1, b.comprehensiveness_at_1);
  EXPECT_EQ(a.comprehensiveness_at_3, b.comprehensiveness_at_3);
  EXPECT_EQ(a.sufficiency_at_1, b.sufficiency_at_1);
  EXPECT_EQ(a.sufficiency_at_3, b.sufficiency_at_3);
  EXPECT_EQ(a.comprehensiveness_budget, b.comprehensiveness_budget);
  EXPECT_EQ(a.decision_flip, b.decision_flip);
  EXPECT_EQ(a.insertion_aopc, b.insertion_aopc);
  EXPECT_EQ(a.flip_set.flipped, b.flip_set.flipped);
  EXPECT_EQ(a.flip_set.units_removed, b.flip_set.units_removed);
  EXPECT_EQ(a.flip_set.tokens_removed, b.flip_set.tokens_removed);
  EXPECT_EQ(a.curve, b.curve);
  EXPECT_EQ(a.total_units, b.total_units);
  EXPECT_EQ(a.effective_units, b.effective_units);
  EXPECT_EQ(a.words_per_unit, b.words_per_unit);
  EXPECT_EQ(a.semantic_coherence, b.semantic_coherence);
  EXPECT_EQ(a.attribute_purity, b.attribute_purity);
  EXPECT_EQ(a.has_cluster_stats, b.has_cluster_stats);
  EXPECT_EQ(a.cluster_coherence, b.cluster_coherence);
  EXPECT_EQ(a.cluster_silhouette, b.cluster_silhouette);
  EXPECT_EQ(a.chosen_k, b.chosen_k);
  EXPECT_EQ(a.stability, b.stability);
  EXPECT_EQ(a.surrogate_r2, b.surrogate_r2);
}

void ExpectAggregatesBitIdentical(const ExplainerAggregate& a,
                                  const ExplainerAggregate& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.aopc, b.aopc);
  EXPECT_EQ(a.comprehensiveness_at_1, b.comprehensiveness_at_1);
  EXPECT_EQ(a.comprehensiveness_at_3, b.comprehensiveness_at_3);
  EXPECT_EQ(a.sufficiency_at_1, b.sufficiency_at_1);
  EXPECT_EQ(a.sufficiency_at_3, b.sufficiency_at_3);
  EXPECT_EQ(a.comprehensiveness_budget5, b.comprehensiveness_budget5);
  EXPECT_EQ(a.decision_flip_rate, b.decision_flip_rate);
  EXPECT_EQ(a.insertion_aopc, b.insertion_aopc);
  EXPECT_EQ(a.flip_set_rate, b.flip_set_rate);
  EXPECT_EQ(a.flip_set_units, b.flip_set_units);
  EXPECT_EQ(a.flip_set_tokens, b.flip_set_tokens);
  EXPECT_EQ(a.total_units, b.total_units);
  EXPECT_EQ(a.effective_units, b.effective_units);
  EXPECT_EQ(a.words_per_unit, b.words_per_unit);
  EXPECT_EQ(a.semantic_coherence, b.semantic_coherence);
  EXPECT_EQ(a.attribute_purity, b.attribute_purity);
  EXPECT_EQ(a.cluster_coherence, b.cluster_coherence);
  EXPECT_EQ(a.cluster_silhouette, b.cluster_silhouette);
  EXPECT_EQ(a.mean_chosen_k, b.mean_chosen_k);
  EXPECT_EQ(a.stability, b.stability);
  EXPECT_EQ(a.surrogate_r2, b.surrogate_r2);
}

TEST(EvaluateInstancesTest, BitIdenticalAcrossThreadCounts) {
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  const auto idx = SomeInstances(matcher, dataset, 6);
  ASSERT_FALSE(idx.empty());
  LimeConfig config;
  config.perturbation.num_samples = 48;
  LimeExplainer lime(config);
  InstanceEvalOptions options;
  options.curve_fractions = {0.0, 0.5, 1.0};

  std::vector<std::vector<InstanceEvaluation>> runs;
  for (int threads : {1, 2, 4}) {
    ScopedScoringThreads scoped(threads);
    auto records =
        EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9, options);
    ASSERT_TRUE(records.ok()) << "threads=" << threads;
    ASSERT_EQ(records->size(), idx.size());
    runs.push_back(std::move(records.value()));
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    for (size_t i = 0; i < runs[0].size(); ++i) {
      SCOPED_TRACE("run=" + std::to_string(run) +
                   " instance=" + std::to_string(i));
      ExpectRecordsBitIdentical(runs[0][i], runs[run][i]);
    }
    ExpectAggregatesBitIdentical(ReduceInstances("lime", runs[0]),
                                 ReduceInstances("lime", runs[run]));
  }
}

TEST(EvaluateInstancesTest, TracingDoesNotChangeResults) {
  // The observability contract: enabling span recording must not change a
  // single number, for any thread count. Baseline with tracing off, then
  // re-run at threads 1/2/4 with tracing on.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  const auto idx = SomeInstances(matcher, dataset, 4);
  ASSERT_FALSE(idx.empty());
  LimeConfig config;
  config.perturbation.num_samples = 32;
  LimeExplainer lime(config);

  auto baseline = EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9);
  ASSERT_TRUE(baseline.ok());

  for (int threads : {1, 2, 4}) {
    ScopedScoringThreads scoped_threads(threads);
    ScopedTracing scoped_tracing;
    auto traced = EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9);
    ASSERT_TRUE(traced.ok()) << "threads=" << threads;
    // Spans were actually recorded (the run is not silently untraced).
    EXPECT_FALSE(CollectTraceEvents().empty()) << "threads=" << threads;
    ASSERT_EQ(traced->size(), baseline->size());
    for (size_t i = 0; i < baseline->size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " instance=" + std::to_string(i));
      ExpectRecordsBitIdentical(baseline.value()[i], traced.value()[i]);
    }
  }
}

TEST(EvaluateInstancesTest, SeedDerivationIsPerIndexNotPerPosition) {
  // Shuffling the index list must not change any individual record: the
  // instance seed depends on the pair index, not the shard position.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}}, -0.1);
  const auto idx = SomeInstances(matcher, dataset, 5);
  ASSERT_GE(idx.size(), 2u);
  std::vector<int> reversed(idx.rbegin(), idx.rend());
  LimeConfig config;
  config.perturbation.num_samples = 32;
  LimeExplainer lime(config);
  auto forward = EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9);
  auto backward =
      EvaluateInstances(lime, matcher, dataset, reversed, nullptr, 9);
  ASSERT_TRUE(forward.ok() && backward.ok());
  for (size_t i = 0; i < idx.size(); ++i) {
    SCOPED_TRACE("i=" + std::to_string(i));
    ExpectRecordsBitIdentical(forward.value()[i],
                              backward.value()[idx.size() - 1 - i]);
  }
}

TEST(EvaluateExplainerOnDatasetTest, MatchesSerialReferenceImplementation) {
  // The historical implementation, verbatim: one serial loop accumulating
  // sums in instance order, scaled at the end, every faithfulness metric
  // computed by the mask-by-mask oracle above. The sharded runner (one
  // scoring batch per instance + deterministic reduction) must reproduce
  // it bit for bit, per instance and in aggregate.
  Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  auto idx = SomeInstances(matcher, dataset, 6);
  ASSERT_FALSE(idx.empty());
  // A one-word pair: one unit, so every top-k metric clamps k to 1.
  RecordPair single = dataset.pair(idx[0]);
  for (auto* values : {&single.left.values, &single.right.values}) {
    for (std::string& value : *values) value.clear();
  }
  single.left.values[0] = "vortexa";
  dataset.Add(single);
  idx.push_back(dataset.size() - 1);
  LimeConfig config;
  config.perturbation.num_samples = 48;
  LimeExplainer lime(config);
  const uint64_t seed = 9;
  InstanceEvalOptions options;
  options.curve_fractions = {0.0, 0.1, 0.25, 0.5, 0.75, 1.0};

  ExplainerAggregate reference;
  reference.name = lime.Name();
  std::vector<double> reference_aopc;
  std::vector<testing::OracleFaithfulness> oracles;
  int flipped = 0;
  bool saw_one_unit = false, saw_many_units = false;
  Tokenizer tokenizer;
  for (int i : idx) {
    const RecordPair& pair = dataset.pair(i);
    auto explained = ExplainAsUnits(lime, matcher, pair,
                                    seed ^ (static_cast<uint64_t>(i) << 20));
    ASSERT_TRUE(explained.ok());
    const WordExplanation& words = explained->first;
    const std::vector<ExplanationUnit>& units = explained->second;
    if (units.empty()) continue;
    saw_one_unit = saw_one_unit || units.size() == 1;
    saw_many_units = saw_many_units || units.size() > 5;
    EvalInstance instance{PairTokenView(AnonymousSchema(pair), tokenizer,
                                        pair),
                          units, words.base_score, matcher.threshold()};
    const testing::OracleFaithfulness o =
        testing::ScoreEachMask(matcher, instance, options.curve_fractions);
    oracles.push_back(o);
    reference_aopc.push_back(o.aopc);
    reference.aopc += o.aopc;
    reference.comprehensiveness_at_1 += o.comprehensiveness_at_1;
    reference.comprehensiveness_at_3 += o.comprehensiveness_at_3;
    reference.sufficiency_at_1 += o.sufficiency_at_1;
    reference.sufficiency_at_3 += o.sufficiency_at_3;
    reference.comprehensiveness_budget5 += o.comprehensiveness_budget5;
    reference.decision_flip_rate += o.decision_flip ? 1.0 : 0.0;
    reference.insertion_aopc += o.insertion_aopc;
    if (o.flip_set.flipped) {
      reference.flip_set_rate += 1.0;
      reference.flip_set_units += o.flip_set.units_removed;
      reference.flip_set_tokens += o.flip_set.tokens_removed;
      ++flipped;
    }
    const ComprehensibilityResult comp =
        EvaluateComprehensibility(words, units, nullptr);
    reference.total_units += comp.total_units;
    reference.effective_units += comp.effective_units;
    reference.words_per_unit += comp.avg_words_per_unit;
    reference.semantic_coherence += comp.semantic_coherence;
    reference.attribute_purity += comp.attribute_purity;
    reference.surrogate_r2 += words.surrogate_r2;
    ++reference.instances;
  }
  ASSERT_GT(reference.instances, 0);
  ASSERT_TRUE(saw_one_unit);
  ASSERT_TRUE(saw_many_units);
  const double inv = 1.0 / reference.instances;
  reference.aopc *= inv;
  reference.comprehensiveness_at_1 *= inv;
  reference.comprehensiveness_at_3 *= inv;
  reference.sufficiency_at_1 *= inv;
  reference.sufficiency_at_3 *= inv;
  reference.comprehensiveness_budget5 *= inv;
  reference.decision_flip_rate *= inv;
  reference.insertion_aopc *= inv;
  reference.flip_set_rate *= inv;
  reference.total_units *= inv;
  reference.effective_units *= inv;
  reference.words_per_unit *= inv;
  reference.semantic_coherence *= inv;
  reference.attribute_purity *= inv;
  reference.surrogate_r2 *= inv;
  if (flipped > 0) {
    reference.flip_set_units /= flipped;
    reference.flip_set_tokens /= flipped;
  }

  for (int threads : {1, 4}) {
    ScopedScoringThreads scoped(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<double> per_instance;
    auto agg = EvaluateExplainerOnDataset(lime, matcher, dataset, idx,
                                          nullptr, seed, &per_instance);
    ASSERT_TRUE(agg.ok());
    EXPECT_EQ(per_instance, reference_aopc);
    EXPECT_EQ(agg->instances, reference.instances);
    EXPECT_EQ(agg->aopc, reference.aopc);
    EXPECT_EQ(agg->comprehensiveness_at_1, reference.comprehensiveness_at_1);
    EXPECT_EQ(agg->comprehensiveness_at_3, reference.comprehensiveness_at_3);
    EXPECT_EQ(agg->sufficiency_at_1, reference.sufficiency_at_1);
    EXPECT_EQ(agg->sufficiency_at_3, reference.sufficiency_at_3);
    EXPECT_EQ(agg->comprehensiveness_budget5,
              reference.comprehensiveness_budget5);
    EXPECT_EQ(agg->decision_flip_rate, reference.decision_flip_rate);
    EXPECT_EQ(agg->insertion_aopc, reference.insertion_aopc);
    EXPECT_EQ(agg->flip_set_rate, reference.flip_set_rate);
    EXPECT_EQ(agg->flip_set_units, reference.flip_set_units);
    EXPECT_EQ(agg->flip_set_tokens, reference.flip_set_tokens);
    EXPECT_EQ(agg->total_units, reference.total_units);
    EXPECT_EQ(agg->effective_units, reference.effective_units);
    EXPECT_EQ(agg->words_per_unit, reference.words_per_unit);
    EXPECT_EQ(agg->semantic_coherence, reference.semantic_coherence);
    EXPECT_EQ(agg->attribute_purity, reference.attribute_purity);
    EXPECT_EQ(agg->surrogate_r2, reference.surrogate_r2);

    // Per instance, with the deletion curve switched on.
    auto records = EvaluateInstances(lime, matcher, dataset, idx, nullptr,
                                     seed, options);
    ASSERT_TRUE(records.ok());
    size_t o = 0;
    for (const InstanceEvaluation& r : records.value()) {
      if (!r.evaluated) continue;
      ASSERT_LT(o, oracles.size());
      const testing::OracleFaithfulness& want = oracles[o++];
      SCOPED_TRACE("index=" + std::to_string(r.index));
      EXPECT_EQ(r.aopc, want.aopc);
      EXPECT_EQ(r.comprehensiveness_at_1, want.comprehensiveness_at_1);
      EXPECT_EQ(r.comprehensiveness_at_3, want.comprehensiveness_at_3);
      EXPECT_EQ(r.sufficiency_at_1, want.sufficiency_at_1);
      EXPECT_EQ(r.sufficiency_at_3, want.sufficiency_at_3);
      EXPECT_EQ(r.comprehensiveness_budget, want.comprehensiveness_budget5);
      EXPECT_EQ(r.decision_flip, want.decision_flip);
      EXPECT_EQ(r.insertion_aopc, want.insertion_aopc);
      EXPECT_EQ(r.flip_set.flipped, want.flip_set.flipped);
      EXPECT_EQ(r.flip_set.units_removed, want.flip_set.units_removed);
      EXPECT_EQ(r.flip_set.tokens_removed, want.flip_set.tokens_removed);
      EXPECT_EQ(r.curve, want.curve);
    }
    EXPECT_EQ(o, oracles.size());
  }
}

TEST(ReduceInstancesTest, FilteredReductionSplitsByPrediction) {
  InstanceEvaluation match;
  match.evaluated = true;
  match.predicted_match = true;
  match.aopc = 0.8;
  InstanceEvaluation nonmatch;
  nonmatch.evaluated = true;
  nonmatch.predicted_match = false;
  nonmatch.aopc = 0.2;
  InstanceEvaluation skipped;  // evaluated = false: never counted
  const std::vector<InstanceEvaluation> records = {match, nonmatch, skipped};

  const auto all = ReduceInstances("x", records);
  EXPECT_EQ(all.instances, 2);
  EXPECT_DOUBLE_EQ(all.aopc, 0.5);
  const auto only_match = ReduceInstancesIf(
      "x", records,
      [](const InstanceEvaluation& r) { return r.predicted_match; });
  EXPECT_EQ(only_match.instances, 1);
  EXPECT_DOUBLE_EQ(only_match.aopc, 0.8);
}

BenchmarkEntry TinyEntry(const std::string& name, uint64_t seed) {
  BenchmarkEntry entry;
  entry.name = name;
  entry.config.num_matches = 30;
  entry.config.num_nonmatches = 30;
  entry.config.seed = seed;
  return entry;
}

TEST(ExperimentRunnerTest, RunsTheFullGridAndJsonRoundTrips) {
  ExperimentSpec spec;
  spec.name = "runner_grid_test";
  spec.datasets = {TinyEntry("tiny-a", 3), TinyEntry("tiny-b", 4)};
  spec.matcher = MatcherKind::kLogistic;
  spec.instances_per_dataset = 3;
  spec.seed = 7;
  spec.suite = [](const TrainedPipeline&) {
    std::vector<SuiteEntry> suite;
    LimeConfig lime;
    lime.perturbation.num_samples = 24;
    suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
    suite.push_back({"random", std::make_unique<RandomExplainer>()});
    return suite;
  };
  ExperimentRunner runner(std::move(spec));
  auto result = runner.Run();
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->name, "runner_grid_test");
  ASSERT_EQ(result->cells.size(), 4u);  // 2 datasets x 2 variants
  EXPECT_EQ(result->VariantNames(),
            (std::vector<std::string>{"lime", "random"}));
  for (const ExperimentCell& cell : result->cells) {
    EXPECT_EQ(cell.instances.size(), 3u);
    EXPECT_GT(cell.aggregate.instances, 0);
    EXPECT_TRUE(std::isfinite(cell.aggregate.aopc));
    if (cell.variant == "lime") {
      // LIME perturbations go through the batch scoring engine, so the
      // cell must have been attributed a non-zero counter delta.
      const MetricEntry* predictions =
          FindMetric(cell.registry, "crew/scoring/predictions");
      ASSERT_NE(predictions, nullptr);
      EXPECT_GT(predictions->count, 0);
    }
  }
  const auto lime_aopc = result->PerInstanceAopc("lime");
  EXPECT_EQ(lime_aopc.size(),
            static_cast<size_t>(result->ReduceAcross("lime").instances));

  const std::string json = ExperimentResultToJson(*result);
  EXPECT_NE(json.find("\"experiment\":\"runner_grid_test\""),
            std::string::npos);
  EXPECT_NE(json.find("\"instances\":[{\"index\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string path = ::testing::TempDir() + "/runner_result.json";
  ASSERT_TRUE(WriteExperimentJson(*result, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<size_t>(std::ftell(f)), json.size());
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ExperimentRunnerTest, GridIsBitIdenticalAcrossThreadCounts) {
  auto make_runner = [] {
    ExperimentSpec spec;
    spec.name = "determinism";
    spec.datasets = {TinyEntry("tiny", 3)};
    spec.matcher = MatcherKind::kLogistic;
    spec.instances_per_dataset = 4;
    spec.seed = 7;
    spec.suite = [](const TrainedPipeline&) {
      std::vector<SuiteEntry> suite;
      LimeConfig lime;
      lime.perturbation.num_samples = 32;
      suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
      return suite;
    };
    return ExperimentRunner(std::move(spec));
  };
  std::vector<ExperimentResult> results;
  for (int threads : {1, 4}) {
    ScopedScoringThreads scoped(threads);
    auto result = make_runner().Run();
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    results.push_back(std::move(result.value()));
  }
  ASSERT_EQ(results[0].cells.size(), results[1].cells.size());
  for (size_t c = 0; c < results[0].cells.size(); ++c) {
    SCOPED_TRACE("cell=" + std::to_string(c));
    ExpectAggregatesBitIdentical(results[0].cells[c].aggregate,
                                 results[1].cells[c].aggregate);
    ASSERT_EQ(results[0].cells[c].instances.size(),
              results[1].cells[c].instances.size());
    for (size_t i = 0; i < results[0].cells[c].instances.size(); ++i) {
      ExpectRecordsBitIdentical(results[0].cells[c].instances[i],
                                results[1].cells[c].instances[i]);
    }
  }
}

TEST(ExperimentRunnerTest, CellsAreIndependentOfCompletionOrder) {
  // Property check behind the resume contract: executing the grid in a
  // shuffled order must not change a single byte of the serialized result
  // — cells land in canonical slots and derive their seeds from the grid
  // key, and the registry delta of a cell depends only on that cell's own
  // activity (all-zero entries registered by earlier cells are dropped).
  // Stable-timing mode zeroes the wall-clock fields that legitimately
  // differ.
  SetStableTiming(true);
  auto make_runner = [] {
    ExperimentSpec spec;
    spec.name = "order_independence";
    spec.datasets = {TinyEntry("tiny-a", 3), TinyEntry("tiny-b", 4)};
    spec.matcher = MatcherKind::kLogistic;
    spec.instances_per_dataset = 2;
    spec.seed = 7;
    spec.suite = [](const TrainedPipeline&) {
      std::vector<SuiteEntry> suite;
      LimeConfig lime;
      lime.perturbation.num_samples = 16;
      suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
      suite.push_back({"random", std::make_unique<RandomExplainer>()});
      return suite;
    };
    return ExperimentRunner(std::move(spec));
  };
  auto canonical = make_runner().Run();
  ASSERT_TRUE(canonical.ok());
  const std::string canonical_json = ExperimentResultToJson(*canonical);
  for (uint64_t shuffle_seed : {11u, 42u, 97u}) {
    SCOPED_TRACE("shuffle_seed=" + std::to_string(shuffle_seed));
    RunHooks hooks;
    hooks.shuffle_seed = shuffle_seed;
    auto shuffled = make_runner().Run(hooks);
    ASSERT_TRUE(shuffled.ok());
    EXPECT_EQ(ExperimentResultToJson(*shuffled), canonical_json);
  }
  SetStableTiming(false);
}

// 2 datasets x {lime, random}. The suite factory counts its calls on a
// real pipeline, which Run() makes once per dataset it prepares.
ExperimentRunner CountingRunner(int* prepared) {
  ExperimentSpec spec;
  spec.name = "lazy_prepare";
  spec.datasets = {TinyEntry("tiny-a", 3), TinyEntry("tiny-b", 4)};
  spec.matcher = MatcherKind::kLogistic;
  spec.instances_per_dataset = 2;
  spec.seed = 7;
  spec.suite = [prepared](const TrainedPipeline& pipeline) {
    if (pipeline.matcher != nullptr) ++*prepared;
    std::vector<SuiteEntry> suite;
    LimeConfig lime;
    lime.perturbation.num_samples = 16;
    suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
    suite.push_back({"random", std::make_unique<RandomExplainer>()});
    return suite;
  };
  return ExperimentRunner(std::move(spec));
}

TEST(ExperimentRunnerTest, EachDatasetIsPreparedOnceInAnyScheduleAndPool) {
  // Preparation is lazy and a dataset lives until its last cell, so a
  // shuffled schedule that interleaves the datasets' cells still prepares
  // each exactly once — and the result stays bit-identical to the
  // canonical single-thread run for every thread count.
  SetStableTiming(true);
  int prepared = 0;
  auto canonical = CountingRunner(&prepared).Run();
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(prepared, 2);
  canonical->include_metrics = true;
  const std::string canonical_json = ExperimentResultToJson(*canonical);
  for (int threads : {1, 2, 4}) {
    ScopedScoringThreads scoped(threads);
    for (uint64_t shuffle_seed : {0u, 11u, 42u, 97u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shuffle_seed=" + std::to_string(shuffle_seed));
      RunHooks hooks;
      hooks.shuffle_seed = shuffle_seed;
      prepared = 0;
      auto result = CountingRunner(&prepared).Run(hooks);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(prepared, 2);
      // Only the header's "threads" param may differ.
      result->params = canonical->params;
      result->include_metrics = true;
      EXPECT_EQ(ExperimentResultToJson(*result), canonical_json);
    }
  }
  SetStableTiming(false);
}

TEST(ExperimentRunnerTest, SuiteNamesThatDependOnThePipelineAreRefused) {
  // The runner derives the key grid from suite(TrainedPipeline()); a
  // factory whose real line-up differs (more, fewer or reordered names)
  // breaks the contract and must fail cleanly instead of crashing.
  using Names = std::vector<std::string>;
  for (const Names& real : {Names{"lime", "random", "extra"}, Names{"lime"},
                            Names{"random", "lime"}}) {
    SCOPED_TRACE(real.size());
    ExperimentSpec spec;
    spec.name = "pipeline_dependent_names";
    spec.datasets = {TinyEntry("tiny", 3)};
    spec.matcher = MatcherKind::kLogistic;
    spec.instances_per_dataset = 2;
    spec.suite = [real](const TrainedPipeline& pipeline) {
      const Names names = pipeline.matcher != nullptr
                              ? real
                              : Names{"lime", "random"};
      std::vector<SuiteEntry> suite;
      for (const std::string& name : names) {
        suite.push_back({name, std::make_unique<RandomExplainer>()});
      }
      return suite;
    };
    ExperimentRunner runner(std::move(spec));
    auto result = runner.Run();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find("tiny"), std::string::npos);
  }
}

TEST(ExperimentRunnerTest, RegistryDeltaPartitionsStagePredictions) {
  // Each cell carries the full metrics-registry delta for its run, and the
  // per-stage prediction split must sum to the total.
  ExperimentSpec spec;
  spec.name = "registry_consistency";
  spec.datasets = {TinyEntry("tiny", 3)};
  spec.matcher = MatcherKind::kLogistic;
  spec.instances_per_dataset = 3;
  spec.seed = 7;
  spec.suite = [](const TrainedPipeline&) {
    std::vector<SuiteEntry> suite;
    LimeConfig lime;
    lime.perturbation.num_samples = 24;
    suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
    return suite;
  };
  ExperimentRunner runner(std::move(spec));
  auto result = runner.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->cells.size(), 1u);
  const ExperimentCell& cell = result->cells[0];
  ASSERT_FALSE(cell.registry.empty());

  const MetricEntry* predictions =
      FindMetric(cell.registry, "crew/scoring/predictions");
  ASSERT_NE(predictions, nullptr);
  EXPECT_GT(predictions->count, 0);

  // Per-stage split: crew/scoring/predictions/<stage> entries partition
  // the total prediction count.
  std::int64_t stage_sum = 0;
  int stages = 0;
  for (const MetricEntry& entry : cell.registry) {
    if (entry.name.rfind("crew/scoring/predictions/", 0) == 0) {
      stage_sum += entry.count;
      ++stages;
    }
  }
  EXPECT_GT(stages, 0);
  EXPECT_EQ(stage_sum, predictions->count);

  // The runner's own instrumentation was attributed to the cell too.
  const MetricEntry* instances =
      FindMetric(cell.registry, "crew/runner/instances");
  ASSERT_NE(instances, nullptr);
  EXPECT_EQ(instances->count, 3);
  const MetricEntry* wall = FindMetric(cell.registry, "crew/runner/instance");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->kind, MetricKind::kDuration);
  EXPECT_EQ(wall->count, 3);
}

TEST(ExperimentRunnerTest, RunWithAppendsCustomCells) {
  ExperimentSpec spec;
  spec.name = "custom";
  spec.datasets = {TinyEntry("tiny", 3)};
  spec.matcher = MatcherKind::kLogistic;
  spec.instances_per_dataset = 2;
  ExperimentRunner runner(std::move(spec));
  auto result = runner.RunWith(
      [](const PreparedDataset& prepared, ExperimentResult* out) -> Status {
        ExperimentCell cell;
        cell.dataset = prepared.name;
        cell.variant = "custom";
        cell.metrics.push_back(
            {"instances", static_cast<double>(prepared.instances.size())});
        cell.notes.push_back({"note", "value"});
        out->cells.push_back(std::move(cell));
        return Status::Ok();
      });
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->cells.size(), 1u);
  EXPECT_EQ(result->cells[0].dataset, "tiny");
  EXPECT_EQ(result->cells[0].metrics[0].second, 2.0);
  // Metric/note cells serialize as the same cell record, with no
  // instances.
  const std::string json = ExperimentResultToJson(*result);
  EXPECT_NE(json.find("\"instances\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"notes\":[[\"note\",\"value\"]]"),
            std::string::npos);
}

TEST(SinksTest, TableColumnsFormatCells) {
  ExperimentCell cell;
  cell.dataset = "d";
  cell.variant = "v";
  cell.aggregate.aopc = 0.25;
  cell.metrics.push_back({"f1", 0.5});
  cell.notes.push_back({"label", "hello"});
  const std::vector<ExperimentCell> cells = {cell};
  Table table = MakeCellTable(
      cells,
      {AggColumn("aopc", &ExplainerAggregate::aopc, 2),
       MetricColumn("f1", "f1", 1), MetricColumn("missing", "nope"),
       NoteColumn("label", "label")});
  const std::string text = table.ToAligned();
  EXPECT_NE(text.find("0.25"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
  EXPECT_NE(text.find("hello"), std::string::npos);
  EXPECT_NE(text.find("-"), std::string::npos);  // missing metric
}

}  // namespace
}  // namespace crew
