// Determinism regression tests for the batch scoring engine: every
// explainer must produce bit-identical output whether scoring runs inline
// (threads=1, the legacy path) or through the shared pool (threads=4), and
// a pair's Matcher::PredictProbaBatch score must not depend on its batch.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/rng.h"
#include "crew/common/thread_pool.h"
#include "crew/data/generator.h"
#include "crew/eval/experiment.h"
#include "crew/explain/batch_scorer.h"
#include "crew/explain/shap.h"
#include "crew/explain/token_view.h"
#include "crew/model/trainer.h"
#include "test_util.h"

namespace crew {
namespace {

// One small trained pipeline per matcher kind, shared across tests.
const TrainedPipeline& PipelineFor(MatcherKind kind) {
  static auto* pipelines = new std::map<MatcherKind, TrainedPipeline>();
  auto it = pipelines->find(kind);
  if (it == pipelines->end()) {
    GeneratorConfig config;
    config.num_matches = 40;
    config.num_nonmatches = 40;
    auto d = GenerateDataset(config);
    CREW_CHECK(d.ok());
    auto p = TrainPipeline(d.value(), kind, 0.7, 7);
    CREW_CHECK(p.ok());
    it = pipelines->emplace(kind, std::move(p.value())).first;
  }
  return it->second;
}

// Restores the process-wide scoring thread setting on scope exit so a
// failing test cannot leak a non-default setting into later tests.
class ScopedScoringThreads {
 public:
  explicit ScopedScoringThreads(int n) { SetScoringThreads(n); }
  ~ScopedScoringThreads() { SetScoringThreads(0); }
};

TEST(PredictProbaBatchTest, MatchesPerPairLoopForEveryMatcher) {
  for (MatcherKind kind : AllMatcherKinds()) {
    const TrainedPipeline& pipeline = PipelineFor(kind);
    std::vector<RecordPair> pairs;
    for (int i = 0; i < pipeline.test.size(); ++i) {
      pairs.push_back(pipeline.test.pair(i));
    }
    std::vector<double> batch;
    pipeline.matcher->PredictProbaBatch(pairs, &batch);
    ASSERT_EQ(batch.size(), pairs.size()) << MatcherKindName(kind);
    for (size_t i = 0; i < pairs.size(); ++i) {
      // Bit-identical, not approximately equal: the batch path must hoist
      // buffers without changing a single floating-point operation.
      EXPECT_EQ(batch[i], pipeline.matcher->PredictProba(pairs[i]))
          << MatcherKindName(kind) << " pair " << i;
    }
  }
}

// A pair's score may not depend on what else shares its batch or where it
// sits: FaithfulnessBatch scores a whole instance's masks in one call and
// relies on each reading equalling the mask scored alone. Positions 63 and
// 64 straddle BatchScorer's 64-pair materialization block, so one sees a
// featurizer memo warmed by 63 siblings and the other a fresh one.
TEST(PredictProbaBatchTest, ScoreIndependentOfBatchComposition) {
  constexpr int kBatch = 70;
  for (MatcherKind kind : AllMatcherKinds()) {
    const TrainedPipeline& pipeline = PipelineFor(kind);
    const Matcher& matcher = *pipeline.matcher;
    for (int p = 0; p < 3; ++p) {
      const RecordPair& pair = pipeline.test.pair(p);
      Tokenizer tokenizer;
      PairTokenView view(AnonymousSchema(pair), tokenizer, pair);
      Rng rng(31 + p);
      std::vector<std::vector<bool>> keeps(kBatch,
                                           std::vector<bool>(view.size()));
      for (auto& keep : keeps) {
        for (size_t i = 0; i < keep.size(); ++i) keep[i] = rng.Bernoulli(0.6);
      }
      const std::vector<bool> target = keeps[0];
      const RecordPair target_pair = view.Materialize(target);
      double alone = 0.0;
      matcher.PredictProbaBatch(&target_pair, 1, &alone);
      const std::string where = std::string(MatcherKindName(kind)) +
                                " pair " + std::to_string(p);
      EXPECT_EQ(matcher.PredictProba(target_pair), alone) << where;
      for (int pos : {0, 63, 64}) {
        std::swap(keeps[0], keeps[pos]);  // target now at `pos`
        std::vector<RecordPair> pairs;
        for (const auto& keep : keeps) pairs.push_back(view.Materialize(keep));
        std::vector<double> direct, scored;
        matcher.PredictProbaBatch(pairs, &direct);
        {
          ScopedScoringThreads threads(1);  // one chunk: blocks of 64
          BatchScorer(matcher, view).ScoreKeepMasks(keeps, &scored);
        }
        EXPECT_EQ(direct[pos], alone) << where << " position " << pos;
        EXPECT_EQ(scored[pos], alone) << where << " position " << pos;
        std::swap(keeps[0], keeps[pos]);
      }
    }
  }
}

TEST(PredictProbaBatchTest, EmptyBatchIsANoOp) {
  const TrainedPipeline& pipeline = PipelineFor(MatcherKind::kLogistic);
  std::vector<double> out(3, 1.0);
  pipeline.matcher->PredictProbaBatch({}, &out);
  EXPECT_TRUE(out.empty());
}

// Every explainer in the line-up (plus KernelSHAP, which the table suite
// omits) must be bit-identical across scoring thread counts.
TEST(BatchDeterminismTest, ExplainersBitIdenticalAcrossThreadCounts) {
  const TrainedPipeline& pipeline = PipelineFor(MatcherKind::kMlp);
  ExplainerSuiteConfig config;
  config.num_samples = 64;
  config.include_random = false;
  auto suite = BuildExplainerSuite(pipeline.embeddings, pipeline.train,
                                   config);
  KernelShapConfig shap;
  shap.num_samples = 64;
  suite.push_back(std::make_unique<KernelShapExplainer>(shap));

  Rng rng(99);
  std::vector<int> instances =
      SelectExplainInstances(*pipeline.matcher, pipeline.test, 2, rng);
  ASSERT_FALSE(instances.empty());

  for (const auto& explainer : suite) {
    for (int idx : instances) {
      const RecordPair& pair = pipeline.test.pair(idx);
      const uint64_t seed = 1234 + idx;
      Result<WordExplanation> serial = [&] {
        ScopedScoringThreads threads(1);
        return explainer->Explain(*pipeline.matcher, pair, seed);
      }();
      Result<WordExplanation> parallel = [&] {
        ScopedScoringThreads threads(4);
        return explainer->Explain(*pipeline.matcher, pair, seed);
      }();
      ASSERT_TRUE(serial.ok() && parallel.ok()) << explainer->Name();
      EXPECT_EQ(serial->base_score, parallel->base_score)
          << explainer->Name();
      EXPECT_EQ(serial->surrogate_r2, parallel->surrogate_r2)
          << explainer->Name();
      ASSERT_EQ(serial->attributions.size(), parallel->attributions.size())
          << explainer->Name();
      for (size_t i = 0; i < serial->attributions.size(); ++i) {
        EXPECT_EQ(serial->attributions[i].weight,
                  parallel->attributions[i].weight)
            << explainer->Name() << " token " << i << " instance " << idx;
      }
    }
  }
}

TEST(BatchDeterminismTest, MatcherBatchBitIdenticalAcrossThreadCounts) {
  // PredictProbaBatch itself never threads (BatchScorer does), but run it
  // under both settings anyway: a regression that made the matcher consult
  // the global setting would surface here.
  for (MatcherKind kind : AllMatcherKinds()) {
    const TrainedPipeline& pipeline = PipelineFor(kind);
    std::vector<RecordPair> pairs;
    for (int i = 0; i < pipeline.test.size(); ++i) {
      pairs.push_back(pipeline.test.pair(i));
    }
    std::vector<double> serial, parallel;
    {
      ScopedScoringThreads threads(1);
      pipeline.matcher->PredictProbaBatch(pairs, &serial);
    }
    {
      ScopedScoringThreads threads(4);
      pipeline.matcher->PredictProbaBatch(pairs, &parallel);
    }
    EXPECT_EQ(serial, parallel) << MatcherKindName(kind);
  }
}

TEST(MaterializeIntoTest, MatchesMaterializeUnderBufferReuse) {
  const RecordPair pair = testing::MakePair(
      "vortexa wireless headphones mx", "graphite 128gb",
      "vortexa headphones mx4821", "silver 64gb");
  Tokenizer tokenizer;
  PairTokenView view(AnonymousSchema(pair), tokenizer, pair);
  ASSERT_GT(view.size(), 0);

  Rng rng(5);
  RecordPair reused;  // deliberately reused across iterations
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<bool> keep(view.size());
    for (int i = 0; i < view.size(); ++i) keep[i] = rng.Bernoulli(0.5);
    const RecordPair fresh = view.Materialize(keep);
    view.MaterializeInto(keep, &reused);
    EXPECT_EQ(fresh.left.values, reused.left.values) << "trial " << trial;
    EXPECT_EQ(fresh.right.values, reused.right.values) << "trial " << trial;
  }
}

TEST(MaterializeIntoTest, InjectionVariantMatchesToo) {
  const RecordPair pair = testing::MakePair(
      "alpha beta gamma", "delta", "epsilon zeta", "eta theta");
  Tokenizer tokenizer;
  PairTokenView view(AnonymousSchema(pair), tokenizer, pair);
  ASSERT_GT(view.size(), 0);

  Rng rng(6);
  RecordPair reused;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<bool> keep(view.size()), inject(view.size());
    for (int i = 0; i < view.size(); ++i) {
      keep[i] = rng.Bernoulli(0.7);
      inject[i] = rng.Bernoulli(0.3);
    }
    const RecordPair fresh = view.MaterializeWithInjection(keep, inject);
    view.MaterializeWithInjectionInto(keep, inject, &reused);
    EXPECT_EQ(fresh.left.values, reused.left.values) << "trial " << trial;
    EXPECT_EQ(fresh.right.values, reused.right.values) << "trial " << trial;
  }
}

}  // namespace
}  // namespace crew
