#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "crew/data/generator.h"
#include "crew/model/trainer.h"

namespace crew {
namespace {

// Shared fixture data: one easy structured dataset, generated once.
const Dataset& EasyDataset() {
  static const Dataset* dataset = [] {
    GeneratorConfig config;
    config.domain = Domain::kProducts;
    config.flavor = Flavor::kStructured;
    config.num_matches = 150;
    config.num_nonmatches = 200;
    config.seed = 7;
    auto d = GenerateDataset(config);
    CREW_CHECK(d.ok());
    return new Dataset(std::move(d.value()));
  }();
  return *dataset;
}

class MatcherKindTest : public ::testing::TestWithParam<MatcherKind> {};

TEST_P(MatcherKindTest, LearnsEasyDataset) {
  auto pipeline = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_GT(pipeline->test_metrics.F1(), 0.8)
      << MatcherKindName(GetParam());
}

TEST_P(MatcherKindTest, ScoresAreProbabilities) {
  auto pipeline = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(pipeline.ok());
  for (int i = 0; i < std::min(50, pipeline->test.size()); ++i) {
    const double p = pipeline->matcher->PredictProba(pipeline->test.pair(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Calibrated threshold is a valid probability (1.0 is legitimate for a
  // forest that separates the training data perfectly).
  EXPECT_GT(pipeline->matcher->threshold(), 0.0);
  EXPECT_LE(pipeline->matcher->threshold(), 1.0);
}

TEST_P(MatcherKindTest, DeterministicTraining) {
  auto a = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  auto b = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  const RecordPair& pair = a->test.pair(0);
  EXPECT_DOUBLE_EQ(a->matcher->PredictProba(pair),
                   b->matcher->PredictProba(pair));
}

TEST_P(MatcherKindTest, PredictUsesCalibratedThreshold) {
  auto pipeline = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(pipeline.ok());
  const Matcher& m = *pipeline->matcher;
  for (int i = 0; i < std::min(20, pipeline->test.size()); ++i) {
    const RecordPair& pair = pipeline->test.pair(i);
    EXPECT_EQ(m.Predict(pair),
              m.PredictProba(pair) >= m.threshold() ? 1 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MatcherKindTest,
                         ::testing::ValuesIn(AllMatcherKinds()),
                         [](const auto& info) {
                           return std::string(MatcherKindName(info.param));
                         });

TEST(TrainerTest, RejectsEmptyDataset) {
  EXPECT_FALSE(TrainPipeline(Dataset(), MatcherKind::kLogistic).ok());
  EXPECT_FALSE(
      TrainMatcher(MatcherKind::kLogistic, Dataset(), nullptr).ok());
}

TEST(TrainerTest, MatcherKindNamesDistinct) {
  std::set<std::string> names;
  for (MatcherKind kind : AllMatcherKinds()) {
    names.insert(MatcherKindName(kind));
  }
  EXPECT_EQ(names.size(), AllMatcherKinds().size());
}

TEST(TrainerTest, MatcherNameMatchesKindName) {
  for (MatcherKind kind : AllMatcherKinds()) {
    auto pipeline = TrainPipeline(EasyDataset(), kind, 0.7, 7);
    ASSERT_TRUE(pipeline.ok());
    EXPECT_EQ(pipeline->matcher->Name(), MatcherKindName(kind));
  }
}

// FNV-1a over the bytes of PredictProba on every test pair, then the
// threshold: any change in any bit of any score changes it.
uint64_t ScoreFingerprint(const TrainedPipeline& pipeline) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](double v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char b : bytes) h = (h ^ b) * 1099511628211ull;
  };
  for (int i = 0; i < pipeline.test.size(); ++i) {
    mix(pipeline.matcher->PredictProba(pipeline.test.pair(i)));
  }
  mix(pipeline.matcher->threshold());
  return h;
}

// Scores pinned bit for bit: faster dense kernels (SGNS, hidden layers, the
// embedding-bag aligned-token feature) must not move a single score. The
// values were recorded before those loops were interleaved.
TEST(MatcherFingerprintTest, ScoresAreBitIdenticalToRecorded) {
  GeneratorConfig dirty;
  dirty.domain = Domain::kRestaurants;
  dirty.flavor = Flavor::kDirty;
  dirty.num_matches = 80;
  dirty.num_nonmatches = 100;
  dirty.seed = 3;
  auto restaurants = GenerateDataset(dirty);
  ASSERT_TRUE(restaurants.ok());
  struct Pinned {
    const char* name;
    const Dataset* dataset;
    MatcherKind kind;
    uint64_t fingerprint;
  };
  const Pinned kPinned[] = {
      {"products", &EasyDataset(), MatcherKind::kLogistic,
       13936604119838565064ull},
      {"products", &EasyDataset(), MatcherKind::kMlp,
       2048617422850133048ull},
      {"products", &EasyDataset(), MatcherKind::kEmbeddingBag,
       254447781163248646ull},
      {"products", &EasyDataset(), MatcherKind::kRandomForest,
       9724669814744321142ull},
      {"products", &EasyDataset(), MatcherKind::kRule,
       11849001652228375998ull},
      {"restaurants", &restaurants.value(), MatcherKind::kLogistic,
       8257190538373580961ull},
      {"restaurants", &restaurants.value(), MatcherKind::kMlp,
       15404258853287603510ull},
      {"restaurants", &restaurants.value(), MatcherKind::kEmbeddingBag,
       15635924756361472188ull},
      {"restaurants", &restaurants.value(), MatcherKind::kRandomForest,
       888418200078742141ull},
      {"restaurants", &restaurants.value(), MatcherKind::kRule,
       3648457059378269000ull},
  };
  for (const Pinned& p : kPinned) {
    auto pipeline = TrainPipeline(*p.dataset, p.kind, 0.7, 7);
    ASSERT_TRUE(pipeline.ok());
    EXPECT_EQ(ScoreFingerprint(*pipeline), p.fingerprint)
        << MatcherKindName(p.kind) << " on " << p.name;
  }
}

}  // namespace
}  // namespace crew
