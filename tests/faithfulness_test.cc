#include "crew/eval/faithfulness.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "test_util.h"

namespace crew {
namespace {

using testing::MakePair;
using testing::TokenWeightMatcher;

// Instance where ground truth is fully known: score =
// sigmoid(2*anchor + 1*helper - 2*poison). Units are singletons in view
// order: anchor(0) helper(1) junk(2) | poison(3) junk2(4).
struct Oracle {
  TokenWeightMatcher matcher{
      {{"anchor", 2.0}, {"helper", 1.0}, {"poison", -2.0}}};
  RecordPair pair = MakePair("anchor helper junk", "", "poison junk2", "");
  PairTokenView view{AnonymousSchema(pair), Tokenizer(), pair};

  EvalInstance MakeInstance(std::vector<double> weights,
                            double threshold = 0.5) {
    std::vector<ExplanationUnit> units;
    for (size_t i = 0; i < weights.size(); ++i) {
      ExplanationUnit u;
      u.member_indices = {static_cast<int>(i)};
      u.weight = weights[i];
      units.push_back(u);
    }
    return EvalInstance{view, units, matcher.PredictProba(pair), threshold};
  }
};

TEST(FaithfulnessTest, PredictedClassProb) {
  EXPECT_DOUBLE_EQ(PredictedClassProb(0.8, true), 0.8);
  EXPECT_DOUBLE_EQ(PredictedClassProb(0.8, false), 0.2);
}

TEST(FaithfulnessTest, RankUnitsBySupportForMatch) {
  Oracle s;
  // base = sigmoid(1) > 0.5 -> predicted match; ranking = descending weight.
  auto inst = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  EXPECT_TRUE(inst.PredictedMatch());
  const auto ranked = inst.RankUnitsBySupport();
  EXPECT_EQ(ranked[0], 0);
  EXPECT_EQ(ranked[1], 1);
  EXPECT_EQ(ranked.back(), 3);
}

TEST(FaithfulnessTest, GoodExplanationBeatsBadOnComprehensiveness) {
  Oracle s;
  // Good explanation: true weights. Bad: inverted.
  auto good = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  auto bad = s.MakeInstance({-2.0, -1.0, 0.0, 2.0, 0.0});
  const double cg =
      ComprehensivenessAtK(FaithfulnessBatch(s.matcher, good), 1);
  const double cb = ComprehensivenessAtK(FaithfulnessBatch(s.matcher, bad), 1);
  EXPECT_GT(cg, cb);
  EXPECT_GT(cg, 0.0);  // removing "anchor" really drops the match prob
}

TEST(FaithfulnessTest, ComprehensivenessExactValue) {
  Oracle s;
  auto inst = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  // Removing unit 0 ("anchor"): logit 1 -> -1.
  const double expected =
      la::Sigmoid(1.0) - la::Sigmoid(-1.0);
  EXPECT_NEAR(ComprehensivenessAtK(FaithfulnessBatch(s.matcher, inst), 1),
              expected, 1e-9);
}

TEST(FaithfulnessTest, SufficiencyLowForFaithfulExplanation) {
  Oracle s;
  auto good = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  // Keeping the top-2 supporting units (anchor+helper) keeps logit 3 >
  // base logit 1, so predicted-class prob does not drop: sufficiency <= 0.
  EXPECT_LE(SufficiencyAtK(FaithfulnessBatch(s.matcher, good), 2), 0.0);
}

TEST(FaithfulnessTest, AopcIsMeanOverK) {
  Oracle s;
  auto inst = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  const FaithfulnessBatch batch(s.matcher, inst);
  const double c1 = ComprehensivenessAtK(batch, 1);
  const double c2 = ComprehensivenessAtK(batch, 2);
  const double c3 = ComprehensivenessAtK(batch, 3);
  EXPECT_NEAR(AopcDeletion(batch, 3), (c1 + c2 + c3) / 3.0, 1e-12);
}

TEST(FaithfulnessTest, TokenBudgetCountsWords) {
  Oracle s;
  // One multi-word unit covering anchor+helper, then singletons.
  std::vector<ExplanationUnit> units(3);
  units[0].member_indices = {0, 1};
  units[0].weight = 3.0;
  units[1].member_indices = {2};
  units[1].weight = 0.0;
  units[2].member_indices = {3};
  units[2].weight = -2.0;
  EvalInstance inst{s.view, units, s.matcher.PredictProba(s.pair), 0.5};
  // Budget 2 is satisfied by the first unit alone.
  const double drop =
      ComprehensivenessAtTokenBudget(FaithfulnessBatch(s.matcher, inst), 2);
  const double expected = la::Sigmoid(1.0) - la::Sigmoid(-2.0);
  EXPECT_NEAR(drop, expected, 1e-9);
}

TEST(FaithfulnessTest, DecisionFlip) {
  Oracle s;
  auto inst = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  // Removing anchor: logit -1 -> non-match: flip.
  EXPECT_TRUE(DecisionFlipAtTop(FaithfulnessBatch(s.matcher, inst)));
  // With an uninformative explanation deleting junk first: no flip.
  auto dull = s.MakeInstance({0.0, 0.0, 5.0, 0.0, 0.0});
  EXPECT_FALSE(DecisionFlipAtTop(FaithfulnessBatch(s.matcher, dull)));
}

TEST(FaithfulnessTest, DeletionCurveStartsAtBase) {
  Oracle s;
  auto inst = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  const auto curve =
      DeletionCurve(FaithfulnessBatch(s.matcher, inst), {0.0, 0.5, 1.0});
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_NEAR(curve[0], la::Sigmoid(1.0), 1e-12);
  // Removing everything supporting the match leaves at most the base.
  EXPECT_LE(curve[2], curve[0]);
}

TEST(FaithfulnessTest, NonMatchInstanceUsesInvertedRanking) {
  Oracle s;
  // Force predicted non-match with threshold above base score.
  auto inst = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0}, /*threshold=*/0.99);
  EXPECT_FALSE(inst.PredictedMatch());
  // Top supporting unit for non-match is "poison"; removing it RAISES the
  // match score, i.e. drops the non-match probability: positive.
  EXPECT_GT(ComprehensivenessAtK(FaithfulnessBatch(s.matcher, inst), 1), 0.0);
  EXPECT_EQ(inst.RankUnitsBySupport()[0], 3);
}

TEST(FaithfulnessTest, InsertionRecoversWithGoodExplanation) {
  Oracle s;
  auto good = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  auto bad = s.MakeInstance({0.0, 0.0, 5.0, 0.0, 4.0});
  // Re-inserting the true drivers first recovers the prediction faster.
  EXPECT_GT(AopcInsertion(FaithfulnessBatch(s.matcher, good), 2),
            AopcInsertion(FaithfulnessBatch(s.matcher, bad), 2));
  // Inserting "anchor" alone: empty pair logit 0 -> 0.5; with anchor
  // logit 2 -> sigmoid(2). First insertion step gain is exactly that.
  const double gain1 = AopcInsertion(FaithfulnessBatch(s.matcher, good), 1);
  EXPECT_NEAR(gain1, la::Sigmoid(2.0) - 0.5, 1e-9);
}

TEST(FaithfulnessTest, InsertionEmptyUnitsIsZero) {
  Oracle s;
  EvalInstance inst{s.view, {}, 0.7, 0.5};
  EXPECT_DOUBLE_EQ(AopcInsertion(FaithfulnessBatch(s.matcher, inst), 3), 0.0);
}

TEST(FaithfulnessTest, MinimalFlipSetFindsDecisiveUnit) {
  Oracle s;
  auto inst = s.MakeInstance({2.0, 1.0, 0.0, -2.0, 0.0});
  const auto flip = MinimalFlipSet(FaithfulnessBatch(s.matcher, inst));
  // Removing "anchor" alone flips sigmoid(1) -> sigmoid(-1) < 0.5.
  EXPECT_TRUE(flip.flipped);
  EXPECT_EQ(flip.units_removed, 1);
  EXPECT_EQ(flip.tokens_removed, 1);
}

TEST(FaithfulnessTest, MinimalFlipSetLargerForBadExplanation) {
  Oracle s;
  // An explanation that ranks junk first needs more removals to flip.
  auto bad = s.MakeInstance({0.0, 0.0, 5.0, -1.0, 4.0});
  const auto flip = MinimalFlipSet(FaithfulnessBatch(s.matcher, bad));
  EXPECT_TRUE(flip.flipped);
  EXPECT_GT(flip.units_removed, 1);
}

TEST(FaithfulnessTest, MinimalFlipSetMayNotFlip) {
  // A matcher with a huge bias cannot be flipped by token removal.
  testing::TokenWeightMatcher stubborn({}, /*bias=*/10.0);
  Oracle s;
  auto inst = s.MakeInstance({1.0, 0.5, 0.0, -1.0, 0.0});
  EvalInstance fixed{s.view, inst.units, stubborn.PredictProba(s.pair), 0.5};
  const auto flip = MinimalFlipSet(FaithfulnessBatch(stubborn, fixed));
  EXPECT_FALSE(flip.flipped);
  EXPECT_EQ(flip.units_removed, 5);  // exhausted every unit
}

// Every metric read off the one batch equals the mask-by-mask oracle,
// bit for bit, on unit sets the runner's explainers rarely produce: units
// that leave words uncovered (the all-deleted pair is then not D_n),
// multi-word units (flip-set words and the token budget differ from unit
// counts), a single unit, and more than five units, each ranked for a
// predicted match and for a predicted non-match. Every word carries its
// own weight, so deleting any of them moves the score.
TEST(FaithfulnessTest, EveryMetricEqualsItsMasksScoredOneByOne) {
  TokenWeightMatcher matcher({{"anchor", 2.0},
                              {"helper", 1.0},
                              {"junk", 0.3},
                              {"spare", -0.4},
                              {"poison", -2.0},
                              {"junk2", 0.15},
                              {"extra", 0.6},
                              {"tail", -0.25}});
  // Words 0-3 on the left, 4-7 on the right.
  const RecordPair pair =
      MakePair("anchor helper junk spare", "", "poison junk2 extra", "tail");
  const PairTokenView view(AnonymousSchema(pair), Tokenizer(), pair);
  ASSERT_EQ(view.size(), 8);
  const std::vector<std::vector<std::pair<std::vector<int>, double>>>
      unit_sets = {
          {{{0, 1}, 3.0}, {{4}, -2.0}, {{5, 6, 7}, 0.5}},
          {{{6}, 0.6}},
          {{{0}, 2.0}, {{1}, 1.0}, {{2}, 0.3}, {{3}, -0.4}, {{4}, -2.0},
           {{5}, 0.15}, {{6}, 0.6}},
          {{{2, 3}, 5.0}, {{0}, 1.0}, {{1}, 0.5}, {{4, 5}, -1.0}},
      };
  const std::vector<double> fractions = {0.0, 0.2, 0.5, 0.8, 1.0};
  for (size_t set = 0; set < unit_sets.size(); ++set) {
    std::vector<ExplanationUnit> units;
    for (const auto& [members, weight] : unit_sets[set]) {
      ExplanationUnit unit;
      unit.member_indices = members;
      unit.weight = weight;
      units.push_back(unit);
    }
    for (double threshold : {0.5, 0.95}) {
      SCOPED_TRACE("set " + std::to_string(set) + " threshold " +
                   std::to_string(threshold));
      const EvalInstance inst{view, units, matcher.PredictProba(pair),
                              threshold};
      const testing::OracleFaithfulness want =
          testing::ScoreEachMask(matcher, inst, fractions);
      const FaithfulnessBatch batch(matcher, inst);
      EXPECT_EQ(AopcDeletion(batch, 5), want.aopc);
      EXPECT_EQ(ComprehensivenessAtK(batch, 1), want.comprehensiveness_at_1);
      EXPECT_EQ(ComprehensivenessAtK(batch, 3), want.comprehensiveness_at_3);
      EXPECT_EQ(SufficiencyAtK(batch, 1), want.sufficiency_at_1);
      EXPECT_EQ(SufficiencyAtK(batch, 3), want.sufficiency_at_3);
      EXPECT_EQ(ComprehensivenessAtTokenBudget(batch, 5),
                want.comprehensiveness_budget5);
      EXPECT_EQ(DecisionFlipAtTop(batch), want.decision_flip);
      EXPECT_EQ(AopcInsertion(batch, 3), want.insertion_aopc);
      const FlipSetResult flip = MinimalFlipSet(batch);
      EXPECT_EQ(flip.flipped, want.flip_set.flipped);
      EXPECT_EQ(flip.units_removed, want.flip_set.units_removed);
      EXPECT_EQ(flip.tokens_removed, want.flip_set.tokens_removed);
      EXPECT_EQ(DeletionCurve(batch, fractions), want.curve);
    }
  }
}

TEST(FaithfulnessTest, EmptyUnitsGiveZeroes) {
  Oracle s;
  EvalInstance inst{s.view, {}, 0.7, 0.5};
  const FaithfulnessBatch batch(s.matcher, inst);
  EXPECT_DOUBLE_EQ(ComprehensivenessAtK(batch, 3), 0.0);
  EXPECT_DOUBLE_EQ(SufficiencyAtK(batch, 3), 0.0);
  EXPECT_DOUBLE_EQ(AopcDeletion(batch, 3), 0.0);
  EXPECT_FALSE(DecisionFlipAtTop(batch));
}

}  // namespace
}  // namespace crew
