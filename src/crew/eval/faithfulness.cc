#include "crew/eval/faithfulness.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "crew/common/logging.h"
#include "crew/explain/batch_scorer.h"

namespace crew {

double PredictedClassProb(double score, bool predicted_match) {
  return predicted_match ? score : 1.0 - score;
}

std::vector<int> EvalInstance::RankUnitsBySupport() const {
  const bool match = PredictedMatch();
  std::vector<int> order(units.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return match ? units[a].weight > units[b].weight
                 : units[a].weight < units[b].weight;
  });
  return order;
}

FaithfulnessBatch::FaithfulnessBatch(const Matcher& matcher,
                                     const EvalInstance& instance,
                                     int insertion_max_k)
    : match_(instance.PredictedMatch()),
      base_score_(instance.base_score),
      threshold_(instance.threshold) {
  const std::vector<int> ranked = instance.RankUnitsBySupport();
  const int n = static_cast<int>(ranked.size());
  if (n == 0) return;
  num_inserted_ = std::min(n, std::max(3, insertion_max_k));
  const size_t tokens = static_cast<size_t>(instance.view.size());
  std::vector<std::vector<bool>> keeps;
  keeps.reserve(n + num_inserted_ + 1);
  // Each prefix extends the previous one by the next ranked unit.
  std::vector<bool> deleted(tokens, true), inserted(tokens, false);
  for (int k = 0; k < n; ++k) {
    const std::vector<int>& members = instance.units[ranked[k]].member_indices;
    unit_tokens_.push_back(static_cast<int>(members.size()));
    for (int i : members) deleted[i] = false;
    keeps.push_back(deleted);
  }
  for (int k = 0; k < num_inserted_; ++k) {
    for (int i : instance.units[ranked[k]].member_indices) inserted[i] = true;
    keeps.push_back(inserted);
  }
  keeps.emplace_back(tokens, false);
  BatchScorer(matcher, instance.view).ScoreKeepMasks(keeps, &scores_);
}

double FaithfulnessBatch::Deleted(int k) const {
  CREW_CHECK(k >= 1 && k <= num_units());
  return scores_[k - 1];
}

double FaithfulnessBatch::Inserted(int k) const {
  CREW_CHECK(k >= 1 && k <= num_inserted_);
  return scores_[num_units() + k - 1];
}

double FaithfulnessBatch::Empty() const {
  CREW_CHECK(!scores_.empty());
  return scores_.back();
}

double ComprehensivenessAtK(const FaithfulnessBatch& batch, int k) {
  if (batch.num_units() == 0) return 0.0;
  return batch.BaseClassProb() -
         batch.ClassProb(batch.Deleted(std::min(k, batch.num_units())));
}

double SufficiencyAtK(const FaithfulnessBatch& batch, int k) {
  if (batch.num_units() == 0) return 0.0;
  return batch.BaseClassProb() -
         batch.ClassProb(batch.Inserted(std::min(k, batch.num_units())));
}

double AopcDeletion(const FaithfulnessBatch& batch, int max_k) {
  const int kk = std::min(max_k, batch.num_units());
  if (kk <= 0) return 0.0;
  const double base = batch.BaseClassProb();
  double total = 0.0;
  for (int k = 1; k <= kk; ++k) {
    total += base - batch.ClassProb(batch.Deleted(k));
  }
  return total / static_cast<double>(kk);
}

double AopcInsertion(const FaithfulnessBatch& batch, int max_k) {
  const int kk = std::min(max_k, batch.num_units());
  if (kk <= 0) return 0.0;
  const double empty = batch.ClassProb(batch.Empty());
  double total = 0.0;
  for (int k = 1; k <= kk; ++k) {
    total += batch.ClassProb(batch.Inserted(k)) - empty;
  }
  return total / static_cast<double>(kk);
}

double ComprehensivenessAtTokenBudget(const FaithfulnessBatch& batch,
                                      int token_budget) {
  if (batch.num_units() == 0 || token_budget <= 0) return 0.0;
  int k = 0, removed_tokens = 0;
  while (k < batch.num_units() && removed_tokens < token_budget) {
    removed_tokens += batch.unit_tokens(k++);
  }
  return batch.BaseClassProb() - batch.ClassProb(batch.Deleted(k));
}

bool DecisionFlipAtTop(const FaithfulnessBatch& batch) {
  if (batch.num_units() == 0) return false;
  return (batch.Deleted(1) >= batch.threshold()) != batch.predicted_match();
}

FlipSetResult MinimalFlipSet(const FaithfulnessBatch& batch) {
  FlipSetResult result;
  for (int k = 1; k <= batch.num_units(); ++k) {
    result.units_removed = k;
    result.tokens_removed += batch.unit_tokens(k - 1);
    if ((batch.Deleted(k) >= batch.threshold()) != batch.predicted_match()) {
      result.flipped = true;
      return result;
    }
  }
  return result;
}

std::vector<double> DeletionCurve(const FaithfulnessBatch& batch,
                                  const std::vector<double>& fractions) {
  const int n = batch.num_units();
  std::vector<double> curve;
  curve.reserve(fractions.size());
  for (double f : fractions) {
    const int k = std::min(
        n, static_cast<int>(std::ceil(f * static_cast<double>(n) - 1e-12)));
    curve.push_back(k <= 0 ? batch.BaseClassProb()
                           : batch.ClassProb(batch.Deleted(k)));
  }
  return curve;
}

}  // namespace crew
