#ifndef CREW_EVAL_FAITHFULNESS_H_
#define CREW_EVAL_FAITHFULNESS_H_

#include <vector>

#include "crew/core/cluster_explanation.h"
#include "crew/explain/token_view.h"
#include "crew/model/matcher.h"

namespace crew {

/// Probability assigned to the *predicted* class: score when the model says
/// match, 1 - score otherwise. All faithfulness metrics are drops of this
/// quantity, so they are comparable across match and non-match pairs.
double PredictedClassProb(double score, bool predicted_match);

/// One explanation instance prepared for unit-level faithfulness metrics.
struct EvalInstance {
  PairTokenView view;
  std::vector<ExplanationUnit> units;  ///< any order; metrics rank internally
  double base_score = 0.0;
  double threshold = 0.5;

  bool PredictedMatch() const { return base_score >= threshold; }

  /// Unit indices sorted by decreasing support for the predicted class.
  std::vector<int> RankUnitsBySupport() const;
};

/// Every faithfulness metric of one instance reads prefixes of one unit
/// ranking (RankUnitsBySupport), so all of them come from ONE scoring
/// batch: the constructor builds every prefix mask once and scores them in
/// a single BatchScorer::ScoreKeepMasks call (one featurizer memo for the
/// whole instance). With n units the batch holds
///   - the deletion prefixes D_1..D_n (top-k supporting units deleted),
///   - the insertion prefixes I_1..I_m (ONLY the top-k units kept),
///     m = min(n, max(3, insertion_max_k)), which covers sufficiency@1/@3
///     and insertion AOPC,
///   - the all-deleted pair (the insertion baseline).
/// No units: nothing is scored and every metric reads zero / no flip.
/// The metric functions below only read this batch. Matcher scores depend
/// on the pair alone (see Matcher::PredictProbaBatch), so each reading is
/// bit-identical to scoring its mask by itself.
class FaithfulnessBatch {
 public:
  FaithfulnessBatch(const Matcher& matcher, const EvalInstance& instance,
                    int insertion_max_k = 3);

  int num_units() const { return static_cast<int>(unit_tokens_.size()); }
  bool predicted_match() const { return match_; }
  double threshold() const { return threshold_; }
  /// Words in the k-th ranked unit (0-based rank).
  int unit_tokens(int rank) const { return unit_tokens_[rank]; }

  /// Score with the top-k units deleted (D_k), 1 <= k <= num_units().
  double Deleted(int k) const;
  /// Score keeping only the top-k units (I_k), 1 <= k <= num_inserted.
  double Inserted(int k) const;
  /// Score of the all-deleted pair.
  double Empty() const;

  /// Predicted-class probability of a score (PredictedClassProb).
  double ClassProb(double score) const {
    return PredictedClassProb(score, match_);
  }
  double BaseClassProb() const { return ClassProb(base_score_); }

 private:
  bool match_;
  double base_score_;
  double threshold_;
  int num_inserted_ = 0;
  std::vector<int> unit_tokens_;  ///< words per unit, in ranked order
  std::vector<double> scores_;    ///< D_1..D_n, I_1..I_m, all-deleted
};

/// Drop in predicted-class probability after deleting the top-k supporting
/// units ("comprehensiveness", DeYoung et al.). Higher = more faithful.
double ComprehensivenessAtK(const FaithfulnessBatch& batch, int k);

/// Drop in predicted-class probability when keeping ONLY the top-k
/// supporting units. Lower = the top units suffice = more faithful.
double SufficiencyAtK(const FaithfulnessBatch& batch, int k);

/// Mean of ComprehensivenessAtK for k = 1..min(max_k, #units): the
/// Area-Over-the-Perturbation-Curve deletion score (Samek et al.).
double AopcDeletion(const FaithfulnessBatch& batch, int max_k);

/// Insertion counterpart: starting from the fully-deleted pair, re-insert
/// the top-k supporting units and measure how much predicted-class
/// probability is *recovered* relative to the empty pair. Higher = the
/// explanation's top units rebuild the decision. Mean over k = 1..max_k;
/// max_k must not exceed the batch's insertion_max_k.
double AopcInsertion(const FaithfulnessBatch& batch, int max_k);

/// Comprehensiveness when deleting supporting units until at least
/// `token_budget` words have been removed — an equal-token comparison that
/// does not favour multi-word units.
double ComprehensivenessAtTokenBudget(const FaithfulnessBatch& batch,
                                      int token_budget);

/// True if deleting the top supporting unit flips the predicted class.
bool DecisionFlipAtTop(const FaithfulnessBatch& batch);

/// Greedy counterfactual size: units are removed in support order until
/// the predicted class flips (or everything is gone).
struct FlipSetResult {
  bool flipped = false;
  int units_removed = 0;   ///< units needed to flip (all units if !flipped)
  int tokens_removed = 0;  ///< words those units contained
};

/// Smaller flip sets mean the explanation isolates the decisive evidence —
/// CERTA's counterfactual view of faithfulness.
FlipSetResult MinimalFlipSet(const FaithfulnessBatch& batch);

/// Predicted-class probability after removing the top ceil(f * #units)
/// supporting units, for each fraction f in `fractions` (the F1 deletion
/// curve). fraction 0 returns the base predicted-class probability.
std::vector<double> DeletionCurve(const FaithfulnessBatch& batch,
                                  const std::vector<double>& fractions);

}  // namespace crew

#endif  // CREW_EVAL_FAITHFULNESS_H_
