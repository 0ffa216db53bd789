#ifndef CREW_MODEL_RULE_MATCHER_H_
#define CREW_MODEL_RULE_MATCHER_H_

#include <memory>
#include <vector>

#include "crew/common/status.h"
#include "crew/data/dataset.h"
#include "crew/model/features.h"
#include "crew/model/matcher.h"

namespace crew {

struct RuleMatcherConfig {
  /// Maximum number of conjunctive feature conditions.
  int max_conjuncts = 2;
  /// Thresholds are searched over this many quantiles of each feature.
  int threshold_grid = 32;
};

/// Magellan/TuneR-style rule matcher: a conjunction of at most
/// `max_conjuncts` conditions "feature >= threshold", greedily induced to
/// maximize training F1. The probability surface is a logistic fit over
/// the selected features so perturbation explainers see a smooth score.
///
/// Included as the *interpretable-by-construction* baseline the
/// explainability literature contrasts with black boxes: on a rule
/// matcher, a correct explainer must recover exactly the rule's features.
class RuleMatcher : public Matcher {
 public:
  static Result<std::unique_ptr<RuleMatcher>> Train(
      const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
      const RuleMatcherConfig& config = RuleMatcherConfig());

  double PredictProba(const RecordPair& pair) const override;
  using Matcher::PredictProbaBatch;
  void PredictProbaBatch(const RecordPair* pairs, size_t count,
                         double* out) const override;
  double threshold() const override { return threshold_; }
  std::string Name() const override { return "rule"; }

  /// One learned condition.
  struct Condition {
    int feature = -1;
    double cutoff = 0.0;
  };
  const std::vector<Condition>& conditions() const { return conditions_; }

  /// Human-readable rule, e.g. "all_jaccard >= 0.41 AND price_typed_sim >=
  /// 0.93".
  std::string RuleString() const;

 private:
  RuleMatcher(PairFeaturizer featurizer, std::vector<Condition> conditions,
              la::Vec logit_weights, double logit_bias, double threshold)
      : featurizer_(std::move(featurizer)),
        conditions_(std::move(conditions)),
        logit_weights_(std::move(logit_weights)), logit_bias_(logit_bias),
        threshold_(threshold) {}

  /// Probability from a feature vector; `margins` is a reusable buffer.
  double ScoreFeatures(const la::Vec& features, la::Vec* margins) const;

  PairFeaturizer featurizer_;
  std::vector<Condition> conditions_;
  la::Vec logit_weights_;  ///< one per condition, over (feature - cutoff)
  double logit_bias_;
  double threshold_;
};

}  // namespace crew

#endif  // CREW_MODEL_RULE_MATCHER_H_
