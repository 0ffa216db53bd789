#ifndef CREW_MODEL_LOGISTIC_MATCHER_H_
#define CREW_MODEL_LOGISTIC_MATCHER_H_

#include <memory>

#include "crew/common/status.h"
#include "crew/data/dataset.h"
#include "crew/model/features.h"
#include "crew/model/matcher.h"

namespace crew {

struct LogisticConfig {
  int epochs = 300;
  double learning_rate = 0.5;
  double l2 = 1e-3;
  uint64_t seed = 17;
};

/// L2-regularized logistic regression over PairFeaturizer features, trained
/// with full-batch gradient descent. The simplest (and most transparent)
/// matcher; used as the "shallow ML" baseline model under explanation.
class LogisticMatcher : public Matcher {
 public:
  static Result<std::unique_ptr<LogisticMatcher>> Train(
      const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
      const LogisticConfig& config = LogisticConfig());

  using Matcher::PredictProbaBatch;
  void PredictProbaBatch(const RecordPair* pairs, size_t count,
                         double* out) const override;
  double threshold() const override { return threshold_; }
  std::string Name() const override { return "logistic"; }

  /// Learned weights in standardized feature space (for tests/inspection).
  const la::Vec& weights() const { return weights_; }

 private:
  LogisticMatcher(PairFeaturizer featurizer, FeatureScaler scaler,
                  la::Vec weights, double bias, double threshold)
      : featurizer_(std::move(featurizer)), scaler_(std::move(scaler)),
        weights_(std::move(weights)), bias_(bias), threshold_(threshold) {}

  PairFeaturizer featurizer_;
  FeatureScaler scaler_;
  la::Vec weights_;
  double bias_;
  double threshold_;
};

}  // namespace crew

#endif  // CREW_MODEL_LOGISTIC_MATCHER_H_
