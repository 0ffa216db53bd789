#ifndef CREW_MODEL_MLP_MATCHER_H_
#define CREW_MODEL_MLP_MATCHER_H_

#include <memory>

#include "crew/common/status.h"
#include "crew/data/dataset.h"
#include "crew/la/matrix.h"
#include "crew/model/features.h"
#include "crew/model/matcher.h"

namespace crew {

struct MlpConfig {
  int hidden_units = 16;
  int epochs = 60;
  double learning_rate = 0.05;
  double l2 = 1e-4;
  uint64_t seed = 19;
};

/// One-hidden-layer (tanh) neural matcher over PairFeaturizer features,
/// trained with per-sample SGD. A nonlinear black box whose decisions the
/// explainers cannot read off a weight vector.
class MlpMatcher : public Matcher {
 public:
  static Result<std::unique_ptr<MlpMatcher>> Train(
      const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
      const MlpConfig& config = MlpConfig());

  using Matcher::PredictProbaBatch;
  void PredictProbaBatch(const RecordPair* pairs, size_t count,
                         double* out) const override;
  double threshold() const override { return threshold_; }
  std::string Name() const override { return "mlp"; }

 private:
  MlpMatcher(PairFeaturizer featurizer, FeatureScaler scaler, la::Matrix w1,
             la::Vec b1, la::Vec w2, double b2, double threshold)
      : featurizer_(std::move(featurizer)), scaler_(std::move(scaler)),
        w1_(std::move(w1)), b1_(std::move(b1)), w2_(std::move(w2)), b2_(b2),
        threshold_(threshold) {}

  /// P(match) for scaled features `x`; `hidden` is scratch (resized to the
  /// hidden width).
  double Forward(const la::Vec& x, la::Vec* hidden) const;

  PairFeaturizer featurizer_;
  FeatureScaler scaler_;
  la::Matrix w1_;  // hidden x input
  la::Vec b1_;
  la::Vec w2_;  // hidden
  double b2_;
  double threshold_;
};

}  // namespace crew

#endif  // CREW_MODEL_MLP_MATCHER_H_
