#ifndef CREW_MODEL_RANDOM_FOREST_MATCHER_H_
#define CREW_MODEL_RANDOM_FOREST_MATCHER_H_

#include <memory>
#include <vector>

#include "crew/common/status.h"
#include "crew/data/dataset.h"
#include "crew/model/features.h"
#include "crew/model/matcher.h"

namespace crew {

struct RandomForestConfig {
  int num_trees = 25;
  int max_depth = 8;
  int min_samples_leaf = 3;
  /// Features considered per split; <= 0 means sqrt(d).
  int features_per_split = 0;
  uint64_t seed = 29;
};

/// Bagged CART forest (Gini impurity) over PairFeaturizer features.
/// Represents the tree-ensemble matchers (Magellan's default) — a black box
/// with axis-aligned, non-smooth decision surfaces that stress-test
/// perturbation explainers differently than the neural models.
class RandomForestMatcher : public Matcher {
 public:
  static Result<std::unique_ptr<RandomForestMatcher>> Train(
      const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
      const RandomForestConfig& config = RandomForestConfig());

  using Matcher::PredictProbaBatch;
  void PredictProbaBatch(const RecordPair* pairs, size_t count,
                         double* out) const override;
  double threshold() const override { return threshold_; }
  std::string Name() const override { return "random_forest"; }

  int num_trees() const { return static_cast<int>(trees_.size()); }

 private:
  struct Node {
    int feature = -1;       // -1 for leaves
    double split = 0.0;
    int left = -1;
    int right = -1;
    double leaf_value = 0.0;  // P(match) at the leaf
  };
  using Tree = std::vector<Node>;

  RandomForestMatcher(PairFeaturizer featurizer, std::vector<Tree> trees,
                      double threshold)
      : featurizer_(std::move(featurizer)), trees_(std::move(trees)),
        threshold_(threshold) {}

  static double PredictTree(const Tree& tree, const la::Vec& x);
  double PredictFeatures(const la::Vec& x) const;

  PairFeaturizer featurizer_;
  std::vector<Tree> trees_;
  double threshold_;
};

}  // namespace crew

#endif  // CREW_MODEL_RANDOM_FOREST_MATCHER_H_
