#include "crew/model/rule_matcher.h"

#include <algorithm>
#include <cmath>

#include "crew/common/trace.h"
#include "crew/model/metrics.h"

namespace crew {
namespace {

// F1 of the conjunction `conditions` over the feature rows.
double RuleF1(const std::vector<la::Vec>& rows, const std::vector<int>& labels,
              const std::vector<RuleMatcher::Condition>& conditions) {
  ClassificationMetrics m;
  for (size_t i = 0; i < rows.size(); ++i) {
    bool fire = true;
    for (const auto& c : conditions) {
      if (rows[i][c.feature] < c.cutoff) {
        fire = false;
        break;
      }
    }
    const int pred = fire ? 1 : 0;
    if (pred == 1 && labels[i] == 1) ++m.true_positives;
    if (pred == 1 && labels[i] == 0) ++m.false_positives;
    if (pred == 0 && labels[i] == 0) ++m.true_negatives;
    if (pred == 0 && labels[i] == 1) ++m.false_negatives;
  }
  return m.F1();
}

}  // namespace

Result<std::unique_ptr<RuleMatcher>> RuleMatcher::Train(
    const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
    const RuleMatcherConfig& config) {
  if (train.empty()) {
    return Status::InvalidArgument("RuleMatcher: empty training set");
  }
  if (config.max_conjuncts <= 0 || config.threshold_grid < 2) {
    return Status::InvalidArgument("RuleMatcher: bad configuration");
  }
  PairFeaturizer featurizer(train.schema(), std::move(embeddings));
  std::vector<la::Vec> rows;
  std::vector<int> labels;
  for (const auto& pair : train.pairs()) {
    if (pair.label != 0 && pair.label != 1) continue;
    rows.push_back(featurizer.Extract(pair));
    labels.push_back(pair.label);
  }
  if (rows.empty()) {
    return Status::InvalidArgument("RuleMatcher: no labeled pairs");
  }
  const int d = static_cast<int>(rows[0].size());

  // Greedy conjunct induction over quantile cutoffs.
  std::vector<Condition> conditions;
  double best_f1 = -1.0;
  for (int round = 0; round < config.max_conjuncts; ++round) {
    Condition best_condition;
    double round_best = best_f1;
    for (int f = 0; f < d; ++f) {
      bool already_used = false;
      for (const auto& c : conditions) {
        if (c.feature == f) already_used = true;
      }
      if (already_used) continue;
      la::Vec values;
      values.reserve(rows.size());
      for (const auto& row : rows) values.push_back(row[f]);
      std::sort(values.begin(), values.end());
      for (int g = 1; g < config.threshold_grid; ++g) {
        const size_t pos = g * values.size() / config.threshold_grid;
        const double cutoff = values[std::min(pos, values.size() - 1)];
        std::vector<Condition> candidate = conditions;
        candidate.push_back({f, cutoff});
        const double f1 = RuleF1(rows, labels, candidate);
        if (f1 > round_best + 1e-9) {
          round_best = f1;
          best_condition = {f, cutoff};
        }
      }
    }
    if (best_condition.feature < 0) break;  // no conjunct improves F1
    conditions.push_back(best_condition);
    best_f1 = round_best;
  }
  if (conditions.empty()) {
    return Status::FailedPrecondition(
        "RuleMatcher: no informative feature threshold found");
  }

  // Smooth probability: logistic regression over (feature - cutoff) margins
  // of the selected conditions.
  const int k = static_cast<int>(conditions.size());
  la::Vec w(k, 0.0);
  double b = 0.0;
  const int epochs = 300;
  const double lr = 0.5;
  // L2 keeps the slope finite on separable data: the probability surface
  // must stay graded or perturbation explainers see a step function.
  const double l2 = 5e-3;
  la::Vec margins(k);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    la::Vec grad(k, 0.0);
    double grad_b = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
      for (int c = 0; c < k; ++c) {
        margins[c] = rows[i][conditions[c].feature] - conditions[c].cutoff;
      }
      const double err = la::Sigmoid(la::Dot(w, margins) + b) - labels[i];
      la::Axpy(err, margins, grad);
      grad_b += err;
    }
    const double inv_n = 1.0 / static_cast<double>(rows.size());
    for (int c = 0; c < k; ++c) {
      w[c] -= lr * (grad[c] * inv_n + l2 * w[c]);
    }
    b -= lr * grad_b * inv_n;
  }

  auto matcher = std::unique_ptr<RuleMatcher>(new RuleMatcher(
      std::move(featurizer), std::move(conditions), std::move(w), b, 0.5));
  std::vector<double> scores(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int c = 0; c < k; ++c) {
      margins[c] = rows[i][matcher->conditions_[c].feature] -
                   matcher->conditions_[c].cutoff;
    }
    scores[i] =
        la::Sigmoid(la::Dot(matcher->logit_weights_, margins) +
                    matcher->logit_bias_);
  }
  matcher->threshold_ = BestF1Threshold(scores, labels);
  return matcher;
}

double RuleMatcher::ScoreFeatures(const la::Vec& features,
                                  la::Vec* margins) const {
  margins->resize(conditions_.size());
  for (size_t c = 0; c < conditions_.size(); ++c) {
    (*margins)[c] = features[conditions_[c].feature] - conditions_[c].cutoff;
  }
  return la::Sigmoid(la::Dot(logit_weights_, *margins) + logit_bias_);
}

void RuleMatcher::PredictProbaBatch(const RecordPair* pairs, size_t count,
                                    double* out) const {
  CREW_TRACE_SPAN("matcher/rule");
  PairFeaturizer::Scratch scratch;
  la::Vec x, margins;
  for (size_t i = 0; i < count; ++i) {
    featurizer_.ExtractInto(pairs[i], &scratch, &x);
    out[i] = ScoreFeatures(x, &margins);
  }
}

std::string RuleMatcher::RuleString() const {
  const auto names = featurizer_.FeatureNames();
  std::string out;
  for (size_t c = 0; c < conditions_.size(); ++c) {
    if (c > 0) out += " AND ";
    out += names[conditions_[c].feature];
    out += " >= ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", conditions_[c].cutoff);
    out += buf;
  }
  return out;
}

}  // namespace crew
