#ifndef CREW_TESTS_TEST_UTIL_H_
#define CREW_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "crew/data/record.h"
#include "crew/eval/faithfulness.h"
#include "crew/la/vector_ops.h"
#include "crew/model/matcher.h"
#include "crew/text/tokenizer.h"

namespace crew::testing {

/// A white-box matcher for explainer tests: the score is
/// sigmoid(bias + sum of per-token weights over all tokens present in the
/// pair). Ground-truth importances are therefore known exactly — an
/// explainer must rank high-|weight| tokens above the rest.
class TokenWeightMatcher : public Matcher {
 public:
  TokenWeightMatcher(std::map<std::string, double> weights, double bias = 0.0)
      : weights_(std::move(weights)), bias_(bias) {}

  using Matcher::PredictProbaBatch;
  void PredictProbaBatch(const RecordPair* pairs, size_t count,
                         double* out) const override {
    for (size_t i = 0; i < count; ++i) {
      double z = bias_;
      for (const Record* record : {&pairs[i].left, &pairs[i].right}) {
        for (const auto& value : record->values) {
          for (const auto& token : tokenizer_.Tokenize(value)) {
            auto it = weights_.find(token);
            if (it != weights_.end()) z += it->second;
          }
        }
      }
      out[i] = la::Sigmoid(z);
    }
  }

  std::string Name() const override { return "token_weight_oracle"; }

 private:
  std::map<std::string, double> weights_;
  double bias_;
  Tokenizer tokenizer_;
};

/// Builds a flat 2-attribute pair from free-text values.
inline RecordPair MakePair(const std::string& l0, const std::string& l1,
                           const std::string& r0, const std::string& r1,
                           int label = -1) {
  RecordPair pair;
  pair.left.values = {l0, l1};
  pair.right.values = {r0, r1};
  pair.label = label;
  return pair;
}

/// The faithfulness metrics written out mask by mask, each mask scored by
/// its own PredictProba call: the reference the one-batch evaluation
/// (FaithfulnessBatch, EvaluateInstance) is compared against. Shares
/// nothing with it but EvalInstance::RankUnitsBySupport and
/// PredictedClassProb. Fixed knobs: AOPC k <= 5, token budget 5,
/// insertion k <= 3 (the InstanceEvalOptions defaults).
struct OracleFaithfulness {
  double aopc = 0.0;
  double comprehensiveness_at_1 = 0.0;
  double comprehensiveness_at_3 = 0.0;
  double sufficiency_at_1 = 0.0;
  double sufficiency_at_3 = 0.0;
  double comprehensiveness_budget5 = 0.0;
  bool decision_flip = false;
  double insertion_aopc = 0.0;
  FlipSetResult flip_set;
  std::vector<double> curve;
};

/// Requires at least one unit.
inline OracleFaithfulness ScoreEachMask(const Matcher& matcher,
                                        const EvalInstance& instance,
                                        const std::vector<double>& fractions) {
  const std::vector<int> ranked = instance.RankUnitsBySupport();
  const int n = static_cast<int>(ranked.size());
  const bool match = instance.PredictedMatch();
  // Score after deleting (keep_top = false) or keeping only (true) the top
  // k ranked units.
  auto score = [&](int k, bool keep_top) {
    std::vector<bool> keep(instance.view.size(), !keep_top);
    for (int p = 0; p < k; ++p) {
      for (int i : instance.units[ranked[p]].member_indices) {
        keep[i] = keep_top;
      }
    }
    return matcher.PredictProba(instance.view.Materialize(keep));
  };
  auto deleted = [&](int k) {
    return PredictedClassProb(score(k, false), match);
  };
  auto kept = [&](int k) { return PredictedClassProb(score(k, true), match); };
  auto flips = [&](int k) {
    return (score(k, false) >= instance.threshold) != match;
  };
  const double base = PredictedClassProb(instance.base_score, match);

  OracleFaithfulness o;
  const int aopc_k = std::min(5, n);
  for (int k = 1; k <= aopc_k; ++k) o.aopc += base - deleted(k);
  o.aopc /= static_cast<double>(aopc_k);
  o.comprehensiveness_at_1 = base - deleted(std::min(1, n));
  o.comprehensiveness_at_3 = base - deleted(std::min(3, n));
  o.sufficiency_at_1 = base - kept(std::min(1, n));
  o.sufficiency_at_3 = base - kept(std::min(3, n));
  int budget_k = 0;
  for (int words = 0; budget_k < n && words < 5; ++budget_k) {
    words += static_cast<int>(
        instance.units[ranked[budget_k]].member_indices.size());
  }
  o.comprehensiveness_budget5 = base - deleted(budget_k);
  o.decision_flip = flips(1);
  const int insertion_k = std::min(3, n);
  const double empty = kept(0);
  for (int k = 1; k <= insertion_k; ++k) o.insertion_aopc += kept(k) - empty;
  o.insertion_aopc /= static_cast<double>(insertion_k);
  for (int k = 1; k <= n && !o.flip_set.flipped; ++k) {
    o.flip_set.units_removed = k;
    o.flip_set.tokens_removed += static_cast<int>(
        instance.units[ranked[k - 1]].member_indices.size());
    o.flip_set.flipped = flips(k);
  }
  for (double f : fractions) {
    const int k = std::min(
        n, static_cast<int>(std::ceil(f * static_cast<double>(n) - 1e-12)));
    o.curve.push_back(k <= 0 ? base : deleted(k));
  }
  return o;
}

}  // namespace crew::testing

#endif  // CREW_TESTS_TEST_UTIL_H_
