#include "crew/explain/shap.h"

#include <cmath>

#include "crew/common/metrics.h"
#include "crew/common/rng.h"
#include "crew/common/timer.h"
#include "crew/common/trace.h"
#include "crew/explain/batch_scorer.h"
#include "crew/la/ridge.h"

namespace crew {

Result<WordExplanation> KernelShapExplainer::Explain(const Matcher& matcher,
                                                     const RecordPair& pair,
                                                     uint64_t seed) const {
  CREW_TRACE_SPAN("explain/shap");
  ScopedMetricStage metric_stage("attribution");
  WallTimer timer;
  Tokenizer tokenizer;
  PairTokenView view(AnonymousSchema(pair), tokenizer, pair);
  WordExplanation out;
  out.base_score = matcher.PredictProba(pair);
  const int m = view.size();
  if (m == 0) {
    out.runtime_ms = timer.ElapsedMillis();
    return out;
  }
  if (m == 1) {
    // Single token: its Shapley value is exactly f(x) - f(empty).
    std::vector<double> empty;
    BatchScorer(matcher, view).ScoreKeepMasks({std::vector<bool>(1, false)},
                                              &empty);
    out.attributions.push_back({view.token(0), out.base_score - empty[0]});
    out.runtime_ms = timer.ElapsedMillis();
    return out;
  }

  // Shapley kernel over coalition sizes 1..m-1 (size 0 and m get infinite
  // weight in theory; we include them as heavily weighted anchor rows).
  std::vector<double> size_weights(m, 0.0);  // index = coalition size
  for (int s = 1; s <= m - 1; ++s) {
    // pi(s) ∝ (m - 1) / (C(m, s) * s * (m - s)); compute via logs to
    // avoid overflow, only relative values matter for sampling.
    double log_comb = 0.0;
    for (int i = 1; i <= s; ++i) {
      log_comb += std::log(static_cast<double>(m - s + i)) -
                  std::log(static_cast<double>(i));
    }
    size_weights[s] = std::exp(std::log(static_cast<double>(m - 1)) -
                               log_comb - std::log(static_cast<double>(s)) -
                               std::log(static_cast<double>(m - s)));
  }

  Rng rng(seed);
  const int n = std::max(8, config_.num_samples);
  const int rows = n + 2;  // + empty and full anchors
  la::Matrix x(rows, m);
  la::Vec y(rows), w(rows);
  std::vector<int> pool(m);
  for (int i = 0; i < m; ++i) pool[i] = i;
  // All coalition sampling happens here on the caller thread; the masks are
  // then scored in one batch (the empty-coalition anchor rides along as the
  // final mask).
  std::vector<std::vector<bool>> keeps;
  keeps.reserve(n + 1);
  for (int r = 0; r < n; ++r) {
    const int s = rng.Categorical(size_weights);
    std::vector<bool> keep(m, false);
    for (int i = 0; i < s; ++i) {
      const int j = i + rng.UniformInt(m - i);
      std::swap(pool[i], pool[j]);
      keep[pool[i]] = true;
      x.At(r, pool[i]) = 1.0;
    }
    keeps.push_back(std::move(keep));
    w[r] = 1.0;  // kernel already applied through the sampling distribution
  }
  keeps.emplace_back(m, false);
  const BatchScorer scorer(matcher, view);
  std::vector<double> scores;
  scorer.ScoreKeepMasks(keeps, &scores);
  for (int r = 0; r < n; ++r) y[r] = scores[r];
  // Anchor rows: empty coalition and full coalition with large weights so
  // the surrogate respects f(empty) and f(x) (SHAP's exact constraints).
  const double anchor_weight = 100.0 * n;
  y[n] = scores[n];
  w[n] = anchor_weight;
  for (int j = 0; j < m; ++j) x.At(n + 1, j) = 1.0;
  y[n + 1] = out.base_score;
  w[n + 1] = anchor_weight;

  la::RidgeModel model;
  CREW_RETURN_IF_ERROR(FitRidge(x, y, w, config_.ridge_lambda, &model));
  out.surrogate_r2 = model.r2;
  out.attributions.reserve(m);
  for (int i = 0; i < m; ++i) {
    out.attributions.push_back({view.token(i), model.coefficients[i]});
  }
  out.runtime_ms = timer.ElapsedMillis();
  return out;
}

}  // namespace crew
