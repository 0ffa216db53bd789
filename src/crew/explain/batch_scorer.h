#ifndef CREW_EXPLAIN_BATCH_SCORER_H_
#define CREW_EXPLAIN_BATCH_SCORER_H_

#include <vector>

#include "crew/explain/token_view.h"
#include "crew/model/matcher.h"

namespace crew {

/// The one funnel between explainers and the matcher: materializes
/// interpretable-space perturbations (keep / injection masks) into record
/// pairs and scores them through Matcher::PredictProbaBatch, chunked over
/// the shared scoring pool (SetScoringThreads; 1 = inline legacy path).
///
/// Determinism contract: the scorer only evaluates pure per-sample
/// functions and writes results by index, so output is bit-identical for
/// any thread count. All randomness (mask generation) stays with the
/// caller, which runs single-threaded.
///
/// Work is recorded in the metrics registry (crew/common/metrics.h):
/// "crew/scoring/predictions" (split per stage into
/// "crew/scoring/predictions/<stage>"), "crew/scoring/batches", the
/// "crew/scoring/materialize" and "crew/scoring/predict" durations (summed
/// across worker threads), and the "crew/scoring/batch_size" histogram.
class BatchScorer {
 public:
  /// Pair-scoring only (ScorePairs); mask methods require a view.
  explicit BatchScorer(const Matcher& matcher)
      : matcher_(matcher), view_(nullptr) {}

  /// `view` must outlive the scorer.
  BatchScorer(const Matcher& matcher, const PairTokenView& view)
      : matcher_(matcher), view_(&view) {}

  /// (*out)[i] = PredictProba(view.Materialize(keeps[i])).
  void ScoreKeepMasks(const std::vector<std::vector<bool>>& keeps,
                      std::vector<double>* out) const;

  /// (*out)[i] = PredictProba(view.MaterializeWithInjection(keeps[i],
  /// injects[i])).
  void ScoreInjectionMasks(const std::vector<std::vector<bool>>& keeps,
                           const std::vector<std::vector<bool>>& injects,
                           std::vector<double>* out) const;

  /// (*out)[i] = PredictProba(pairs[i]) — for explainers whose perturbations
  /// are record edits rather than keep-masks (Mojito-copy, CERTA).
  void ScorePairs(const std::vector<RecordPair>& pairs,
                  std::vector<double>* out) const;

  const Matcher& matcher() const { return matcher_; }

 private:
  const Matcher& matcher_;
  const PairTokenView* view_;
};

}  // namespace crew

#endif  // CREW_EXPLAIN_BATCH_SCORER_H_
