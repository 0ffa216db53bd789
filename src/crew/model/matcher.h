#ifndef CREW_MODEL_MATCHER_H_
#define CREW_MODEL_MATCHER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "crew/data/record.h"

namespace crew {

/// Black-box EM classifier interface.
///
/// This is the *entire* surface explainers are allowed to touch — they may
/// score arbitrary (perturbed) record pairs and nothing else, exactly as
/// post-hoc explainers treat a deployed BERT matcher.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// The one scoring entry point a matcher implements: writes the
  /// probability in [0, 1] that pairs[i] refers to the same entity into
  /// out[i], for i in [0, count). out[i] must depend on pairs[i] alone —
  /// bit-identical whatever else shares the batch and wherever it sits —
  /// so a caller may batch any pairs together (the evaluation scores an
  /// instance's whole faithfulness block in one call). Implementations
  /// hoist per-pair setup (feature buffers, tokenization, embedding
  /// lookups, per-batch memos) out of the inner loop. They must be
  /// const-thread-safe: the batch scoring engine invokes them concurrently
  /// on disjoint ranges.
  virtual void PredictProbaBatch(const RecordPair* pairs, size_t count,
                                 double* out) const = 0;

  /// One pair: a batch of one. Virtual only so decorators (timing,
  /// counting) can tell single calls from batches.
  virtual double PredictProba(const RecordPair& pair) const;

  /// Convenience vector form; resizes `out` to pairs.size().
  void PredictProbaBatch(const std::vector<RecordPair>& pairs,
                         std::vector<double>* out) const;

  /// Decision threshold calibrated at training time.
  virtual double threshold() const { return 0.5; }

  /// Short display name ("logistic", "mlp", ...).
  virtual std::string Name() const = 0;

  /// 1 = match, 0 = non-match at the calibrated threshold.
  int Predict(const RecordPair& pair) const {
    return PredictProba(pair) >= threshold() ? 1 : 0;
  }
};

}  // namespace crew

#endif  // CREW_MODEL_MATCHER_H_
