#include "crew/model/matcher.h"

namespace crew {

double Matcher::PredictProba(const RecordPair& pair) const {
  double score = 0.0;
  PredictProbaBatch(&pair, 1, &score);
  return score;
}

void Matcher::PredictProbaBatch(const std::vector<RecordPair>& pairs,
                                std::vector<double>* out) const {
  out->resize(pairs.size());
  PredictProbaBatch(pairs.data(), pairs.size(), out->data());
}

}  // namespace crew
