#include "crew/embed/embedding_store.h"

#include <algorithm>
#include <cmath>

#include "crew/common/logging.h"

namespace crew {

EmbeddingStore::EmbeddingStore(Vocabulary vocab, la::Matrix vectors)
    : vocab_(std::move(vocab)), vectors_(std::move(vectors)) {
  CREW_CHECK(vectors_.rows() == vocab_.size());
  // Normalize rows once so cosine reduces to a dot product.
  for (int r = 0; r < vectors_.rows(); ++r) {
    double norm = 0.0;
    double* row = vectors_.Row(r);
    for (int c = 0; c < vectors_.cols(); ++c) norm += row[c] * row[c];
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (int c = 0; c < vectors_.cols(); ++c) row[c] /= norm;
    }
  }
}

la::Vec EmbeddingStore::Lookup(std::string_view token) const {
  const int id = vocab_.GetId(token);
  if (id < 0) return la::Vec(dim(), 0.0);
  return vectors_.RowVec(id);
}

double EmbeddingStore::Similarity(std::string_view a,
                                  std::string_view b) const {
  return SimilarityById(vocab_.GetId(a), vocab_.GetId(b));
}

double EmbeddingStore::SimilarityById(int a, int b) const {
  if (a < 0 || b < 0) return 0.0;
  const double* ra = vectors_.Row(a);
  const double* rb = vectors_.Row(b);
  double dot = 0.0;
  for (int c = 0; c < dim(); ++c) dot += ra[c] * rb[c];
  return dot;
}

void EmbeddingStore::SimilaritiesById(int a, const int* ids, int n,
                                      double* out) const {
  if (a < 0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  // Gather the in-vocabulary rows (OOV ids score 0), in blocks so the
  // pointer buffer stays on the stack for any n.
  constexpr int kBlock = 64;
  const double* rows[kBlock];
  double dots[kBlock];
  int slot[kBlock];
  for (int first = 0; first < n; first += kBlock) {
    const int end = std::min(n, first + kBlock);
    int m = 0;
    for (int k = first; k < end; ++k) {
      if (ids[k] < 0) {
        out[k] = 0.0;
        continue;
      }
      rows[m] = vectors_.Row(ids[k]);
      slot[m++] = k;
    }
    la::RowDots(rows, m, vectors_.Row(a), dim(), nullptr, dots);
    for (int i = 0; i < m; ++i) out[slot[i]] = dots[i];
  }
}

void EmbeddingStore::MeanVectorOfIdsInto(const std::vector<int>& ids,
                                         la::Vec* out) const {
  out->assign(dim(), 0.0);
  la::Vec& mean = *out;
  int n = 0;
  for (int id : ids) {
    if (id < 0) continue;
    const double* row = vectors_.Row(id);
    for (int c = 0; c < dim(); ++c) mean[c] += row[c];
    ++n;
  }
  if (n > 0) la::Scale(1.0 / n, mean);
}

la::Vec EmbeddingStore::MeanVector(
    const std::vector<std::string>& tokens) const {
  la::Vec mean;
  MeanVectorInto(tokens, &mean);
  return mean;
}

void EmbeddingStore::MeanVectorInto(const std::vector<std::string>& tokens,
                                    la::Vec* out) const {
  out->assign(dim(), 0.0);
  la::Vec& mean = *out;
  int n = 0;
  for (const auto& tok : tokens) {
    const int id = vocab_.GetId(tok);
    if (id < 0) continue;
    const double* row = vectors_.Row(id);
    for (int c = 0; c < dim(); ++c) mean[c] += row[c];
    ++n;
  }
  if (n > 0) la::Scale(1.0 / n, mean);
}

std::vector<std::pair<std::string, double>> EmbeddingStore::NearestNeighbors(
    std::string_view token, int k) const {
  std::vector<std::pair<std::string, double>> out;
  const int id = vocab_.GetId(token);
  if (id < 0 || k <= 0) return out;
  std::vector<std::pair<double, int>> scored;
  const double* q = vectors_.Row(id);
  for (int r = 0; r < vectors_.rows(); ++r) {
    if (r == id) continue;
    const double* row = vectors_.Row(r);
    double dot = 0.0;
    for (int c = 0; c < dim(); ++c) dot += q[c] * row[c];
    scored.push_back({dot, r});
  }
  const int take = std::min<int>(k, static_cast<int>(scored.size()));
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int i = 0; i < take; ++i) {
    out.push_back({vocab_.TokenOf(scored[i].second), scored[i].first});
  }
  return out;
}

}  // namespace crew
