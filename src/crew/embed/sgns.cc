#include "crew/embed/sgns.h"

#include <algorithm>
#include <cmath>

#include "crew/common/rng.h"
#include "crew/la/matrix.h"
#include "crew/la/vector_ops.h"

namespace crew {
namespace {

// Unigram^0.75 negative-sampling table (word2vec's choice).
std::vector<int> BuildNegativeTable(const Vocabulary& vocab, int table_size) {
  std::vector<double> weights(vocab.size());
  double total = 0.0;
  for (int i = 0; i < vocab.size(); ++i) {
    weights[i] = std::pow(static_cast<double>(vocab.CountOf(i)), 0.75);
    total += weights[i];
  }
  std::vector<int> table;
  table.reserve(table_size);
  int id = 0;
  double cum = weights.empty() ? 0.0 : weights[0] / total;
  for (int t = 0; t < table_size; ++t) {
    const double target = (t + 0.5) / table_size;
    while (cum < target && id + 1 < vocab.size()) {
      ++id;
      cum += weights[id] / total;
    }
    table.push_back(id);
  }
  return table;
}

}  // namespace

Result<EmbeddingStore> TrainSgnsEmbeddings(const Corpus& corpus,
                                           const SgnsConfig& config) {
  if (config.dim <= 0 || config.epochs <= 0 || config.negative_samples < 0) {
    return Status::InvalidArgument("TrainSgnsEmbeddings: bad configuration");
  }
  Vocabulary full;
  for (const auto& sentence : corpus) {
    for (const auto& tok : sentence) full.Add(tok);
  }
  Vocabulary vocab = full.Pruned(config.min_count);
  const int v = vocab.size();
  if (v == 0) {
    return Status::FailedPrecondition(
        "TrainSgnsEmbeddings: vocabulary empty after pruning");
  }
  const int d = config.dim;
  Rng rng(config.seed);

  // Pre-map the corpus to id sequences.
  std::vector<std::vector<int>> ids;
  ids.reserve(corpus.size());
  int64_t corpus_tokens = 0;
  for (const auto& sentence : corpus) {
    std::vector<int> s;
    s.reserve(sentence.size());
    for (const auto& tok : sentence) {
      const int id = vocab.GetId(tok);
      if (id >= 0) s.push_back(id);
    }
    corpus_tokens += static_cast<int64_t>(s.size());
    if (!s.empty()) ids.push_back(std::move(s));
  }
  if (corpus_tokens == 0) {
    return Status::FailedPrecondition("TrainSgnsEmbeddings: empty corpus");
  }

  la::Matrix in(v, d), out(v, d);
  for (int r = 0; r < v; ++r) {
    for (int c = 0; c < d; ++c) {
      in.At(r, c) = (rng.Uniform() - 0.5) / d;
      // out starts at zero (word2vec convention).
    }
  }
  const std::vector<int> neg_table = BuildNegativeTable(vocab, 1 << 16);

  // Subsampling keep-probability per token id.
  std::vector<double> keep(v, 1.0);
  if (config.subsample_threshold > 0.0) {
    for (int i = 0; i < v; ++i) {
      const double f = static_cast<double>(vocab.CountOf(i)) /
                       static_cast<double>(vocab.TotalCount());
      if (f > config.subsample_threshold) {
        keep[i] = std::sqrt(config.subsample_threshold / f) +
                  config.subsample_threshold / f;
        keep[i] = std::min(1.0, keep[i]);
      }
    }
  }

  const int64_t total_steps =
      static_cast<int64_t>(config.epochs) * corpus_tokens;
  int64_t step = 0;
  std::vector<double> grad_center(d);
  std::vector<int> targets;
  std::vector<const double*> vouts;
  std::vector<double> dots;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& sentence : ids) {
      // Apply subsampling per epoch pass.
      std::vector<int> kept;
      kept.reserve(sentence.size());
      for (int id : sentence) {
        if (keep[id] >= 1.0 || rng.Bernoulli(keep[id])) kept.push_back(id);
      }
      const int n = static_cast<int>(kept.size());
      for (int c = 0; c < n; ++c) {
        ++step;
        const double progress =
            static_cast<double>(step) / static_cast<double>(total_steps);
        const double lr = std::max(
            1e-4, config.learning_rate * (1.0 - progress));
        const int center = kept[c];
        const int win = 1 + rng.UniformInt(config.window);  // dynamic window
        const int lo = std::max(0, c - win);
        const int hi = std::min(n - 1, c + win);
        double* vin = in.Row(center);
        for (int t = lo; t <= hi; ++t) {
          if (t == c) continue;
          std::fill(grad_center.begin(), grad_center.end(), 0.0);
          // Positive example first, then the negatives, drawn up front in
          // the same RNG order (a negative equal to the positive is drawn
          // and dropped).
          targets.assign(1, kept[t]);
          for (int k = 1; k <= config.negative_samples; ++k) {
            const int target =
                neg_table[rng.UniformInt(static_cast<int>(neg_table.size()))];
            if (target != kept[t]) targets.push_back(target);
          }
          const int m = static_cast<int>(targets.size());
          vouts.resize(m);
          dots.resize(m);
          for (int k = 0; k < m; ++k) vouts[k] = out.Row(targets[k]);
          // Distinct targets: each update below touches only its own output
          // row and leaves `vin` alone, so all dot products can be taken
          // before any update. A repeated target's row changes between its
          // two dot products, so then each dot is taken just before its
          // update, as a serial loop would.
          bool distinct = true;
          for (int a = 1; a < m && distinct; ++a) {
            for (int b = 0; b < a; ++b) distinct &= targets[a] != targets[b];
          }
          if (distinct) {
            la::RowDots(vouts.data(), m, vin, d, nullptr, dots.data());
          }
          for (int k = 0; k < m; ++k) {
            const double label = k == 0 ? 1.0 : 0.0;
            double* vout = out.Row(targets[k]);
            if (!distinct) {
              la::RowDots(&vouts[k], 1, vin, d, nullptr, &dots[k]);
            }
            const double g = (la::Sigmoid(dots[k]) - label) * lr;
            for (int x = 0; x < d; ++x) {
              grad_center[x] += g * vout[x];
              vout[x] -= g * vin[x];
            }
          }
          for (int x = 0; x < d; ++x) vin[x] -= grad_center[x];
        }
      }
    }
  }
  return EmbeddingStore(std::move(vocab), std::move(in));
}

}  // namespace crew
