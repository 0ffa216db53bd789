// Micro-benchmarks (google-benchmark) for the hot inner loops: tokenizer,
// string similarity, ridge solve, agglomerative clustering, matcher
// prediction (single pairs, distinct-pair batches, perturbation batches),
// SGNS training step throughput.

#include <benchmark/benchmark.h>

#include <map>

#include "crew/common/rng.h"
#include "crew/core/agglomerative.h"
#include "crew/data/generator.h"
#include "crew/embed/sgns.h"
#include "crew/la/ridge.h"
#include "crew/model/trainer.h"
#include "crew/text/string_similarity.h"
#include "crew/text/tokenizer.h"

namespace {

void BM_Tokenize(benchmark::State& state) {
  crew::Tokenizer tokenizer;
  const std::string text =
      "Vortexa Wireless Headphones MX-4821 with noise cancelling, "
      "bluetooth 5.0 and fast-charging in graphite";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_Levenshtein(benchmark::State& state) {
  const std::string a(state.range(0), 'a');
  std::string b(state.range(0), 'a');
  for (size_t i = 0; i < b.size(); i += 3) b[i] = 'b';
  for (auto _ : state) {
    benchmark::DoNotOptimize(crew::LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(32)->Arg(128);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crew::JaroWinklerSimilarity("corporation", "corporaiton"));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_RidgeFit(benchmark::State& state) {
  const int n = 256;
  const int d = static_cast<int>(state.range(0));
  crew::Rng rng(1);
  crew::la::Matrix x(n, d);
  crew::la::Vec y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) x.At(i, j) = rng.Uniform();
    y[i] = rng.Uniform();
  }
  for (auto _ : state) {
    crew::la::RidgeModel model;
    benchmark::DoNotOptimize(crew::la::FitRidge(x, y, {}, 1.0, &model));
  }
}
BENCHMARK(BM_RidgeFit)->Arg(16)->Arg(48);

void BM_Agglomerative(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  crew::Rng rng(2);
  crew::la::Matrix d(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      d.At(i, j) = d.At(j, i) = rng.Uniform();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crew::AgglomerativeCluster(d, crew::Linkage::kAverage));
  }
}
BENCHMARK(BM_Agglomerative)->Arg(16)->Arg(48)->Arg(96);

void BM_MatcherPredict(benchmark::State& state) {
  static const auto* pipeline = [] {
    crew::GeneratorConfig config;
    config.num_matches = 100;
    config.num_nonmatches = 100;
    auto d = crew::GenerateDataset(config);
    CREW_CHECK(d.ok());
    auto p = crew::TrainPipeline(d.value(), crew::MatcherKind::kMlp, 0.7, 7);
    CREW_CHECK(p.ok());
    return new crew::TrainedPipeline(std::move(p.value()));
  }();
  const crew::RecordPair& pair = pipeline->test.pair(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline->matcher->PredictProba(pair));
  }
}
BENCHMARK(BM_MatcherPredict);

// One trained pipeline per matcher kind, built lazily and shared across
// benchmark iterations (training is far too slow to repeat per run).
const crew::TrainedPipeline& PipelineFor(crew::MatcherKind kind) {
  static auto* pipelines =
      new std::map<crew::MatcherKind, crew::TrainedPipeline>();
  auto it = pipelines->find(kind);
  if (it == pipelines->end()) {
    crew::GeneratorConfig config;
    config.num_matches = 100;
    config.num_nonmatches = 100;
    auto d = crew::GenerateDataset(config);
    CREW_CHECK(d.ok());
    auto p = crew::TrainPipeline(d.value(), kind, 0.7, 7);
    CREW_CHECK(p.ok());
    it = pipelines->emplace(kind, std::move(p.value())).first;
  }
  return it->second;
}

// Batched scoring vs the per-pair loop, per matcher kind and batch size.
// The batch path hoists feature/tokenization/embedding buffers out of the
// per-sample loop; the gap between the two is the per-sample setup cost.
void BM_PredictProbaBatch(benchmark::State& state) {
  const auto kind = static_cast<crew::MatcherKind>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const auto& pipeline = PipelineFor(kind);
  std::vector<crew::RecordPair> pairs;
  pairs.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    pairs.push_back(pipeline.test.pair(i % pipeline.test.size()));
  }
  std::vector<double> scores;
  for (auto _ : state) {
    pipeline.matcher->PredictProbaBatch(pairs, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_PredictProbaLoop(benchmark::State& state) {
  const auto kind = static_cast<crew::MatcherKind>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const auto& pipeline = PipelineFor(kind);
  std::vector<crew::RecordPair> pairs;
  pairs.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    pairs.push_back(pipeline.test.pair(i % pipeline.test.size()));
  }
  std::vector<double> scores(batch);
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      scores[i] = pipeline.matcher->PredictProba(pairs[i]);
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BatchArgs(benchmark::internal::Benchmark* b) {
  for (crew::MatcherKind kind : crew::AllMatcherKinds()) {
    for (int batch : {32, 256, 1024}) {
      b->Args({static_cast<long>(kind), batch});
    }
  }
}
BENCHMARK(BM_PredictProbaBatch)->Apply(BatchArgs);
BENCHMARK(BM_PredictProbaLoop)->Apply(BatchArgs);

// Perturbation-shaped batch through the embedding-bag matcher: every pair
// in the batch is a variant of the same record pair, so the scratch's
// token -> embedding-row cache should absorb nearly all vocabulary
// lookups after the first variant (the case the cache exists for).
void BM_EmbeddingBagPerturbationBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const auto& pipeline = PipelineFor(crew::MatcherKind::kEmbeddingBag);
  std::vector<crew::RecordPair> pairs(batch, pipeline.test.pair(0));
  std::vector<double> scores;
  for (auto _ : state) {
    pipeline.matcher->PredictProbaBatch(pairs, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EmbeddingBagPerturbationBatch)->Arg(32)->Arg(256)->Arg(1024);

// Token-drop perturbations of one test pair through a feature matcher:
// each variant keeps every token of every attribute with probability 1/2
// (seeded, so the batch is the same in every run), joined by single
// spaces as BatchScorer materializes a mask. Every variant draws on the
// same tokens, which PairFeaturizer's per-batch memo exploits;
// BM_PredictProbaBatch scores distinct pairs and cannot show it.
void BM_FeatureMatcherPerturbationBatch(benchmark::State& state) {
  const auto kind = static_cast<crew::MatcherKind>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const auto& pipeline = PipelineFor(kind);
  const crew::RecordPair& base = pipeline.test.pair(0);
  const crew::Tokenizer tokenizer;
  crew::Rng rng(17);
  std::vector<crew::RecordPair> pairs(batch, base);
  for (crew::RecordPair& pair : pairs) {
    for (crew::Record* record : {&pair.left, &pair.right}) {
      for (std::string& value : record->values) {
        std::string kept;
        for (const std::string& token : tokenizer.Tokenize(value)) {
          if (!rng.Bernoulli(0.5)) continue;
          if (!kept.empty()) kept += ' ';
          kept += token;
        }
        value = std::move(kept);
      }
    }
  }
  std::vector<double> scores;
  for (auto _ : state) {
    pipeline.matcher->PredictProbaBatch(pairs, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void FeatureMatcherArgs(benchmark::internal::Benchmark* b) {
  for (crew::MatcherKind kind : crew::AllMatcherKinds()) {
    if (kind == crew::MatcherKind::kEmbeddingBag) continue;
    for (int batch : {32, 256}) b->Args({static_cast<long>(kind), batch});
  }
}
BENCHMARK(BM_FeatureMatcherPerturbationBatch)->Apply(FeatureMatcherArgs);

void BM_SgnsEpoch(benchmark::State& state) {
  crew::Corpus corpus;
  crew::Rng rng(3);
  for (int s = 0; s < 200; ++s) {
    std::vector<std::string> sentence;
    for (int w = 0; w < 12; ++w) {
      // Append instead of operator+: avoids GCC 12's -Wrestrict false
      // positive (PR105651) under -O2, promoted to an error by -Werror.
      std::string word = "w";
      word += std::to_string(rng.UniformInt(300));
      sentence.push_back(std::move(word));
    }
    corpus.push_back(std::move(sentence));
  }
  for (auto _ : state) {
    crew::SgnsConfig config;
    config.dim = 16;
    config.epochs = 1;
    config.min_count = 1;
    benchmark::DoNotOptimize(crew::TrainSgnsEmbeddings(corpus, config));
  }
}
BENCHMARK(BM_SgnsEpoch);

}  // namespace

BENCHMARK_MAIN();
