#include "crew/model/features.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "crew/common/rng.h"
#include "crew/data/generator.h"
#include "crew/text/string_similarity.h"

namespace crew {
namespace {

Schema MakeSchema() {
  Schema s;
  s.AddAttribute("name", AttributeType::kText);
  s.AddAttribute("price", AttributeType::kNumeric);
  return s;
}

RecordPair MakePair(const std::string& lname, const std::string& lprice,
                    const std::string& rname, const std::string& rprice) {
  RecordPair p;
  p.left.values = {lname, lprice};
  p.right.values = {rname, rprice};
  return p;
}

TEST(FeaturesTest, CountMatchesNames) {
  PairFeaturizer f(MakeSchema(), nullptr);
  EXPECT_EQ(f.FeatureCount(), 2 * 5 + 3);
  EXPECT_EQ(static_cast<int>(f.FeatureNames().size()), f.FeatureCount());
  EXPECT_EQ(f.FeatureNames()[0], "name_jaccard");
  EXPECT_EQ(f.FeatureNames().back(), "log_length_ratio");
}

TEST(FeaturesTest, IdenticalPairScoresHigh) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto x = f.Extract(
      MakePair("acme router", "99.50", "acme router", "99.50"));
  // jaccard, overlap, monge-elkan for "name" are all 1.
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

TEST(FeaturesTest, DisjointPairScoresLow) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto x =
      f.Extract(MakePair("acme router", "10", "zeta blender", "900"));
  EXPECT_DOUBLE_EQ(x[0], 0.0);  // name jaccard
  EXPECT_LT(x[5 + 4], 0.1);     // price typed sim (numeric, far apart)
}

TEST(FeaturesTest, NumericAttributeUsesRelativeSimilarity) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto near = f.Extract(MakePair("x", "100", "x", "99"));
  const auto far = f.Extract(MakePair("x", "100", "x", "10"));
  const int price_typed = 5 + 4;
  EXPECT_GT(near[price_typed], far[price_typed]);
}

TEST(FeaturesTest, TokenRemovalChangesFeatures) {
  // The property perturbation explainers rely on.
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto full =
      f.Extract(MakePair("acme super router", "5", "acme super router", "5"));
  const auto dropped =
      f.Extract(MakePair("acme router", "5", "acme super router", "5"));
  EXPECT_NE(full[0], dropped[0]);
}

TEST(FeaturesTest, EmbeddingFeatureZeroWithoutStore) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto x = f.Extract(MakePair("a", "1", "a", "1"));
  EXPECT_DOUBLE_EQ(x[3], 0.0);  // name_emb_cosine
}

// The featurizer as a composition of the string-level similarity
// functions, one call per feature: the definition ExtractInto's id-based
// memo must reproduce bit for bit.
la::Vec ReferenceFeatures(const Schema& schema,
                          const EmbeddingStore* embeddings,
                          const RecordPair& pair) {
  const Tokenizer tokenizer;
  la::Vec features;
  std::vector<std::string> all_left, all_right;
  for (int a = 0; a < schema.size(); ++a) {
    const std::string& va = pair.left.values[a];
    const std::string& vb = pair.right.values[a];
    const std::vector<std::string> ta = tokenizer.Tokenize(va);
    const std::vector<std::string> tb = tokenizer.Tokenize(vb);
    all_left.insert(all_left.end(), ta.begin(), ta.end());
    all_right.insert(all_right.end(), tb.begin(), tb.end());
    features.push_back(JaccardSimilarity(ta, tb));
    features.push_back(OverlapCoefficient(ta, tb));
    features.push_back(MongeElkanSimilarity(ta, tb));
    if (embeddings != nullptr) {
      la::Vec l, r;
      embeddings->MeanVectorInto(ta, &l);
      embeddings->MeanVectorInto(tb, &r);
      features.push_back(la::Cosine(l, r));
    } else {
      features.push_back(0.0);
    }
    if (schema.type(a) == AttributeType::kNumeric) {
      features.push_back(NumericSimilarity(va, vb));
    } else if (va.size() <= 48 && vb.size() <= 48) {
      features.push_back(LevenshteinSimilarity(va, vb));
    } else {
      features.push_back(DiceCoefficient(ta, tb));
    }
  }
  features.push_back(JaccardSimilarity(all_left, all_right));
  features.push_back(OverlapCoefficient(all_left, all_right));
  features.push_back(
      std::log((static_cast<double>(all_left.size()) + 1.0) /
               (static_cast<double>(all_right.size()) + 1.0)));
  return features;
}

// Random unit-ish vectors for roughly two thirds of `pairs`' tokens; the
// rest stay out of vocabulary.
std::shared_ptr<const EmbeddingStore> RandomStore(
    const std::vector<RecordPair>& pairs, uint64_t seed) {
  Rng rng(seed);
  Vocabulary vocab;
  const Tokenizer tokenizer;
  for (const RecordPair& pair : pairs) {
    for (const Record* record : {&pair.left, &pair.right}) {
      for (const std::string& value : record->values) {
        for (const std::string& token : tokenizer.Tokenize(value)) {
          if (!vocab.Contains(token) && rng.UniformInt(3) != 0) {
            vocab.Add(token);
          }
        }
      }
    }
  }
  la::Matrix vectors(vocab.size(), 8);
  for (int r = 0; r < vectors.rows(); ++r) {
    for (int c = 0; c < vectors.cols(); ++c) vectors.At(r, c) = rng.Normal();
  }
  return std::make_shared<const EmbeddingStore>(std::move(vocab),
                                                std::move(vectors));
}

// Keeps each token of `value` with probability `keep`, joined by single
// spaces the way perturbation explainers materialize a kept-token mask.
std::string DropTokens(const std::string& value, double keep, Rng* rng) {
  std::string out;
  for (const std::string& token : Tokenizer().Tokenize(value)) {
    if (!rng->Bernoulli(keep)) continue;
    if (!out.empty()) out += ' ';
    out += token;
  }
  return out;
}

// Token-drop perturbations of `base`, a fifth of them with tokens injected
// from `donor` (as Landmark and CERTA do) and some attributes emptied.
std::vector<RecordPair> PerturbationBatch(const RecordPair& base,
                                          const RecordPair& donor, int n,
                                          Rng* rng) {
  std::vector<RecordPair> batch;
  for (int i = 0; i < n; ++i) {
    RecordPair p = base;
    for (Record* record : {&p.left, &p.right}) {
      for (size_t a = 0; a < record->values.size(); ++a) {
        record->values[a] = DropTokens(record->values[a], 0.7, rng);
        if (rng->UniformInt(5) == 0) {
          const std::string& extra = rng->Bernoulli(0.5)
                                         ? donor.left.values[a]
                                         : donor.right.values[a];
          record->values[a] += ' ' + DropTokens(extra, 0.5, rng);
        }
      }
    }
    batch.push_back(std::move(p));
  }
  return batch;
}

void ExpectBitIdentical(const la::Vec& got, const la::Vec& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << context << " feature " << i << ": " << got[i] << " vs " << want[i];
  }
}

// ExtractInto against the string reference over seeded token-drop batches
// of generated pairs, one Scratch per batch as the matchers use it, with
// and without an embedding store.
TEST(FeaturesBitIdentityTest, PerturbationBatchesMatchStringReference) {
  for (Flavor flavor : {Flavor::kStructured, Flavor::kDirty, Flavor::kTextual}) {
    GeneratorConfig config;
    config.domain = flavor == Flavor::kTextual ? Domain::kRestaurants
                                               : Domain::kProducts;
    config.flavor = flavor;
    config.num_matches = 12;
    config.num_nonmatches = 12;
    auto dataset = GenerateDataset(config);
    ASSERT_TRUE(dataset.ok());
    const Dataset& d = dataset.value();
    const auto store = RandomStore(d.pairs(), 11);
    for (bool with_store : {true, false}) {
      const EmbeddingStore* embeddings = with_store ? store.get() : nullptr;
      PairFeaturizer featurizer(d.schema(), with_store ? store : nullptr);
      Rng rng(static_cast<uint64_t>(flavor) + 1);
      la::Vec got;
      for (int i = 0; i < d.size(); ++i) {
        const auto batch = PerturbationBatch(
            d.pair(i), d.pair((i + 5) % d.size()), 24, &rng);
        PairFeaturizer::Scratch scratch;
        for (size_t k = 0; k < batch.size(); ++k) {
          featurizer.ExtractInto(batch[k], &scratch, &got);
          ExpectBitIdentical(
              got, ReferenceFeatures(d.schema(), embeddings, batch[k]),
              config.Name() + " pair " + std::to_string(i) + " variant " +
                  std::to_string(k));
        }
      }
    }
  }
}

// Hand-built edge cases: empty attributes, duplicated tokens, numeric and
// non-numeric prices, values straddling the 48-character Levenshtein
// cutoff, and upper-case / punctuated values the tokenizer rewrites.
TEST(FeaturesBitIdentityTest, EdgeCasesMatchStringReference) {
  Schema schema;
  schema.AddAttribute("title", AttributeType::kText);
  schema.AddAttribute("brand", AttributeType::kCategorical);
  schema.AddAttribute("price", AttributeType::kNumeric);
  const std::string x48(48, 'x');
  const std::string len48 = "acme router model seven with extra long cable x1";
  ASSERT_EQ(len48.size(), 48u);
  const std::string len49 = len48 + "2";
  auto make = [](std::string l0, std::string l1, std::string l2,
                 std::string r0, std::string r1, std::string r2) {
    RecordPair p;
    p.left.values = {std::move(l0), std::move(l1), std::move(l2)};
    p.right.values = {std::move(r0), std::move(r1), std::move(r2)};
    return p;
  };
  const std::vector<RecordPair> pairs = {
      make("", "", "", "", "", ""),
      make("acme router", "", "10", "", "acme", "10"),
      make("acme acme router router", "acme", "99.50", "acme router", "acme",
           "99.5"),
      make("Sony WH-1000XM4!", "SONY", "$349", "sony wh 1000xm4", "sony",
           "349 usd"),
      make(x48, x48, "1e3", x48 + "y", x48, "1000"),
      make(len48, len49, "-5", len49, len48, "5"),
      make(len49, "a", "0", len49, "b", "0"),
      make("\xc3\xa9t\xc3\xa9 caf\xc3\xa9", "x y z", "7", "ete cafe", "z y x",
           "seven"),
  };
  const auto store = RandomStore(pairs, 3);
  for (bool with_store : {true, false}) {
    const EmbeddingStore* embeddings = with_store ? store.get() : nullptr;
    PairFeaturizer featurizer(schema, with_store ? store : nullptr);
    PairFeaturizer::Scratch scratch;
    la::Vec got;
    for (size_t i = 0; i < pairs.size(); ++i) {
      featurizer.ExtractInto(pairs[i], &scratch, &got);
      ExpectBitIdentical(got, ReferenceFeatures(schema, embeddings, pairs[i]),
                         "edge case " + std::to_string(i));
      ExpectBitIdentical(featurizer.Extract(pairs[i]), got,
                         "Extract, edge case " + std::to_string(i));
    }
  }
}

// One Scratch shared by featurizers with and without an embedding store,
// and kept across many distinct pairs so the pair memo fills and restarts:
// every result still equals a fresh extraction.
TEST(FeaturesBitIdentityTest, LongLivedScratchStaysExact) {
  GeneratorConfig config;
  config.flavor = Flavor::kTextual;
  config.num_matches = 40;
  config.num_nonmatches = 40;
  auto dataset = GenerateDataset(config);
  ASSERT_TRUE(dataset.ok());
  const Dataset& d = dataset.value();
  const auto store = RandomStore(d.pairs(), 5);
  const PairFeaturizer with_store(d.schema(), store);
  const PairFeaturizer without_store(d.schema(), nullptr);
  PairFeaturizer::Scratch scratch;
  la::Vec got;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < d.size(); ++i) {
      const PairFeaturizer& f = (i % 3 == 0) ? without_store : with_store;
      f.ExtractInto(d.pair(i), &scratch, &got);
      ExpectBitIdentical(got, f.Extract(d.pair(i)),
                         "pair " + std::to_string(i));
    }
  }
}

TEST(FeatureScalerTest, StandardizesColumns) {
  FeatureScaler scaler;
  scaler.Fit({{0.0, 10.0}, {2.0, 10.0}, {4.0, 10.0}});
  const la::Vec t = scaler.Transform({2.0, 10.0});
  EXPECT_NEAR(t[0], 0.0, 1e-12);  // at the mean
  EXPECT_NEAR(t[1], 0.0, 1e-12);  // constant column passes through as 0
  const la::Vec hi = scaler.Transform({4.0, 10.0});
  EXPECT_GT(hi[0], 1.0);  // above mean, in stddev units
  EXPECT_TRUE(scaler.fitted());
}

TEST(FeatureScalerTest, UnfittedIsDetectable) {
  FeatureScaler scaler;
  EXPECT_FALSE(scaler.fitted());
}

}  // namespace
}  // namespace crew
