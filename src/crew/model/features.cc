#include "crew/model/features.h"

#include <algorithm>
#include <cmath>

#include "crew/common/dcheck.h"
#include "crew/text/string_similarity.h"

namespace crew {
namespace {

// Values longer than this get the token-level Dice proxy instead of
// Levenshtein. The cutoff decides which feature a matcher is trained on,
// so it is part of the feature definition.
constexpr size_t kMaxLevenshteinLength = 48;

// `set_a`, `set_b` and `intersection` count the distinct tokens of the two
// values and those they share (the Dice proxy's inputs).
double TypeSpecificSimilarity(AttributeType type, const std::string& a,
                              const std::string& b, size_t set_a,
                              size_t set_b, size_t intersection) {
  switch (type) {
    case AttributeType::kNumeric:
      return NumericSimilarity(a, b);
    case AttributeType::kCategorical:
    case AttributeType::kText:
      if (a.size() <= kMaxLevenshteinLength &&
          b.size() <= kMaxLevenshteinLength) {
        return LevenshteinSimilarity(a, b);
      }
      return DiceFromCounts(set_a, set_b, intersection);
  }
  return 0.0;
}

// Pair-memo slots stop doubling here (16 B each, so 64 KiB). A batch of
// many distinct pairs that fills the table starts it over instead, which
// bounds the memo's memory per scoring thread; values do not change.
constexpr size_t kMaxPairSlots = size_t{1} << 12;
constexpr std::uint64_t kEmptyPair = ~std::uint64_t{0};

std::uint64_t HashBytes(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

size_t PairSlotIndex(std::uint64_t key, size_t mask) {
  std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h ^ (h >> 32)) & mask;
}

void InternAll(const std::vector<std::string>& tokens, TokenMemo* memo,
               std::vector<int>* ids) {
  ids->clear();
  for (const std::string& token : tokens) ids->push_back(memo->Intern(token));
}

void SortedDistinct(const std::vector<int>& ids, std::vector<int>* set) {
  set->assign(ids.begin(), ids.end());
  std::sort(set->begin(), set->end());
  set->erase(std::unique(set->begin(), set->end()), set->end());
}

size_t IntersectionSize(const std::vector<int>& a, const std::vector<int>& b) {
  size_t n = 0;
  for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n, ++i, ++j;
    }
  }
  return n;
}

// Mean embedding of interned tokens, summed in token order (duplicates
// included) like EmbeddingStore::MeanVectorInto on their strings.
void MeanOfIds(const EmbeddingStore& embeddings, const TokenMemo& memo,
               const std::vector<int>& ids, std::vector<int>* rows,
               la::Vec* mean) {
  rows->clear();
  for (int id : ids) rows->push_back(memo.EmbeddingRow(id));
  embeddings.MeanVectorOfIdsInto(*rows, mean);
}

}  // namespace

void TokenMemo::Bind(const EmbeddingStore* embeddings) {
  if (embeddings == embeddings_) return;
  embeddings_ = embeddings;
  chars_.clear();
  entries_.clear();
  std::fill(token_slots_.begin(), token_slots_.end(), 0);
  std::fill(pair_slots_.begin(), pair_slots_.end(), PairSlot{kEmptyPair, 0.0});
  pair_count_ = 0;
}

int TokenMemo::Intern(std::string_view token) {
  if (2 * (entries_.size() + 1) > token_slots_.size()) GrowTokenSlots();
  const std::uint64_t hash = HashBytes(token);
  const size_t mask = token_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::int32_t slot = token_slots_[i];
    if (slot == 0) {
      const int id = static_cast<int>(entries_.size());
      const int row = embeddings_ != nullptr ? embeddings_->TokenId(token) : -1;
      entries_.push_back({static_cast<std::uint32_t>(chars_.size()),
                          static_cast<std::uint32_t>(token.size()), hash, row});
      chars_.append(token);
      token_slots_[i] = id + 1;
      return id;
    }
    const int id = slot - 1;
    if (entries_[id].hash == hash && Token(id) == token) return id;
  }
}

void TokenMemo::GrowTokenSlots() {
  token_slots_.assign(std::max<size_t>(64, 2 * token_slots_.size()), 0);
  const size_t mask = token_slots_.size() - 1;
  for (size_t id = 0; id < entries_.size(); ++id) {
    size_t i = entries_[id].hash & mask;
    while (token_slots_[i] != 0) i = (i + 1) & mask;
    token_slots_[i] = static_cast<std::int32_t>(id + 1);
  }
}

double TokenMemo::JaroWinkler(int a, int b) {
  if (2 * (pair_count_ + 1) > pair_slots_.size()) GrowPairSlots();
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) |
                            static_cast<std::uint32_t>(b);
  const size_t mask = pair_slots_.size() - 1;
  for (size_t i = PairSlotIndex(key, mask);; i = (i + 1) & mask) {
    PairSlot& slot = pair_slots_[i];
    if (slot.key == key) return slot.value;
    if (slot.key == kEmptyPair) {
      slot = {key, JaroWinklerSimilarity(Token(a), Token(b))};
      ++pair_count_;
      return slot.value;
    }
  }
}

void TokenMemo::GrowPairSlots() {
  pair_count_ = 0;
  if (pair_slots_.size() >= kMaxPairSlots) {  // full at the cap: start over
    std::fill(pair_slots_.begin(), pair_slots_.end(),
              PairSlot{kEmptyPair, 0.0});
    return;
  }
  std::vector<PairSlot> old(std::max<size_t>(256, 2 * pair_slots_.size()),
                            PairSlot{kEmptyPair, 0.0});
  old.swap(pair_slots_);
  const size_t mask = pair_slots_.size() - 1;
  for (const PairSlot& slot : old) {
    if (slot.key == kEmptyPair) continue;
    size_t i = PairSlotIndex(slot.key, mask);
    while (pair_slots_[i].key != kEmptyPair) i = (i + 1) & mask;
    pair_slots_[i] = slot;
    ++pair_count_;
  }
}

PairFeaturizer::PairFeaturizer(Schema schema,
                               std::shared_ptr<const EmbeddingStore> embeddings,
                               Tokenizer tokenizer)
    : schema_(std::move(schema)),
      embeddings_(std::move(embeddings)),
      tokenizer_(tokenizer) {}

int PairFeaturizer::FeatureCount() const {
  return schema_.size() * kPerAttribute + kGlobal;
}

std::vector<std::string> PairFeaturizer::FeatureNames() const {
  std::vector<std::string> names;
  for (int a = 0; a < schema_.size(); ++a) {
    const std::string& attr = schema_.name(a);
    names.push_back(attr + "_jaccard");
    names.push_back(attr + "_overlap");
    names.push_back(attr + "_monge_elkan");
    names.push_back(attr + "_emb_cosine");
    names.push_back(attr + "_typed_sim");
  }
  names.push_back("all_jaccard");
  names.push_back("all_overlap");
  names.push_back("log_length_ratio");
  return names;
}

la::Vec PairFeaturizer::Extract(const RecordPair& pair) const {
  Scratch scratch;
  la::Vec features;
  ExtractInto(pair, &scratch, &features);
  return features;
}

void PairFeaturizer::ExtractInto(const RecordPair& pair, Scratch* scratch,
                                 la::Vec* out) const {
  CREW_CHECK(static_cast<int>(pair.left.values.size()) == schema_.size());
  CREW_CHECK(static_cast<int>(pair.right.values.size()) == schema_.size());
  la::Vec& features = *out;
  features.clear();
  features.reserve(FeatureCount());

  TokenMemo& memo = scratch->memo;
  memo.Bind(embeddings_.get());
  std::vector<int>& ta = scratch->left_ids;
  std::vector<int>& tb = scratch->right_ids;
  std::vector<int>& sa = scratch->left_set;
  std::vector<int>& sb = scratch->right_set;
  std::vector<int>& all_left = scratch->all_left;
  std::vector<int>& all_right = scratch->all_right;
  all_left.clear();
  all_right.clear();
  auto jaro_winkler = [&memo](int x, int y) { return memo.JaroWinkler(x, y); };
  for (int a = 0; a < schema_.size(); ++a) {
    const std::string& va = pair.left.values[a];
    const std::string& vb = pair.right.values[a];
    tokenizer_.TokenizeInto(va, &scratch->left_tokens);
    tokenizer_.TokenizeInto(vb, &scratch->right_tokens);
    InternAll(scratch->left_tokens, &memo, &ta);
    InternAll(scratch->right_tokens, &memo, &tb);
    all_left.insert(all_left.end(), ta.begin(), ta.end());
    all_right.insert(all_right.end(), tb.begin(), tb.end());
    SortedDistinct(ta, &sa);
    SortedDistinct(tb, &sb);
    const size_t inter = IntersectionSize(sa, sb);

    features.push_back(JaccardFromCounts(sa.size(), sb.size(), inter));
    features.push_back(OverlapFromCounts(sa.size(), sb.size(), inter));
    features.push_back(MongeElkanWith(ta, tb, jaro_winkler));
    if (embeddings_ != nullptr) {
      MeanOfIds(*embeddings_, memo, ta, &scratch->rows, &scratch->mean_left);
      MeanOfIds(*embeddings_, memo, tb, &scratch->rows, &scratch->mean_right);
      features.push_back(la::Cosine(scratch->mean_left, scratch->mean_right));
    } else {
      features.push_back(0.0);
    }
    features.push_back(TypeSpecificSimilarity(schema_.type(a), va, vb,
                                              sa.size(), sb.size(), inter));
  }

  SortedDistinct(all_left, &sa);
  SortedDistinct(all_right, &sb);
  const size_t inter = IntersectionSize(sa, sb);
  features.push_back(JaccardFromCounts(sa.size(), sb.size(), inter));
  features.push_back(OverlapFromCounts(sa.size(), sb.size(), inter));
  const double la = static_cast<double>(all_left.size()) + 1.0;
  const double lb = static_cast<double>(all_right.size()) + 1.0;
  features.push_back(std::log(la / lb));
  CREW_DCHECK(static_cast<int>(features.size()) == FeatureCount());
}

void FeatureScaler::Fit(const std::vector<la::Vec>& rows) {
  CREW_CHECK(!rows.empty());
  const size_t d = rows[0].size();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  for (const auto& row : rows) {
    CREW_CHECK(row.size() == d);
    for (size_t i = 0; i < d; ++i) mean_[i] += row[i];
  }
  for (size_t i = 0; i < d; ++i) mean_[i] /= static_cast<double>(rows.size());
  la::Vec var(d, 0.0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < d; ++i) {
      var[i] += (row[i] - mean_[i]) * (row[i] - mean_[i]);
    }
  }
  for (size_t i = 0; i < d; ++i) {
    const double sd = std::sqrt(var[i] / static_cast<double>(rows.size()));
    inv_std_[i] = sd > 1e-9 ? 1.0 / sd : 1.0;
  }
}

la::Vec FeatureScaler::Transform(const la::Vec& row) const {
  la::Vec out = row;
  TransformInPlace(&out);
  return out;
}

void FeatureScaler::TransformInPlace(la::Vec* row) const {
  CREW_CHECK(fitted());
  CREW_CHECK(row->size() == mean_.size());
  for (size_t i = 0; i < row->size(); ++i) {
    (*row)[i] = ((*row)[i] - mean_[i]) * inv_std_[i];
  }
}

}  // namespace crew
