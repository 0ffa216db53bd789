#ifndef CREW_MODEL_FEATURES_H_
#define CREW_MODEL_FEATURES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "crew/data/record.h"
#include "crew/data/schema.h"
#include "crew/embed/embedding_store.h"
#include "crew/la/vector_ops.h"
#include "crew/text/tokenizer.h"

namespace crew {

/// Token interning and a Jaro-Winkler memo for PairFeaturizer (held by
/// PairFeaturizer::Scratch). Both tables are flat open-addressing arrays in
/// reused buffers, so once a batch has seen its tokens, interning a token
/// or looking up a token pair allocates nothing.
///
/// Iteration-order audit (crew-lint unordered-iter): both hash tables are
/// lookup-only. Ids count up in first-seen order and only ever index
/// per-token data or get compared for equality; no feature reads a table
/// in slot order.
class TokenMemo {
 public:
  /// Dense id of `token`. A token seen for the first time is copied into
  /// the memo and its embedding row resolved once, against the store of
  /// the last Bind.
  int Intern(std::string_view token);

  /// Embedding row of interned token `id`; -1 when OOV or store-less.
  int EmbeddingRow(int id) const { return entries_[id].row; }

  /// JaroWinklerSimilarity(token a, token b): computed on the first request
  /// for the ordered pair (a, b), then looked up.
  double JaroWinkler(int a, int b);

  /// Makes the memo resolve embedding rows against `embeddings` (may be
  /// null), forgetting every token if they were resolved against another
  /// store. Capacity is kept.
  void Bind(const EmbeddingStore* embeddings);

 private:
  struct Entry {
    std::uint32_t offset, length;  // bytes in chars_
    std::uint64_t hash;
    int row;  // embedding row, -1 if none
  };
  struct PairSlot {
    std::uint64_t key;  // (a << 32) | b, or kEmptyPair
    double value;
  };

  std::string_view Token(int id) const {
    return std::string_view(chars_).substr(entries_[id].offset,
                                           entries_[id].length);
  }
  void GrowTokenSlots();
  void GrowPairSlots();

  const EmbeddingStore* embeddings_ = nullptr;
  std::string chars_;                      // interned bytes, back to back
  std::vector<Entry> entries_;             // by id
  std::vector<std::int32_t> token_slots_;  // id + 1; 0 = empty
  std::vector<PairSlot> pair_slots_;
  size_t pair_count_ = 0;
};

/// Magellan-style attribute-similarity featurizer for record pairs.
///
/// Per attribute: Jaccard, overlap coefficient, Monge-Elkan, embedding
/// cosine of the attribute's mean word vector, and a type-specific feature
/// (numeric relative similarity for kNumeric, Levenshtein for short values).
/// Plus three pair-global features (all-token Jaccard, overlap, log length
/// ratio). Every feature is a function of the surviving tokens, so dropping
/// a token perturbs the feature vector — the property perturbation-based
/// explainers rely on.
class PairFeaturizer {
 public:
  /// Reusable buffers for ExtractInto. Matchers create one per
  /// PredictProbaBatch call (the memo lives exactly one batch), so
  /// per-pair extraction allocates nothing in steady state.
  ///
  /// A perturbation batch scores hundreds of token-drop variants of one
  /// record pair, and what varies between them is which tokens survive,
  /// not the tokens themselves. ExtractInto therefore interns every token
  /// into `memo` once per batch and works on ids: set features come from
  /// sorted distinct ids, the attribute mean vector from cached embedding
  /// rows, and Monge-Elkan looks each (left, right) Jaro-Winkler value up,
  /// computing it only on a miss. The output is bit-identical to the
  /// string functions in crew/text/string_similarity.h: equal tokens get
  /// equal ids, so set sizes and intersections are the same integers and
  /// go through the same formulas; a memoized Jaro-Winkler value is the
  /// double the function returned for those two strings; Monge-Elkan and
  /// the mean vector visit tokens in the same order, duplicates included,
  /// so every floating-point sum runs in the same order.
  struct Scratch {
    std::vector<std::string> left_tokens, right_tokens;
    std::vector<int> left_ids, right_ids;    // one attribute, token order
    std::vector<int> left_set, right_set;    // sorted distinct ids
    std::vector<int> all_left, all_right;    // every attribute, token order
    std::vector<int> rows;                   // embedding rows, token order
    la::Vec mean_left, mean_right;
    TokenMemo memo;
  };

  /// `embeddings` may be null; embedding-cosine features are then 0.
  PairFeaturizer(Schema schema,
                 std::shared_ptr<const EmbeddingStore> embeddings,
                 Tokenizer tokenizer = Tokenizer());

  int FeatureCount() const;
  std::vector<std::string> FeatureNames() const;

  la::Vec Extract(const RecordPair& pair) const;

  /// Extract writing into `out` (resized to FeatureCount()) with all
  /// intermediate buffers drawn from `scratch`. Bit-identical to Extract.
  void ExtractInto(const RecordPair& pair, Scratch* scratch,
                   la::Vec* out) const;

  const Schema& schema() const { return schema_; }

 private:
  static constexpr int kPerAttribute = 5;
  static constexpr int kGlobal = 3;

  Schema schema_;
  std::shared_ptr<const EmbeddingStore> embeddings_;
  Tokenizer tokenizer_;
};

/// Z-score standardizer fitted on training features; keeps matcher training
/// numerically well-behaved. Constant features are passed through unchanged.
class FeatureScaler {
 public:
  void Fit(const std::vector<la::Vec>& rows);
  la::Vec Transform(const la::Vec& row) const;
  /// Standardizes `row` in place (batch scoring hot loop; no allocation).
  void TransformInPlace(la::Vec* row) const;
  bool fitted() const { return !mean_.empty(); }

 private:
  la::Vec mean_;
  la::Vec inv_std_;
};

}  // namespace crew

#endif  // CREW_MODEL_FEATURES_H_
