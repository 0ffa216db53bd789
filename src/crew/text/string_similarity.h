#ifndef CREW_TEXT_STRING_SIMILARITY_H_
#define CREW_TEXT_STRING_SIMILARITY_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace crew {

/// Edit distance with unit costs. Runs the single-word bit-parallel
/// algorithm (Myers 1999, in Hyyrö's 2003 formulation) when the shorter
/// string has at most 64 bytes, O(max(len)) word operations; longer
/// strings take the O(len_a * len_b) dynamic program. Both are exact.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// 1 - distance / max(len); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1] with the standard 0.1 prefix scale.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// |A ∩ B| / |A ∪ B| over token multisets treated as sets.
/// 1.0 when both are empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// |A ∩ B| / min(|A|, |B|); 1.0 when either is empty and the other too,
/// 0.0 when exactly one is empty.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// 2|A ∩ B| / (|A| + |B|).
double DiceCoefficient(const std::vector<std::string>& a,
                       const std::vector<std::string>& b);

/// Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match in
/// `b`. Asymmetric; 0.0 when `a` is empty.
double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b);

/// The set formulas above from the distinct-element counts of A and B and
/// |A ∩ B|, for callers that hold sets as something other than strings
/// (PairFeaturizer works on interned token ids). The string forms call
/// these, so both give the same bits for the same sets.
double JaccardFromCounts(size_t a, size_t b, size_t intersection);
double OverlapFromCounts(size_t a, size_t b, size_t intersection);
double DiceFromCounts(size_t a, size_t b, size_t intersection);

/// Monge-Elkan over any token representation: `sim(a[i], b[j])` replaces
/// Jaro-Winkler. Same loop and summation order as MongeElkanSimilarity,
/// which is this with JaroWinklerSimilarity.
template <typename Token, typename Sim>
double MongeElkanWith(const std::vector<Token>& a, const std::vector<Token>& b,
                      Sim&& sim) {
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (const Token& ta : a) {
    double best = 0.0;
    for (const Token& tb : b) best = std::max(best, sim(ta, tb));
    total += best;
  }
  return total / static_cast<double>(a.size());
}

/// Relative difference similarity for numeric strings:
/// 1 - |x-y| / max(|x|, |y|), clamped to [0,1]; falls back to
/// LevenshteinSimilarity when either side does not parse as a number.
double NumericSimilarity(std::string_view a, std::string_view b);

}  // namespace crew

#endif  // CREW_TEXT_STRING_SIMILARITY_H_
