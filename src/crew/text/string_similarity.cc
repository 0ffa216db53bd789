#include "crew/text/string_similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "crew/common/string_util.h"

namespace crew {

namespace {

// Bit-parallel edit distance for |pattern| in [1, 64]. Bit i of the
// vertical delta vectors `vp`/`vn` says whether D[i+1][j] - D[i][j] is +1
// or -1 in the current column j; each text character advances the whole
// column in a few word operations, and `score` tracks the last row,
// D[m][j]. Hyyrö (2003), "A bit-vector algorithm for computing Levenshtein
// and Damerau edit distances".
int BitParallelDistance(std::string_view pattern, std::string_view text) {
  const int m = static_cast<int>(pattern.size());
  std::uint64_t peq[256] = {};  // match mask per byte value
  for (int i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= std::uint64_t{1} << i;
  }
  const std::uint64_t last = std::uint64_t{1} << (m - 1);
  std::uint64_t vp = ~std::uint64_t{0};
  std::uint64_t vn = 0;
  int score = m;
  for (char ch : text) {
    const std::uint64_t eq = peq[static_cast<unsigned char>(ch)];
    const std::uint64_t d0 = (((eq & vp) + vp) ^ vp) | eq | vn;
    std::uint64_t hp = vn | ~(d0 | vp);
    std::uint64_t hn = vp & d0;
    if (hp & last) ++score;
    if (hn & last) --score;
    hp = (hp << 1) | 1;  // row 0 of a global alignment grows by 1 per column
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return score;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);  // `a` is now the shorter one
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0) return m;
  if (n <= 64) return BitParallelDistance(a, b);
  std::vector<int> prev(m + 1), cur(m + 1);
  for (int j = 0; j <= m; ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    cur[0] = i;
    for (int j = 1; j <= m; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  std::vector<bool> a_match(n, false), b_match(m, false);
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(m - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!b_match[j] && a[i] == b[j]) {
        a_match[i] = b_match[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < n; ++i) {
    if (!a_match[i]) continue;
    while (!b_match[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  const double mm = matches;
  const double jaro = (mm / n + mm / m + (mm - transpositions / 2.0) / mm) / 3.0;
  // Winkler prefix boost.
  int prefix = 0;
  for (int i = 0; i < std::min({n, m, 4}); ++i) {
    if (a[i] == b[i]) {
      ++prefix;
    } else {
      break;
    }
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

namespace {

std::unordered_set<std::string_view> ToSet(const std::vector<std::string>& v) {
  std::unordered_set<std::string_view> s;
  s.reserve(v.size());
  for (const auto& t : v) s.insert(t);
  return s;
}

size_t IntersectionSize(const std::unordered_set<std::string_view>& set_a,
                        const std::unordered_set<std::string_view>& set_b) {
  const auto& small = set_a.size() <= set_b.size() ? set_a : set_b;
  const auto& large = set_a.size() <= set_b.size() ? set_b : set_a;
  size_t n = 0;
  // crew-lint: allow(unordered-iter): accumulates an order-independent
  // integer count; no output depends on visit order.
  for (const auto& t : small) {
    if (large.count(t) > 0) ++n;
  }
  return n;
}

}  // namespace

double JaccardFromCounts(size_t a, size_t b, size_t intersection) {
  if (a == 0 && b == 0) return 1.0;
  return static_cast<double>(intersection) /
         static_cast<double>(a + b - intersection);
}

double OverlapFromCounts(size_t a, size_t b, size_t intersection) {
  if (a == 0 && b == 0) return 1.0;
  if (a == 0 || b == 0) return 0.0;
  return static_cast<double>(intersection) /
         static_cast<double>(std::min(a, b));
}

double DiceFromCounts(size_t a, size_t b, size_t intersection) {
  if (a == 0 && b == 0) return 1.0;
  return 2.0 * static_cast<double>(intersection) / static_cast<double>(a + b);
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  const auto sa = ToSet(a), sb = ToSet(b);
  return JaccardFromCounts(sa.size(), sb.size(), IntersectionSize(sa, sb));
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  const auto sa = ToSet(a), sb = ToSet(b);
  return OverlapFromCounts(sa.size(), sb.size(), IntersectionSize(sa, sb));
}

double DiceCoefficient(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  const auto sa = ToSet(a), sb = ToSet(b);
  return DiceFromCounts(sa.size(), sb.size(), IntersectionSize(sa, sb));
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  return MongeElkanWith(a, b, JaroWinklerSimilarity);
}

double NumericSimilarity(std::string_view a, std::string_view b) {
  double x = 0.0, y = 0.0;
  if (!ParseDouble(a, &x) || !ParseDouble(b, &y)) {
    return LevenshteinSimilarity(a, b);
  }
  const double denom = std::max(std::fabs(x), std::fabs(y));
  if (denom == 0.0) return 1.0;
  const double sim = 1.0 - std::fabs(x - y) / denom;
  return std::clamp(sim, 0.0, 1.0);
}

}  // namespace crew
