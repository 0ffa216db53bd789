#include "crew/text/string_similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crew/common/rng.h"

namespace crew {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
}

// Textbook O(n*m) dynamic program, the definition the bit-parallel
// LevenshteinDistance must reproduce exactly.
int ReferenceLevenshtein(const std::string& a, const std::string& b) {
  std::vector<std::vector<int>> d(a.size() + 1,
                                  std::vector<int>(b.size() + 1, 0));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = static_cast<int>(i);
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
    }
  }
  return d[a.size()][b.size()];
}

// Random strings of length 0-80 over small alphabets (so edits align)
// and over all 256 byte values (bytes >= 0x80 catch signed-char
// indexing), with the word-size boundaries 63/64/65 on either side.
TEST(LevenshteinTest, BitParallelMatchesDynamicProgram) {
  Rng rng(2024);
  auto random_string = [&](int len, int alphabet) {
    std::string s;
    for (int i = 0; i < len; ++i) {
      s.push_back(alphabet == 256
                      ? static_cast<char>(rng.UniformInt(256))
                      : static_cast<char>('a' + rng.UniformInt(alphabet)));
    }
    return s;
  };
  const int boundary[] = {0, 1, 2, 31, 32, 33, 47, 48, 49, 63, 64, 65, 80};
  for (int trial = 0; trial < 3000; ++trial) {
    const int alphabet = trial % 3 == 0 ? 256 : (trial % 3 == 1 ? 2 : 5);
    const int la = trial % 4 == 0 ? boundary[rng.UniformInt(13)]
                                  : rng.UniformInt(0, 80);
    const int lb = trial % 5 == 0 ? boundary[rng.UniformInt(13)]
                                  : rng.UniformInt(0, 80);
    const std::string a = random_string(la, alphabet);
    std::string b = random_string(lb, alphabet);
    if (trial % 7 == 0) {  // a near-copy: few edits, long alignments
      b = a;
      for (int e = rng.UniformInt(0, 4); e > 0 && !b.empty(); --e) {
        b[rng.UniformInt(static_cast<int>(b.size()))] ^= 0x81;
      }
    }
    ASSERT_EQ(LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
        << "lengths " << a.size() << " and " << b.size();
  }
  for (int len : {63, 64, 65}) {
    const std::string a(len, '\xff');
    const std::string b = std::string(len - 1, '\xff') + '\x80';
    EXPECT_EQ(LevenshteinDistance(a, b), 1);
    EXPECT_EQ(LevenshteinDistance(a, ""), len);
    EXPECT_EQ(LevenshteinDistance(a, a + a), len);
  }
}

TEST(LevenshteinTest, SimilarityNormalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "abc"), 1.0);
  // Classic reference value: MARTHA / MARHTA = 0.9611.
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.8133, 1e-3);
}

TEST(TokenSetSimilarityTest, JaccardOverlapDice) {
  const std::vector<std::string> a = {"red", "wireless", "mouse"};
  const std::vector<std::string> b = {"wireless", "mouse", "pad", "pad"};
  EXPECT_NEAR(JaccardSimilarity(a, b), 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(OverlapCoefficient(a, b), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(DiceCoefficient(a, b), 2.0 * 2.0 / 6.0, 1e-12);
}

TEST(TokenSetSimilarityTest, EmptyConventions) {
  const std::vector<std::string> e;
  const std::vector<std::string> x = {"a"};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(e, e), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(e, x), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(e, e), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(e, x), 0.0);
  EXPECT_DOUBLE_EQ(DiceCoefficient(e, e), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity(e, x), 0.0);
}

TEST(MongeElkanTest, RewardsNearMatches) {
  const std::vector<std::string> a = {"jonathan", "smith"};
  const std::vector<std::string> exact = {"jonathan", "smith"};
  const std::vector<std::string> typo = {"jonathon", "smyth"};
  const std::vector<std::string> other = {"qqq", "zzz"};
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity(a, exact), 1.0);
  EXPECT_GT(MongeElkanSimilarity(a, typo), 0.8);
  EXPECT_GT(MongeElkanSimilarity(a, typo), MongeElkanSimilarity(a, other));
}

TEST(NumericSimilarityTest, RelativeDifference) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("100", "100"), 1.0);
  EXPECT_NEAR(NumericSimilarity("100", "50"), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(NumericSimilarity("0", "0"), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("-10", "10"), 0.0);  // clamped
}

TEST(NumericSimilarityTest, FallsBackToLevenshtein) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(NumericSimilarity("v100", "v200"),
              LevenshteinSimilarity("v100", "v200"), 1e-12);
}

// Property sweep: all similarities stay in [0,1] and are symmetric for
// random short strings.
class SimilarityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityPropertyTest, BoundedAndSymmetric) {
  Rng rng(GetParam());
  auto random_token = [&] {
    std::string s;
    const int len = rng.UniformInt(0, 8);
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.UniformInt(4)));
    }
    return s;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const std::string a = random_token(), b = random_token();
    for (double sim : {LevenshteinSimilarity(a, b),
                       JaroWinklerSimilarity(a, b), NumericSimilarity(a, b)}) {
      EXPECT_GE(sim, 0.0) << a << " vs " << b;
      EXPECT_LE(sim, 1.0) << a << " vs " << b;
    }
    EXPECT_DOUBLE_EQ(LevenshteinSimilarity(a, b), LevenshteinSimilarity(b, a));
    EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(a, b), JaroWinklerSimilarity(b, a));

    std::vector<std::string> ta, tb;
    for (int i = 0; i < 4; ++i) {
      ta.push_back(random_token());
      tb.push_back(random_token());
    }
    EXPECT_DOUBLE_EQ(JaccardSimilarity(ta, tb), JaccardSimilarity(tb, ta));
    EXPECT_DOUBLE_EQ(DiceCoefficient(ta, tb), DiceCoefficient(tb, ta));
    const double j = JaccardSimilarity(ta, tb);
    EXPECT_GE(j, 0.0);
    EXPECT_LE(j, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace crew
