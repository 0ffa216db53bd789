#include "crew/common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace crew {
namespace {

FlagParser Parse(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (auto& a : args) argv.push_back(a.data());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsForm) {
  auto flags = Parse({"--samples=128", "--name=crew"});
  EXPECT_TRUE(flags.status().ok());
  EXPECT_EQ(flags.GetInt("samples", 0), 128);
  EXPECT_EQ(flags.GetString("name", ""), "crew");
}

TEST(FlagsTest, SpaceSeparatedForm) {
  auto flags = Parse({"--samples", "64"});
  EXPECT_EQ(flags.GetInt("samples", 0), 64);
}

TEST(FlagsTest, BareFlagIsTrue) {
  auto flags = Parse({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("quiet"));
}

TEST(FlagsTest, DefaultsWhenAbsentOrMalformed) {
  auto flags = Parse({"--k=notanumber"});
  EXPECT_EQ(flags.GetInt("k", 9), 9);
  EXPECT_EQ(flags.GetInt("missing", 5), 5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
}

TEST(FlagsTest, BoolVariants) {
  auto flags = Parse({"--a=TRUE", "--b=0", "--c=yes", "--d=off"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_TRUE(flags.GetBool("d", true));  // unrecognized -> default
}

TEST(FlagsTest, Uint64) {
  auto flags = Parse({"--seed=18446744073709551615"});
  EXPECT_EQ(flags.GetUint64("seed", 0), 18446744073709551615ULL);
}

TEST(FlagsTest, PositionalArgumentIsError) {
  auto flags = Parse({"oops"});
  EXPECT_FALSE(flags.status().ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, DoubleValue) {
  auto flags = Parse({"--fraction=0.75"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("fraction", 0.0), 0.75);
}

TEST(FlagsTest, AllFlagsReadIsOk) {
  auto flags = Parse({"--samples=3", "--verbose", "--seed", "9"});
  flags.GetInt("samples", 0);
  flags.GetBool("verbose", false);
  flags.GetUint64("seed", 0);
  flags.GetString("absent", "");  // reading an absent flag is fine
  EXPECT_TRUE(flags.CheckAllRead().ok());
}

TEST(FlagsTest, UnreadFlagsAreErrorsThatListTheKnownOnes) {
  auto flags = Parse({"--thread", "4", "--samplez", "abc"});
  EXPECT_EQ(flags.GetInt("threads", 0), 0);
  EXPECT_EQ(flags.GetInt("samples", 96), 96);
  const Status status = flags.CheckAllRead();
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  const std::string& message = status.message();
  EXPECT_NE(message.find("unknown flag --thread"), std::string::npos);
  EXPECT_NE(message.find("unknown flag --samplez"), std::string::npos);
  EXPECT_NE(message.find("known flags: --samples --threads"),
            std::string::npos)
      << message;
}

TEST(FlagsTest, CheckRunsAfterLateReads) {
  // A binary reading its own flag after the shared ones (bench_f4's
  // --sweep) must not see it reported once it has been read.
  auto flags = Parse({"--samples=3", "--sweep=32,64"});
  flags.GetInt("samples", 0);
  EXPECT_FALSE(flags.CheckAllRead().ok());
  EXPECT_EQ(flags.GetString("sweep", ""), "32,64");
  EXPECT_TRUE(flags.CheckAllRead().ok());
}

TEST(FlagsTest, MalformedValuesAreErrors) {
  auto flags = Parse({"--matches", "abc", "--p=0.5x", "--b=off", "--s=-1",
                      "--e="});
  EXPECT_EQ(flags.GetInt("matches", 250), 250);
  EXPECT_DOUBLE_EQ(flags.GetDouble("p", 1.0), 1.0);
  EXPECT_TRUE(flags.GetBool("b", true));
  EXPECT_EQ(flags.GetUint64("s", 7), 7u);
  EXPECT_EQ(flags.GetUint64("e", 7), 7u);
  const Status status = flags.CheckAllRead();
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  for (const char* bad : {"--matches: 'abc'", "--p: '0.5x'", "--b: 'off'",
                          "--s: '-1'", "--e: ''"}) {
    EXPECT_NE(status.message().find(std::string("bad value for ") + bad),
              std::string::npos)
        << bad << " in " << status.message();
  }
}

}  // namespace
}  // namespace crew
