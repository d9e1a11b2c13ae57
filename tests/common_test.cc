#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace diva {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInfeasible), "Infeasible");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

Status ReturnIfErrorHelper(bool fail) {
  DIVA_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::OK());
  return Status::IoError("reached end");
}

Result<int> ParseCount(bool fail, int* calls) {
  ++*calls;
  if (fail) return Status::NotFound("no count");
  return 3;
}

Status ReturnIfErrorResultHelper(bool fail, int* calls) {
  DIVA_RETURN_IF_ERROR(ParseCount(fail, calls));
  return Status::IoError("reached end");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(ReturnIfErrorHelper(true).code(), StatusCode::kInternal);
  EXPECT_EQ(ReturnIfErrorHelper(false).code(), StatusCode::kIoError);

  // A Result<T> operand propagates its error Status and is evaluated
  // exactly once.
  int calls = 0;
  EXPECT_EQ(ReturnIfErrorResultHelper(true, &calls),
            Status::NotFound("no count"));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ReturnIfErrorResultHelper(false, &calls).code(),
            StatusCode::kIoError);
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

Result<int> AssignOrReturnHelper(bool fail) {
  Result<int> inner = fail ? Result<int>(Status::Internal("nope"))
                           : Result<int>(5);
  DIVA_ASSIGN_OR_RETURN(int v, std::move(inner));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = AssignOrReturnHelper(false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 10);
  auto err = AssignOrReturnHelper(true);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("single", ','), (std::vector<std::string>{"single"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64(" -7 "), -7);
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("3.5").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2e3 "), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, StartsWithAndLower) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_EQ(ToLowerAscii("MiXeD"), "mixed");
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfTest, UniformWhenSkewZero) {
  ZipfSampler sampler(10, 0.0);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.02);
  }
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  ZipfSampler sampler(100, 1.2);
  Rng rng(29);
  std::vector<int> counts(100, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], n / 10);  // rank 0 dominates
  // Frequencies are (statistically) non-increasing in rank: compare
  // decade sums to dodge noise.
  int first_decade = 0;
  int last_decade = 0;
  for (int i = 0; i < 10; ++i) first_decade += counts[i];
  for (int i = 90; i < 100; ++i) last_decade += counts[i];
  EXPECT_GT(first_decade, 10 * last_decade);
}

TEST(ZipfTest, SingletonDomain) {
  ZipfSampler sampler(1, 1.0);
  Rng rng(31);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

}  // namespace
}  // namespace diva
