// Unit tests for src/common: RNG determinism, Zipf sampling, table
// rendering, and the checked narrowing helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "common/types.h"

namespace agile {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 20}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.nextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowOneIsZero) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(RngTest, NextRangeInclusive) {
  Rng rng(11);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.nextRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoverage) {
  // Each of 16 buckets should receive roughly 1/16 of the samples.
  Rng rng(17);
  std::vector<int> hits(16, 0);
  const int n = 32000;
  for (int i = 0; i < n; ++i) ++hits[rng.nextBelow(16)];
  for (int h : hits) {
    EXPECT_GT(h, n / 16 / 2);
    EXPECT_LT(h, n / 16 * 2);
  }
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Rng rng(3);
  ZipfSampler zipf(100, 0.0);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf(rng)];
  auto [mn, mx] = std::minmax_element(hits.begin(), hits.end());
  EXPECT_GT(*mn, 500);
  EXPECT_LT(*mx, 2000);
}

TEST(ZipfTest, SkewConcentratesOnHead) {
  Rng rng(5);
  ZipfSampler zipf(1u << 20, 0.99);
  std::uint64_t headHits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (zipf(rng) < 1024) ++headHits;  // top 0.1% of ids
  }
  // Under uniform sampling head would get ~0.1%; Zipf(0.99) gives it a large
  // fraction.
  EXPECT_GT(headHits, static_cast<std::uint64_t>(n) / 4);
}

TEST(ZipfTest, SamplesInRange) {
  Rng rng(19);
  for (double theta : {0.0, 0.5, 0.9, 0.99, 1.0, 1.2}) {
    ZipfSampler zipf(777, theta);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(zipf(rng), 777u) << "theta=" << theta;
    }
  }
}

TEST(ZipfTest, RankFrequencyMonotonicHead) {
  Rng rng(23);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 200000; ++i) ++hits[zipf(rng)];
  // Rank-0 should dominate rank-10 which dominates rank-100.
  EXPECT_GT(hits[0], hits[10]);
  EXPECT_GT(hits[10], hits[100]);
}

TEST(PermutationTest, IsAPermutation) {
  Rng rng(29);
  auto p = randomPermutation(257, rng);
  std::vector<bool> seen(257, false);
  for (auto v : p) {
    ASSERT_LT(v, 257u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.addRow({"alpha", "1.00"});
  t.addRow({"b", "23.50"});
  auto s = t.render();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("23.50"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(TablePrinter::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmtGiBps(3.7e9), "3.70");
}

TEST(TypesTest, Literals) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(2_ms, 2000000);
  EXPECT_EQ(1_s, 1000000000);
}

TEST(TypesTest, CeilDivAndPow2) {
  EXPECT_EQ(ceilDiv(10, 3), 4);
  EXPECT_EQ(ceilDiv(9, 3), 3);
  EXPECT_EQ(ceilDiv(1, 32), 1);
  EXPECT_TRUE(isPowerOfTwo(64));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(TypesTest, NarrowCastPreservesValue) {
  EXPECT_EQ(narrowCast<std::uint16_t>(65535u), 65535u);
  EXPECT_EQ(narrowCast<std::int8_t>(-7), -7);
}

}  // namespace
}  // namespace agile
