#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "util/args.h"
#include "util/diagnostics.h"
#include "util/fenwick.h"
#include "util/rng.h"
#include "util/table.h"

namespace salsa {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform(13);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 13);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(5);
  const double w[] = {0.0, 1.0, 0.0, 2.0};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_GT(counts[3], counts[1]);  // weight 2 vs 1
}

TEST(Rng, WeightedAllZeroThrows) {
  Rng rng(5);
  const double w[] = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(w), Error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Diagnostics, CheckFailureThrowsWithLocation) {
  try {
    SALSA_CHECK_MSG(false, "context message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("context message"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Diagnostics, FailThrows) { EXPECT_THROW(fail("boom"), Error); }

// Fenwick::select maps every Fenwick-backed candidate draw of the move
// proposers: each rank k in [0, total) must land on the item whose
// cumulative range holds it, with k's offset inside that item as the
// remainder — checked against a linear prefix scan over counts that
// include zeros (items no rank may land on).
TEST(Fenwick, SelectMatchesLinearPrefixScan) {
  Rng rng(31);
  for (const int n : {1, 2, 3, 7, 8, 9, 33}) {
    Fenwick fw;
    fw.reset(n);
    std::vector<int> counts(static_cast<size_t>(n), 0);
    for (int round = 0; round < 40; ++round) {
      const int i = rng.uniform(n);
      // Mostly grow, sometimes drain an item back to zero.
      const int delta = rng.chance(0.25) ? -counts[static_cast<size_t>(i)]
                                         : rng.uniform(4);
      fw.add(i, delta);
      counts[static_cast<size_t>(i)] += delta;
      int total = 0;
      for (const int c : counts) total += c;
      ASSERT_EQ(fw.total(), total);
      int item = 0, below = 0;
      for (int k = 0; k < total; ++k) {
        while (k >= below + counts[static_cast<size_t>(item)])
          below += counts[static_cast<size_t>(item++)];
        int rem = -1;
        ASSERT_EQ(fw.select(k, &rem), item)
            << "n=" << n << " round=" << round << " k=" << k;
        ASSERT_EQ(rem, k - below)
            << "n=" << n << " round=" << round << " k=" << k;
      }
    }
  }
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| name   |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22"), std::string::npos);
}

TEST(TextTable, SeparatorAndShortRows) {
  TextTable t;
  t.header({"a", "b", "c"});
  t.row({"x"});  // short row padded
  t.separator();
  const std::string s = t.render();
  EXPECT_NE(s.find("+"), std::string::npos);
}

TEST(Fmt, Precision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Args, ParseIntTakesOnlyWholeInRangeIntegers) {
  EXPECT_EQ(parse_int("--n", "42", 1, 100), 42);
  EXPECT_EQ(parse_int("--n", "-3", -5, 5), -3);
  for (const char* bad : {"", "abc", "12x", " 7", "0", "101",
                          "99999999999999999999"}) {
    try {
      parse_int("--n", bad, 1, 100);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--n expects an integer in [1, 100], got '") +
                    bad + "'");
    }
  }
}

TEST(Args, FlagValuesAdvanceAndRejectMissingOrJunk) {
  char prog[] = "tool", n[] = "--n", v[] = "7", p[] = "--p", pv[] = "0.25";
  {
    char* argv[] = {prog, n, v, p, pv};
    int i = 1;
    EXPECT_EQ(int_flag(5, argv, &i, 1, 10), 7);
    EXPECT_EQ(i, 2);
    i = 3;
    EXPECT_EQ(real_flag(5, argv, &i, 0.0, 1.0), 0.25);
  }
  {
    char* argv[] = {prog, n};
    int i = 1;
    EXPECT_THROW(flag_value(2, argv, &i), Error);
  }
  {
    char* argv[] = {prog, p, v};
    int i = 1;
    EXPECT_THROW(real_flag(3, argv, &i, 0.0, 1.0), Error);
  }
}

}  // namespace
}  // namespace salsa
