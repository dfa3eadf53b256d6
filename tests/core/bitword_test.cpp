// Property tests for BitwordSet, the packed-u64 membership type behind
// the verifier's injectivity sweep, the planner's fault-avoidance node
// marking and the simulator's done/failed tracking. The workhorse drives
// BitwordSet and a std::set<u32> oracle through the same seeded random
// operation sequences — including 2^14-bit universes, the storm-cell
// size from E20 — and checks that membership, count and iteration agree
// after every step.
#include "core/bitword.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>
#include <vector>

namespace hj {
namespace {

// --- Targeted unit tests ----------------------------------------------------

TEST(Bitword, StartsEmpty) {
  BitwordSet s(130);
  EXPECT_EQ(s.size(), 130u);
  EXPECT_EQ(s.words(), 3u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.none());
  EXPECT_FALSE(s.any());
  for (u64 i = 0; i < s.size(); ++i) EXPECT_FALSE(s.test(i));
}

TEST(Bitword, SetClearTestRoundTrip) {
  BitwordSet s(200);
  // Word-boundary indices are the interesting ones.
  for (u64 i : {u64{0}, u64{1}, u64{63}, u64{64}, u64{127}, u64{128},
                u64{199}}) {
    EXPECT_FALSE(s.test(i));
    s.set(i);
    EXPECT_TRUE(s.test(i));
    s.clear(i);
    EXPECT_FALSE(s.test(i));
  }
  EXPECT_TRUE(s.none());
}

TEST(Bitword, TestAndSetReportsPriorState) {
  BitwordSet s(64);
  EXPECT_FALSE(s.test_and_set(17));
  EXPECT_TRUE(s.test_and_set(17));  // the injectivity-collision signal
  EXPECT_TRUE(s.test(17));
  EXPECT_EQ(s.count(), 1u);
}

TEST(Bitword, ForEachSetVisitsAscending) {
  BitwordSet s(300);
  const std::vector<u64> want = {0, 5, 63, 64, 65, 128, 255, 299};
  for (u64 i : want) s.set(i);
  std::vector<u64> got;
  s.for_each_set([&](u64 i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(Bitword, ResetZeroesEverything) {
  BitwordSet s(1000);
  for (u64 i = 0; i < 1000; i += 7) s.set(i);
  ASSERT_GT(s.count(), 0u);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.none());
}

TEST(Bitword, ShrinkThenGrowCannotResurrectStaleBits) {
  BitwordSet s(256);
  for (u64 i = 0; i < 256; ++i) s.set(i);
  // Shrink to a non-word-aligned size: bits 100..255 leave the universe,
  // including the tail of word 1 and whole words 2-3.
  s.resize(100);
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(s.count(), 100u);
  s.resize(256);
  EXPECT_EQ(s.count(), 100u);
  for (u64 i = 100; i < 256; ++i)
    EXPECT_FALSE(s.test(i)) << "stale bit " << i << " survived shrink/grow";
}

TEST(Bitword, EqualityComparesSizeAndBits) {
  BitwordSet a(70), b(70);
  EXPECT_EQ(a, b);
  a.set(69);
  EXPECT_FALSE(a == b);
  b.set(69);
  EXPECT_EQ(a, b);
  BitwordSet c(71);
  c.set(69);
  EXPECT_FALSE(a == c);  // same words, different universe
}

// --- Oracle property tests --------------------------------------------------

// One randomized episode: apply the same op sequence to a BitwordSet and
// a std::set<u32>, checking full agreement at the end and spot agreement
// along the way.
void run_episode(u64 seed) {
  std::mt19937_64 rng(seed);
  // Mix tiny universes (word-boundary edge cases) with the 2^14-node
  // storm-cell size the type was built for.
  static constexpr u64 kSizes[] = {1, 63, 64, 65, 1000, u64{1} << 14};
  const u64 size = kSizes[rng() % std::size(kSizes)];
  BitwordSet set(size);
  std::set<u32> oracle;
  std::uniform_int_distribution<u64> index(0, size - 1);

  const u32 ops = 200 + static_cast<u32>(rng() % 300);
  for (u32 op = 0; op < ops; ++op) {
    const u64 i = index(rng);
    switch (rng() % 5) {
      case 0:
        set.set(i);
        oracle.insert(static_cast<u32>(i));
        break;
      case 1:
        set.clear(i);
        oracle.erase(static_cast<u32>(i));
        break;
      case 2: {
        const bool was = set.test_and_set(i);
        const bool oracle_was =
            !oracle.insert(static_cast<u32>(i)).second;
        ASSERT_EQ(was, oracle_was) << "test_and_set(" << i << ")";
        break;
      }
      case 3:
        ASSERT_EQ(set.test(i), oracle.count(static_cast<u32>(i)) != 0)
            << "test(" << i << ")";
        break;
      default:
        ASSERT_EQ(set.count(), oracle.size());
        ASSERT_EQ(set.none(), oracle.empty());
        ASSERT_EQ(set.any(), !oracle.empty());
        break;
    }
  }

  // Full-state agreement: iteration yields exactly the oracle, in order.
  std::vector<u32> got;
  set.for_each_set([&](u64 i) { got.push_back(static_cast<u32>(i)); });
  ASSERT_EQ(got, std::vector<u32>(oracle.begin(), oracle.end()));
  ASSERT_EQ(set.count(), oracle.size());

  // Occasionally shrink-and-regrow mid-life and re-check: resize must
  // drop exactly the out-of-range members and nothing else.
  if (size > 1 && rng() % 2 == 0) {
    const u64 cut = 1 + index(rng) % (size - 1);
    set.resize(cut);
    while (!oracle.empty() && *oracle.rbegin() >= cut)
      oracle.erase(std::prev(oracle.end()));
    set.resize(size);
    got.clear();
    set.for_each_set([&](u64 i) { got.push_back(static_cast<u32>(i)); });
    ASSERT_EQ(got, std::vector<u32>(oracle.begin(), oracle.end()))
        << "after resize to " << cut << " and back";
  }
}

TEST(Bitword, AgreesWithSetOracleOver200SeededEpisodes) {
  for (u64 seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE("episode seed " + std::to_string(seed));
    run_episode(0x5eed0000 + seed);
    if (HasFatalFailure()) return;
  }
}

TEST(Bitword, DensePopulationAtStormCellSize) {
  // All 2^14 bits on: count and iteration at the size run() sees for the
  // largest E20 storm hosts.
  const u64 n = u64{1} << 14;
  BitwordSet s(n);
  for (u64 i = 0; i < n; ++i) EXPECT_FALSE(s.test_and_set(i));
  EXPECT_EQ(s.count(), n);
  u64 expect = 0;
  s.for_each_set([&](u64 i) {
    ASSERT_EQ(i, expect);
    ++expect;
  });
  EXPECT_EQ(expect, n);
}

// --- masks_of_weight --------------------------------------------------------

TEST(MasksOfWeight, LexicographicInBitPositions) {
  // {0,1} {0,2} {0,3} {1,2} {1,3} {2,3}: not numeric order (6 < 9).
  const std::vector<u64> want = {0x3, 0x5, 0x9, 0x6, 0xa, 0xc};
  EXPECT_EQ(masks_of_weight(4, 2), want);
  EXPECT_EQ(masks_of_weight(3, 1), (std::vector<u64>{1, 2, 4}));
  EXPECT_EQ(masks_of_weight(3, 3), (std::vector<u64>{7}));
}

TEST(MasksOfWeight, CountsAndEdgeCases) {
  EXPECT_EQ(masks_of_weight(5, 0), (std::vector<u64>{0}));
  EXPECT_EQ(masks_of_weight(0, 0), (std::vector<u64>{0}));
  EXPECT_TRUE(masks_of_weight(3, 4).empty());
  EXPECT_TRUE(masks_of_weight(0, 1).empty());
  u64 binom[13][13] = {};
  for (u32 n = 0; n <= 12; ++n) {
    binom[n][0] = 1;
    for (u32 k = 1; k <= n; ++k)
      binom[n][k] = binom[n - 1][k - 1] + (k < n ? binom[n - 1][k] : 0);
  }
  for (u32 n = 0; n <= 12; ++n) {
    for (u32 k = 0; k <= n; ++k) {
      const std::vector<u64> masks = masks_of_weight(n, k);
      EXPECT_EQ(masks.size(), binom[n][k]) << n << " choose " << k;
      std::set<u64> distinct(masks.begin(), masks.end());
      EXPECT_EQ(distinct.size(), masks.size());
      for (const u64 m : masks) {
        EXPECT_EQ(std::popcount(m), static_cast<int>(k));
        EXPECT_LT(m, u64{1} << n);
      }
    }
  }
  // Top bit of a 63-bit universe.
  EXPECT_EQ(masks_of_weight(63, 1).back(), u64{1} << 62);
}

}  // namespace
}  // namespace hj
