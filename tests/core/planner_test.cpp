// Tests for the embedding planner (Section 4.2 strategy).
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "plan_digest.hpp"
#include "search/provider.hpp"
#include "store/precompute.hpp"

namespace hj {
namespace {

Planner make_planner(bool with_search = true) {
  Planner p;
  if (with_search) p.set_direct_provider(search::make_search_provider());
  return p;
}

TEST(PlannerGate, CanonicalShapesKeepCubeAndDilationWithoutLiveSearch) {
  // Decomposition comes before search, and the committed search tables
  // answer every base mesh left over: each canonical mesh keeps the
  // (cube, dilation) recorded when the planner searched first, and the
  // live provider is never asked.
  std::ifstream in(HJ_GATE_FILE);
  ASSERT_TRUE(in) << HJ_GATE_FILE;
  // The gate file lists these in order: rank 1, then 2, then 3, each
  // lexicographic in sorted extents.
  const std::vector<Shape> shapes = store::enumerate_canonical_shapes(512, 3);
  ASSERT_EQ(shapes.size(), 4672u);

  const DirectProvider search = search::make_search_provider();
  u64 live_calls = 0;
  Planner p;
  p.set_direct_provider([&](const Mesh& guest, u32 host_dim) {
    ++live_calls;
    return search(guest, host_dim);
  });
  std::size_t i = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string shape;
    u32 cube = 0, dil = 0;
    ASSERT_TRUE(row >> shape >> cube >> dil) << line;
    ASSERT_LT(i, shapes.size()) << "extra row " << line;
    const Shape& s = shapes[i++];
    ASSERT_EQ(shape, s.to_string());
    const PlanResult r = p.plan(s);
    EXPECT_TRUE(r.report.valid) << shape;
    EXPECT_EQ(r.report.host_dim, cube) << shape << ": " << r.plan;
    EXPECT_EQ(r.report.dilation, dil) << shape << ": " << r.plan;
  }
  EXPECT_EQ(i, shapes.size());
  EXPECT_EQ(live_calls, 0u);
}

TEST(Planner, GrayWhenAlreadyMinimal) {
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{4, 8, 2});
  EXPECT_TRUE(r.report.valid);
  EXPECT_EQ(r.report.dilation, 1u);
  EXPECT_TRUE(r.report.minimal_expansion);
  EXPECT_NE(r.plan.find("gray"), std::string::npos);
}

TEST(Planner, DirectTableShapes) {
  Planner p = make_planner(false);
  for (Shape s : {Shape{3, 5}, Shape{7, 9}, Shape{3, 3, 7}}) {
    PlanResult r = p.plan(s);
    EXPECT_TRUE(r.report.valid);
    EXPECT_TRUE(r.report.minimal_expansion) << s.to_string();
    EXPECT_LE(r.report.dilation, 2u);
    EXPECT_NE(r.plan.find("direct"), std::string::npos);
  }
}

TEST(Planner, DecompositionExample12x20) {
  // Section 4.2: 12 x 20 reduces to (3x5) x (4x4).
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{12, 20});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.minimal_expansion);  // 240 nodes in Q8
  EXPECT_LE(r.report.dilation, 2u);
  EXPECT_LE(r.report.congestion, 2u);
}

TEST(Planner, DecompositionExample3x25x3) {
  // Section 4.2: 3 x 25 x 3 reduces to two 3x5 embeddings: 225 -> Q8.
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{3, 25, 3});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.minimal_expansion);
  EXPECT_LE(r.report.dilation, 2u);
}

TEST(Planner, ExtensionExample3x3x23) {
  // Section 4.2 strategy 3: 3x3x23 extends to 3x3x25.
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{3, 3, 23});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.minimal_expansion);  // 207 nodes in Q8
  EXPECT_LE(r.report.dilation, 2u);
  EXPECT_NE(r.plan.find("sub<3x3x23>"), std::string::npos);
}

TEST(Planner, PaperExample21x9x5) {
  // Section 4.2: 21x9x5 via (7x9x1) x (3x1x5): 945 nodes in Q10.
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{21, 9, 5});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.minimal_expansion);
  EXPECT_LE(r.report.dilation, 2u);
  EXPECT_LE(r.report.congestion, 2u);
}

TEST(Planner, PatternExtension6x6x11) {
  // 6x6x11 is reachable only by extending every axis to the 3*2^a form
  // (Figure 2 method 3): 6x6x12 = (2x2x4 gray) x (3x3x3 direct).
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{6, 6, 11});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.minimal_expansion);  // 396 nodes in Q9
  EXPECT_LE(r.report.dilation, 2u);
}

TEST(Planner, ExtensionUnlocks5x5WithoutSearch) {
  // 5x5 rides inside 6x5 = (2x1 gray) * (3x5 direct): minimal Q5,
  // dilation 2 — the planner finds this without any searcher attached.
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{5, 5});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.minimal_expansion);
  EXPECT_LE(r.report.dilation, 2u);
}

TEST(Planner, SearchProviderUnlocks5x5x5) {
  // 5x5x5 is the paper's open shape: no method of Section 5 reaches it,
  // and neither does the planner without a searcher. Backtracking finds a
  // dilation-2 witness in Q7 (resolving the paper's open question).
  Planner without = make_planner(false);
  const VerifyReport w = without.plan(Shape{5, 5, 5}).report;
  EXPECT_FALSE(w.minimal_expansion && w.dilation <= 2);
  Planner with = make_planner(true);
  PlanResult r = with.plan(Shape{5, 5, 5});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.minimal_expansion);
  EXPECT_LE(r.report.dilation, 2u);
  EXPECT_NE(r.plan.find("search"), std::string::npos);
}

TEST(Planner, FallbackIsStillValid) {
  // 13x19 = 247: prime axes, no extension fits, search skipped (too big
  // with the default provider cap): planner falls back to Gray.
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{13, 19});
  EXPECT_TRUE(r.report.valid);
  EXPECT_FALSE(r.report.minimal_expansion);
  EXPECT_EQ(r.report.dilation, 1u);
  EXPECT_DOUBLE_EQ(r.report.expansion, 512.0 / 247.0);
}

TEST(Planner, NeverExceedsDilationTwo) {
  Planner p = make_planner(false);
  for (u64 a = 1; a <= 9; ++a) {
    for (u64 b = a; b <= 9; ++b) {
      PlanResult r = p.plan(Shape{a, b});
      EXPECT_TRUE(r.report.valid) << a << "x" << b;
      EXPECT_LE(r.report.dilation, 2u) << a << "x" << b;
    }
  }
}

TEST(Planner, MemoizationIsConsistent) {
  Planner p = make_planner(false);
  PlanResult r1 = p.plan(Shape{12, 20});
  PlanResult r2 = p.plan(Shape{12, 20});
  EXPECT_EQ(r1.report.dilation, r2.report.dilation);
  EXPECT_EQ(r1.report.host_dim, r2.report.host_dim);
  EXPECT_EQ(r1.plan, r2.plan);
}

TEST(Planner, OneDimensionalAlwaysMinimal) {
  Planner p = make_planner(false);
  for (u64 l : {u64{1}, u64{2}, u64{3}, u64{7}, u64{100}, u64{511}}) {
    PlanResult r = p.plan(Shape{l});
    EXPECT_TRUE(r.report.minimal_expansion) << l;
    EXPECT_LE(r.report.dilation, 1u);
  }
}

TEST(Planner, SinglePointMesh) {
  Planner p = make_planner(false);
  PlanResult r = p.plan(Shape{1, 1, 1});
  EXPECT_TRUE(r.report.valid);
  EXPECT_EQ(r.report.host_dim, 0u);
}

TEST(PlanAvoiding, PlanStringEmbedsThePlainPlanUnderEveryObjective) {
  // A faulted plan wraps the fault-free plan string — the " [obj=...]"
  // suffix of a non-default objective included — in its remap/detour
  // tags, byte for byte.
  for (const Shape& shape : {Shape{3, 3, 7}, Shape{6, 6, 10}}) {
    for (u32 o = 0; o < cost::kNumObjectives; ++o) {
      PlannerOptions opts;
      opts.objective = static_cast<cost::Objective>(o);
      Planner planner(opts);
      planner.set_direct_provider(search::make_search_provider());
      const PlanResult plain = planner.plan(shape);
      if (opts.objective != cost::Objective::Lexicographic) {
        EXPECT_NE(plain.plan.find(" [obj="), std::string::npos) << plain.plan;
      }
      const CubeNode a = plain.embedding->map(0);
      FaultSet dead_node, dead_link;
      dead_node.fail_node(a);
      dead_link.fail_link(a, plain.embedding->map(1));
      for (const FaultSet* faults : {&dead_node, &dead_link}) {
        const PlanResult r = planner.plan_avoiding(shape, *faults);
        const std::string what = shape.to_string() + " " +
                                 cost::objective_name(opts.objective) +
                                 ": " + r.plan;
        ASSERT_TRUE(r.report.valid) << what;
        ASSERT_TRUE(r.report.fault_free) << what;
        EXPECT_TRUE(r.plan.starts_with("remap[") ||
                    r.plan.starts_with("detour["))
            << what;
        const std::size_t at = r.plan.find(plain.plan);
        ASSERT_NE(at, std::string::npos) << what << " vs " << plain.plan;
        const std::string head = r.plan.substr(0, at);
        const auto wrappers = static_cast<std::size_t>(
            std::count(head.begin(), head.end(), '('));
        EXPECT_EQ(r.plan.substr(at + plain.plan.size()),
                  std::string(wrappers, ')'))
            << what;
      }
    }
  }
}

/// A batch of the E17 distribution (bench/perf_parallel): rank 1-3,
/// axes 2..32.
std::vector<Shape> e17_batch(u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<u64> axis(2, 32);
  std::uniform_int_distribution<u32> rank(1, 3);
  std::vector<Shape> shapes;
  for (int i = 0; i < 2000; ++i) {
    SmallVec<u64, 4> ext;
    const u32 k = rank(rng);
    for (u32 d = 0; d < k; ++d) ext.push_back(axis(rng));
    shapes.push_back(Shape{ext});
  }
  return shapes;
}

TEST(Planner, PlanDigestIsPinned) {
  // The planner's search may only get faster: pin the plan string and
  // the whole certificate of 20 E17 batches (no provider, as perfbench's
  // plan_batch plans them), of the 4672 canonical shapes of at most 512
  // nodes without and with the search provider and under each measuring
  // objective, and of E21's 13 shapes under every objective. A search
  // change that moves any plan or any report field changes the digest.
  PlanDigest d;
  u64 entries = 0;
  for (u64 b = 0; b < 20; ++b) {
    ShardedPlanCache cache;
    for (const PlanResult& p : plan_batch(e17_batch(0xE17 + b), {}, nullptr,
                                          &cache))
      d.plan(p);
    if (b == 0) entries = cache.size();
  }
  const std::vector<Shape> canonical =
      store::enumerate_canonical_shapes(512, 3);
  ASSERT_EQ(canonical.size(), 4672u);
  for (const bool with_search : {false, true}) {
    Planner p = make_planner(with_search);
    for (const Shape& s : canonical) d.plan(p.plan(s));
  }
  // A measuring objective builds cube ties (and certifies each), so its
  // search may skip less: an extension scan cut at the minimal cube
  // moves 3x69 under the dilation objective, for one.
  for (u32 o = 1; o < cost::kNumObjectives; ++o) {
    PlannerOptions opts;
    opts.objective = static_cast<cost::Objective>(o);
    Planner p(opts);
    p.set_direct_provider(search::make_search_provider());
    for (const Shape& s : canonical) d.plan(p.plan(s));
  }
  const Shape e21[] = {
      Shape{3, 3, 3},  Shape{3, 3, 7},   Shape{5, 5, 8},  Shape{5, 6, 6},
      Shape{6, 6, 10}, Shape{3, 5, 12},  Shape{6, 6, 17}, Shape{9, 12, 21},
      Shape{6, 6, 8},  Shape{3, 6, 14},  Shape{6, 12, 7}, Shape{5, 5, 12},
      Shape{6, 10, 10}};
  for (u32 o = 0; o < cost::kNumObjectives; ++o) {
    PlannerOptions opts;
    opts.objective = static_cast<cost::Objective>(o);
    Planner p(opts);
    p.set_direct_provider(search::make_search_provider());
    for (const Shape& s : e21) d.plan(p.plan(s));
  }
  std::printf("plan digest: 0x%016llx, first batch cache entries: %llu\n",
              static_cast<unsigned long long>(d.h),
              static_cast<unsigned long long>(entries));
  EXPECT_EQ(d.h, 0x6b218fe201d63ed4ull);
  // The number of sub-plans the first batch plans: a pure function of
  // the batch at any HJ_THREADS (a cache hit means the whole sub-search
  // under it ran once already). Without the search's cube cuts it is
  // 14163.
  EXPECT_EQ(entries, 4892u);
}

TEST(Planner, CertifyWalksNoTableLeafOfAnE17Batch) {
  // Every non-Gray leaf of a no-provider plan is a paper table or a
  // relabel of one, and certify() folds it from the leaf stored with the
  // table: a batch reads leaves, and walks none.
  const bool was_on = obs::enabled();
  obs::set_enabled(true);
  auto& reg = obs::Registry::global();
  const obs::Counter& stored =
      reg.counter("certify.leaf.stored", obs::Kind::Timing);
  const obs::Counter& walked =
      reg.counter("certify.leaf.walked", obs::Kind::Timing);
  const u64 stored0 = stored.value();
  const u64 walked0 = walked.value();
  (void)plan_batch(e17_batch(0xE17));
  obs::set_enabled(was_on);
  EXPECT_GT(stored.value() - stored0, 0u);
  EXPECT_EQ(walked.value() - walked0, 0u);
}

class PlannerCoverage : public ::testing::TestWithParam<Shape> {};

// Shapes the paper's Section 5 pipeline must reach with dilation 2 at
// minimal expansion, each through a different strategy mix.
TEST_P(PlannerCoverage, MinimalDilationTwo) {
  static Planner p = make_planner(true);
  PlanResult r = p.plan(GetParam());
  EXPECT_TRUE(r.report.valid) << r.plan;
  EXPECT_TRUE(r.report.minimal_expansion)
      << GetParam().to_string() << " plan: " << r.plan;
  EXPECT_LE(r.report.dilation, 2u) << r.plan;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerCoverage,
    ::testing::Values(Shape{6, 10}, Shape{3, 21}, Shape{14, 18},
                      Shape{3, 5, 6}, Shape{12, 16, 20}, Shape{9, 15, 1},
                      Shape{5, 10, 11}, Shape{6, 6, 6}, Shape{10, 14, 18},
                      Shape{3, 3, 21}),
    [](const auto& param_info) {
      std::string s = param_info.param.to_string();
      for (auto& ch : s)
        if (ch == 'x') ch = '_';
      return s;
    });

}  // namespace
}  // namespace hj
