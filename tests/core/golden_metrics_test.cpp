// Golden-metrics regression: the paper's worked examples, planned live
// and diffed against a checked-in snapshot of (dilation, congestion,
// expansion_log2, plan string). Any planner change that silently
// degrades — or merely reshuffles — a Section 5 example shows up here as
// an exact-string diff.
#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "search/provider.hpp"

namespace hj {
namespace {

struct GoldenRow {
  Shape shape;
  u32 dilation;
  u32 congestion;
  u32 expansion_log2;  // host_dim - minimal_cube_dim; 0 = minimal cube
  u64 wirelength;      // total edge-path length of the chosen plan
  u64 wl_lb;           // cost-model wirelength lower bound for the cube
  const char* plan;
};

// Snapshot of the planner's output with the default search provider.
// 3x3x3 -> Q5 and 3x3x7 -> Q6 are the paper's direct tables; the other
// three are Section 5 worked examples solved by decomposition down to a
// base mesh from the committed search tables. The
// wirelength column pins the chosen paths, not just the plan tree, and
// the wl_lb column pins the cost model's bound (gap = wl / wl_lb).
const GoldenRow kGolden[] = {
    {Shape{3, 3, 3}, 2, 2, 0, 76, 55, "direct 3x3x3"},
    {Shape{3, 3, 7}, 2, 2, 0, 182, 139, "direct 3x3x7"},
    {Shape{5, 5, 8}, 2, 2, 0, 559, 496,
     "(gray 1x1x2 * (gray 1x1x2 * (gray 1x1x2 * search 5x5x1)))"},
    {Shape{6, 6, 17}, 2, 2, 0, 1632, 1597,
     "(gray 2x1x1 * (gray 3x1x1 * (gray 1x2x1 * search 1x3x17)))"},
    {Shape{9, 12, 21}, 2, 2, 0, 6606, 6256,
     "(gray 3x1x1 * (gray 3x1x1 * (gray 1x2x1 * (gray 1x2x1 * search "
     "1x3x21))))"},
};

TEST(GoldenMetrics, PaperWorkedExamplesAreStable) {
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  for (const GoldenRow& g : kGolden) {
    SCOPED_TRACE(g.shape.to_string());
    const PlanResult r = planner.plan(g.shape);
    ASSERT_TRUE(r.report.valid);
    EXPECT_EQ(r.report.dilation, g.dilation);
    EXPECT_EQ(r.report.congestion, g.congestion);
    EXPECT_EQ(r.report.host_dim - g.shape.minimal_cube_dim(),
              g.expansion_log2);
    EXPECT_EQ(r.report.wirelength, g.wirelength);
    EXPECT_EQ(r.report.bounds.wirelength, g.wl_lb);
    EXPECT_GE(cost::gap(static_cast<double>(r.report.wirelength),
                        static_cast<double>(r.report.bounds.wirelength)),
              1.0);
    EXPECT_EQ(r.plan, g.plan);
  }
}

TEST(GoldenMetrics, BatchPlannerAgreesWithSerialPlanner) {
  // plan_batch must certify the same metrics for the same shapes; the
  // plan string may gain a perm<> wrapper for non-sorted axis orders.
  std::vector<Shape> shapes;
  for (const GoldenRow& g : kGolden) shapes.push_back(g.shape);
  const std::vector<PlanResult> batch = plan_batch(
      shapes, {}, [] { return search::make_search_provider(); });
  ASSERT_EQ(batch.size(), std::size(kGolden));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(shapes[i].to_string());
    EXPECT_TRUE(batch[i].report.valid);
    EXPECT_EQ(batch[i].report.dilation, kGolden[i].dilation);
    EXPECT_EQ(batch[i].report.congestion, kGolden[i].congestion);
    EXPECT_EQ(batch[i].report.host_dim - shapes[i].minimal_cube_dim(),
              kGolden[i].expansion_log2);
    EXPECT_EQ(batch[i].embedding->guest().shape(), shapes[i]);
  }
}

}  // namespace
}  // namespace hj
