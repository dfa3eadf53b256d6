// Property-based harness: a seeded shape generator drives the planner
// over hundreds of random 1D-3D meshes and checks every certified report
// against the paper's closed-form invariants — Theorem 3 / Corollaries
// 1-2 for product plans, and the Rajan-style dilation lower bound
// (dilation >= 1, with dilation 1 at minimal expansion possible exactly
// when Gray code already reaches the minimal cube).
#include <gtest/gtest.h>

#include "core/coverage.hpp"
#include "core/planner.hpp"
#include "core/product.hpp"
#include "property_shapes.hpp"
#include "search/provider.hpp"

namespace hj {
namespace {

using property::kMaxNodes;
using property::kSeed;
using property::kShapes;
using property::random_shape;

TEST(PlannerProperty, RandomShapesSatisfyPaperInvariants) {
  std::mt19937_64 rng(kSeed);
  Planner planner;
  planner.set_direct_provider(search::make_search_provider(100'000));

  int minimal_hits = 0;
  for (int t = 0; t < kShapes; ++t) {
    const Shape s = random_shape(rng, 1, 3);
    SCOPED_TRACE("shape " + s.to_string());
    const PlanResult r = planner.plan(s);
    const VerifyReport& rep = r.report;

    ASSERT_TRUE(rep.valid) << r.plan;
    EXPECT_EQ(rep.guest_nodes, s.num_nodes());

    // Every library construction is dilation <= 2 (Gray leaves are 1,
    // tables/search are 2, products and submeshes preserve the max).
    EXPECT_LE(rep.dilation, 2u) << r.plan;

    // Expansion is exactly |V(H)| / |V(G)|, and the host never exceeds
    // the per-axis Gray rounding (the planner's universal fallback).
    EXPECT_EQ(rep.expansion,
              static_cast<double>(u64{1} << rep.host_dim) /
                  static_cast<double>(s.num_nodes()));
    EXPECT_GE(rep.host_dim, s.minimal_cube_dim());
    EXPECT_LE(rep.host_dim, s.gray_cube_dim());

    // Rajan-style lower bound: any embedding of a mesh with at least one
    // edge has dilation >= 1, and a *minimal-expansion* dilation-1 (i.e.
    // subgraph) embedding is constructed exactly when Gray code is
    // already minimal (gray_excess_log2 == 0).
    if (rep.guest_edges > 0) {
      EXPECT_GE(rep.dilation, 1u);
      EXPECT_GE(rep.avg_dilation, 1.0);
      EXPECT_LE(rep.avg_dilation, static_cast<double>(rep.dilation));
      EXPECT_GE(rep.congestion, 1u);
    }
    if (coverage::gray_excess_log2(s) == 0) {
      EXPECT_TRUE(rep.minimal_expansion) << r.plan;
      EXPECT_LE(rep.dilation, 1u) << r.plan;
    } else if (rep.minimal_expansion && s.num_nodes() > 1) {
      EXPECT_EQ(rep.dilation, 2u)
          << "dilation-1 minimal embedding of a mesh whose Gray rounding "
             "overflows the minimal cube would be a subgraph that cannot "
             "exist: " << r.plan;
    }

    // Histogram bookkeeping: dilation bins cover every guest edge.
    u64 edges_binned = 0;
    for (u64 c : rep.dilation_histogram) edges_binned += c;
    EXPECT_EQ(edges_binned, rep.guest_edges);

    // Wirelength double-counting identity: total edge-path length equals
    // both Sum d * dil_hist[d] (guest-side) and Sum c * cong_hist[c]
    // (host-side link loads) — the same links counted from either end.
    u64 wl_guest = 0;
    for (std::size_t d = 0; d < rep.dilation_histogram.size(); ++d)
      wl_guest += d * rep.dilation_histogram[d];
    u64 wl_host = 0;
    for (std::size_t c = 0; c < rep.congestion_histogram.size(); ++c)
      wl_host += c * rep.congestion_histogram[c];
    EXPECT_EQ(rep.wirelength, wl_guest) << r.plan;
    EXPECT_EQ(rep.wirelength, wl_host) << r.plan;

    // Every cost-model lower bound must be dominated by the measured
    // metric it bounds — a bound above its value would refute the model.
    EXPECT_LE(rep.bounds.host_dim, rep.host_dim) << r.plan;
    EXPECT_LE(rep.bounds.dilation, rep.dilation) << r.plan;
    EXPECT_LE(rep.bounds.wirelength, rep.wirelength) << r.plan;
    EXPECT_LE(rep.bounds.congestion, rep.congestion) << r.plan;
    EXPECT_LE(rep.bounds.load, rep.load_factor) << r.plan;

    if (rep.minimal_expansion) ++minimal_hits;
  }
  // The generator leans on coverable families; most shapes should reach
  // the minimal cube (Figure 2's 96.1% is the 3D-by-512^3 analogue).
  EXPECT_GE(minimal_hits, kShapes / 2);
}

TEST(PlannerProperty, ProductPlansComposeMetricsPerTheorem3) {
  // Corollary 2: embedding factors M1 -> Q_n1, M2 -> Q_n2 yields
  // M1*M2 -> Q_{n1+n2} with dilation max(d1, d2), congestion
  // max(c1, c2) and expansion e1 * e2. Verify the composed product
  // measures exactly that, for random planned factors.
  std::mt19937_64 rng(kSeed ^ 0xBEEF);
  Planner planner;

  for (int t = 0; t < 200; ++t) {
    const u32 rank = 1 + static_cast<u32>(rng() % 3);
    Shape s1{1}, s2{1};
    u64 nodes = 0;
    do {
      s1 = random_shape(rng, rank, rank);
      s2 = random_shape(rng, rank, rank);
      nodes = s1.num_nodes() * s2.num_nodes();
    } while (nodes > kMaxNodes || nodes < 2);
    SCOPED_TRACE("factors " + s1.to_string() + " and " + s2.to_string());

    const PlanResult r1 = planner.plan(s1);
    const PlanResult r2 = planner.plan(s2);
    // The planner's convention: the lower-dilation factor goes inner.
    const bool first_inner = r1.report.dilation <= r2.report.dilation;
    const PlanResult& inner = first_inner ? r1 : r2;
    const PlanResult& outer = first_inner ? r2 : r1;
    const MeshProductEmbedding product(inner.embedding, outer.embedding);
    const VerifyReport rep = verify(product);

    ASSERT_TRUE(rep.valid);
    EXPECT_EQ(rep.host_dim, r1.report.host_dim + r2.report.host_dim);
    // e1 * e2 rounds differently than 2^(n1+n2) / (g1 * g2); the values
    // agree to the ULP, not bitwise.
    EXPECT_DOUBLE_EQ(rep.expansion,
                     r1.report.expansion * r2.report.expansion);
    EXPECT_EQ(rep.dilation,
              std::max(r1.report.dilation, r2.report.dilation));
    EXPECT_LE(rep.congestion,
              std::max(r1.report.congestion, r2.report.congestion));
    // The inner factor's congestion pattern is replicated intact in
    // every copy, so at least that side of the max is always realized.
    EXPECT_GE(rep.congestion, inner.report.congestion);
  }
}

TEST(PlannerProperty, BatchMatchesSerialOnRandomShapes) {
  // plan_batch must agree with the serial planner on certified metrics
  // for canonical (sorted) inputs, where no perm relabeling applies.
  std::mt19937_64 rng(kSeed ^ 0xCAFE);
  std::vector<Shape> shapes;
  for (int t = 0; t < 64; ++t)
    shapes.push_back(random_shape(rng, 1, 3).sorted());
  const std::vector<PlanResult> batch = plan_batch(shapes);

  Planner planner;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE("shape " + shapes[i].to_string());
    const PlanResult serial = planner.plan(shapes[i]);
    EXPECT_EQ(batch[i].plan, serial.plan);
    EXPECT_EQ(batch[i].report.dilation, serial.report.dilation);
    EXPECT_EQ(batch[i].report.congestion, serial.report.congestion);
    EXPECT_EQ(batch[i].report.host_dim, serial.report.host_dim);
  }
}

}  // namespace
}  // namespace hj
