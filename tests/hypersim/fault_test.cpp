// Tests for the fault-tolerant stack: fault injection in hypersim, detour
// routing, and planner-level graceful degradation.
#include "hypersim/fault.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/direct.hpp"
#include "core/planner.hpp"
#include "core/product.hpp"
#include "core/router.hpp"
#include "core/verify.hpp"
#include "hypersim/network.hpp"
#include "manytoone/manytoone.hpp"

namespace hj::sim {
namespace {

// --- FaultSet / FaultModel basics -----------------------------------------

TEST(FaultSet, NodeAndLinkQueries) {
  FaultSet f;
  EXPECT_TRUE(f.empty());
  f.fail_node(5);
  f.fail_link(0, 1);
  EXPECT_TRUE(f.node_failed(5));
  EXPECT_FALSE(f.node_failed(4));
  EXPECT_TRUE(f.link_failed(0, 1));
  EXPECT_TRUE(f.link_failed(1, 0));
  // A dead node kills its links too.
  EXPECT_TRUE(f.link_failed(5, 4));
  EXPECT_FALSE(f.link_failed(2, 3));
  EXPECT_FALSE(f.path_avoids(CubePath{0, 1, 3}));
  EXPECT_FALSE(f.path_avoids(CubePath{4, 5}));
  EXPECT_TRUE(f.path_avoids(CubePath{2, 3, 7}));
  EXPECT_THROW(f.fail_link(0, 3), std::invalid_argument);
}

TEST(FaultModel, DropsAreDeterministicAndOrderFree) {
  FaultModel a, b;
  a.set_transient(0.1, 42);
  b.set_transient(0.1, 42);
  u64 drops = 0;
  // Query b in a different order than a: decisions must still agree,
  // because drops() is a pure function of (seed, cycle, link).
  for (u64 cycle = 0; cycle < 200; ++cycle)
    for (u64 link = 0; link < 24; ++link)
      if (a.drops(cycle, link)) ++drops;
  u64 drops_b = 0;
  for (u64 link = 24; link-- > 0;)
    for (u64 cycle = 200; cycle-- > 0;)
      if (b.drops(cycle, link)) ++drops_b;
  EXPECT_EQ(drops, drops_b);
  // Rate is in the right ballpark for p = 0.1 over 4800 trials.
  EXPECT_GT(drops, 4800 * 0.05);
  EXPECT_LT(drops, 4800 * 0.2);

  FaultModel c;
  c.set_transient(0.1, 43);
  u64 diff = 0;
  for (u64 cycle = 0; cycle < 200; ++cycle)
    for (u64 link = 0; link < 24; ++link)
      if (a.drops(cycle, link) != c.drops(cycle, link)) ++diff;
  EXPECT_GT(diff, 0u) << "different seeds should give different traces";

  EXPECT_THROW(c.set_transient(1.5, 0), std::invalid_argument);
  EXPECT_THROW(c.set_transient(-0.1, 0), std::invalid_argument);
}

TEST(FaultModel, ParseFaultSpec) {
  FaultModel m = parse_fault_spec("node=5,link=3-7,p=0.01,seed=42");
  EXPECT_TRUE(m.permanent().node_failed(5));
  EXPECT_TRUE(m.permanent().link_failed(3, 7));
  EXPECT_DOUBLE_EQ(m.drop_p(), 0.01);
  EXPECT_EQ(m.seed(), 42u);
  EXPECT_TRUE(m.has_transient());

  EXPECT_FALSE(parse_fault_spec("node=0").has_transient());
  EXPECT_THROW((void)parse_fault_spec("node="), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("link=3"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("link=0-3"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("p=2.0"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_spec("bogus=1"), std::invalid_argument);
  // Numbers parse strictly: no sign, space, suffix or u64 wrap-around.
  for (const char* bad :
       {"node=-1", "node= 3", "node=3 ", "node=+3", "node=3x",
        "node=18446744073709551616", "link=-1-0", "link=0- 1", "p= 0.1",
        "p=0.1x", "seed=-2", "seed=+2"})
    EXPECT_THROW((void)parse_fault_spec(bad), std::invalid_argument) << bad;
}

TEST(FaultSet, AgreesWithAnOrderedSetOracle) {
  // Seeded random fail/heal/query sequences against std::set oracles, over
  // Q14-range addresses, the edges of the dense ranges and addresses far
  // above them (a fault spec may name any u64), which FaultSet keeps in
  // different storage.
  const CubeNode node_limit = CubeNode{1} << Hypercube::kDenseNodeDimLimit;
  const CubeNode link_limit = CubeNode{1} << Hypercube::kDenseLinkDimLimit;
  const CubeNode bases[] = {0,
                            (CubeNode{1} << 14) - 32,
                            link_limit - 16,
                            node_limit - 16,
                            CubeNode{1} << 40};
  std::mt19937_64 rng(0xFA17u);
  const auto address = [&] { return bases[rng() % 5] + rng() % 32; };
  const auto neighbor = [&](CubeNode v) {
    return v ^ (CubeNode{1} << (rng() % 44));
  };

  FaultSet f;
  std::set<CubeNode> nodes;
  std::set<u64> links;
  const auto oracle_node = [&](CubeNode v) { return nodes.count(v) != 0; };
  const auto oracle_link = [&](CubeNode a, CubeNode b) {
    return oracle_node(a) || oracle_node(b) ||
           links.count(Hypercube::edge_key(a, b)) != 0;
  };
  for (int step = 0; step < 20000; ++step) {
    const CubeNode a = address();
    const CubeNode b = neighbor(a);
    switch (rng() % 6) {
      case 0:
        f.fail_node(a);
        nodes.insert(a);
        break;
      case 1:
        f.fail_link(a, b);
        links.insert(Hypercube::edge_key(a, b));
        break;
      case 2:
        f.heal_link(b, a);
        links.erase(Hypercube::edge_key(a, b));
        break;
      default: {
        ASSERT_EQ(f.node_failed(a), oracle_node(a)) << a;
        ASSERT_EQ(f.link_failed(a, b), oracle_link(a, b)) << a << "-" << b;
        ASSERT_EQ(f.link_failed(b, a), oracle_link(a, b)) << b << "-" << a;
        CubePath path{a, b};
        path.push_back(neighbor(b));
        bool avoids = true;
        for (std::size_t i = 0; i < path.size(); ++i)
          avoids = avoids && !oracle_node(path[i]) &&
                   (i + 1 == path.size() || !oracle_link(path[i], path[i + 1]));
        ASSERT_EQ(f.path_avoids(path), avoids);
      }
    }
    ASSERT_EQ(f.num_failed_nodes(), nodes.size());
    ASSERT_EQ(f.num_failed_links(), links.size());
    ASSERT_EQ(f.empty(), nodes.empty() && links.empty());
  }
  // Both ranges were populated, and enumeration is the sorted oracle.
  EXPECT_LT(*nodes.begin(), node_limit);
  EXPECT_GE(*nodes.rbegin(), node_limit);
  EXPECT_LT(*links.begin(), link_limit << 6);
  EXPECT_GE(*links.rbegin(), link_limit << 6);
  EXPECT_EQ(f.failed_nodes(),
            std::vector<CubeNode>(nodes.begin(), nodes.end()));
  EXPECT_EQ(f.failed_link_keys(), std::vector<u64>(links.begin(), links.end()));
}

// --- Simulator fault injection --------------------------------------------

TEST(SimFaults, CleanRunSetsCompleted) {
  CubeNetwork net(SimConfig{3});
  net.add_message(CubePath{0, 1, 3});
  SimResult r = net.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.consistent());
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.failed_messages, 0u);
  EXPECT_GT(r.slowdown_vs_bound, 0.0);
}

TEST(SimFaults, TruncatedRunReportsIncomplete) {
  SimConfig cfg{3};
  cfg.max_cycles = 2;  // the 3-hop message cannot finish
  CubeNetwork net(cfg);
  net.add_message(CubePath{0, 1, 3, 7});
  SimResult r = net.run();
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.consistent());  // in-flight message: delivered+failed < total
  EXPECT_EQ(r.cycles, 2u);
  EXPECT_EQ(r.delivered, 0u);
  EXPECT_DOUBLE_EQ(r.slowdown_vs_bound, 0.0);
}

TEST(SimFaults, PermanentLinkFaultFailsAffectedMessage) {
  FaultModel faults;
  faults.permanent().fail_link(0, 1);
  SimConfig cfg{3};
  cfg.faults = &faults;
  CubeNetwork net(cfg);
  net.add_message(CubePath{0, 1, 3});  // crosses the dead link
  net.add_message(CubePath{4, 6});     // healthy
  SimResult r = net.run();
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.consistent());
  EXPECT_EQ(r.failed_messages, 1u);
  EXPECT_EQ(r.delivered, 1u);
  // The doomed message is failed up front, not stalled to max_cycles.
  EXPECT_LT(r.cycles, 10u);
}

TEST(SimFaults, PermanentFaultCascadesToDependents) {
  FaultModel faults;
  faults.permanent().fail_node(1);
  SimConfig cfg{3};
  cfg.faults = &faults;
  CubeNetwork net(cfg);
  const u64 first = net.add_message(CubePath{0, 1});
  net.add_message(CubePath{2, 3}, static_cast<i64>(first));
  SimResult r = net.run();
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.consistent());
  EXPECT_EQ(r.failed_messages, 2u);
  EXPECT_EQ(r.delivered, 0u);
}

TEST(SimFaults, TransientDropsDelayButComplete) {
  const auto run_with = [](const FaultModel* faults) {
    SimConfig cfg{4};
    cfg.faults = faults;
    CubeNetwork net(cfg);
    for (CubeNode v = 0; v < 8; ++v)
      net.add_message(Hypercube::ecube_path(v, v ^ 15));
    return net.run();
  };
  const SimResult clean = run_with(nullptr);
  ASSERT_TRUE(clean.completed);

  FaultModel faults;
  faults.set_transient(0.05, 7);
  const SimResult faulty = run_with(&faults);
  EXPECT_TRUE(faulty.completed);
  EXPECT_TRUE(faulty.consistent());
  EXPECT_EQ(faulty.delivered, faulty.messages);
  EXPECT_GT(faulty.dropped_flits, 0u);
  EXPECT_GE(faulty.cycles, clean.cycles);
}

TEST(SimFaults, SameSeedSameResultDifferentSeedDiffers) {
  const auto run_seeded = [](u64 seed) {
    FaultModel faults;
    faults.set_transient(0.2, seed);
    SimConfig cfg{4};
    cfg.faults = &faults;
    CubeNetwork net(cfg);
    for (CubeNode v = 0; v < 16; ++v)
      net.add_message(Hypercube::ecube_path(v, v ^ 15));
    return net.run();
  };
  const SimResult a = run_seeded(11), b = run_seeded(11), c = run_seeded(12);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.dropped_flits, b.dropped_flits);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.failed_messages, b.failed_messages);
  EXPECT_TRUE(a.cycles != c.cycles || a.dropped_flits != c.dropped_flits)
      << "seed should change the fault trace";
}

TEST(SimFaults, RetryExhaustionFailsMessages) {
  FaultModel faults;
  faults.set_transient(0.9, 3);
  SimConfig cfg{4};
  cfg.faults = &faults;
  cfg.max_retries = 2;
  cfg.detect_threshold = 2;  // must not exceed max_retries
  CubeNetwork net(cfg);
  for (CubeNode v = 0; v < 16; ++v)
    net.add_message(Hypercube::ecube_path(v, v ^ 15));
  SimResult r = net.run();
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.consistent());
  EXPECT_GT(r.failed_messages, 0u);
  EXPECT_EQ(r.delivered + r.failed_messages, r.messages);
  EXPECT_LT(r.cycles, cfg.max_cycles);
}

// --- Detour routing --------------------------------------------------------

TEST(Detour, RoutesAroundFailedLinkOn3x3x3) {
  auto direct = direct_embedding(Shape{3, 3, 3});
  ASSERT_TRUE(direct.has_value());
  auto emb = ExplicitEmbedding::copy_of(**direct);
  ASSERT_EQ(emb->host_dim(), 5u);
  const VerifyReport before = verify(*emb);
  ASSERT_TRUE(before.valid);

  // Fail the first hop of some routed edge path.
  FaultSet faults;
  bool armed = false;
  emb->guest().for_each_edge([&](const MeshEdge& e) {
    if (armed) return;
    const CubePath p = emb->edge_path(e);
    if (p.size() >= 2) {
      faults.fail_link(p[0], p[1]);
      armed = true;
    }
  });
  ASSERT_TRUE(armed);
  ASSERT_FALSE(verify(*emb, faults).fault_free);

  const DetourStats stats = route_around_faults(*emb, faults);
  EXPECT_TRUE(stats.ok);
  EXPECT_GE(stats.detoured_edges, 1u);
  EXPECT_EQ(stats.unroutable_edges, 0u);
  EXPECT_LE(stats.max_added_dilation, 2u);

  const VerifyReport after = verify(*emb, faults);
  EXPECT_TRUE(after.valid);
  EXPECT_TRUE(after.fault_free);
  EXPECT_LE(after.dilation, before.dilation + 2);
}

TEST(Detour, DeadLinkBetweenHealthyNodes) {
  // A link-only fault: both endpoints stay alive, so the node map must be
  // untouched and only the crossing paths may change.
  auto emb = ExplicitEmbedding::copy_of(GrayEmbedding(Mesh(Shape{4, 4, 4})));
  const VerifyReport before = verify(*emb);
  ASSERT_TRUE(before.valid);
  const std::vector<CubeNode> map_before = emb->node_map();

  FaultSet faults;
  bool armed = false;
  emb->guest().for_each_edge([&](const MeshEdge& e) {
    if (armed) return;
    const CubePath p = emb->edge_path(e);
    if (p.size() == 2) {
      faults.fail_link(p[0], p[1]);
      armed = true;
    }
  });
  ASSERT_TRUE(armed);
  ASSERT_FALSE(verify(*emb, faults).fault_free);
  for (CubeNode v : map_before) ASSERT_FALSE(faults.node_failed(v));

  const DetourStats stats = route_around_faults(*emb, faults);
  EXPECT_TRUE(stats.ok);
  EXPECT_GE(stats.detoured_edges, 1u);
  EXPECT_EQ(stats.unroutable_edges, 0u);

  const VerifyReport after = verify(*emb, faults);
  EXPECT_TRUE(after.valid);
  EXPECT_TRUE(after.fault_free);
  EXPECT_LE(after.dilation, before.dilation + 2);
  EXPECT_EQ(emb->node_map(), map_before);
}

TEST(Detour, LinkFaultOnReflectedBoundaryEdge) {
  // 3x6 = (3x3) * (1x2): the outer axis has two inner copies, the second
  // reflected by phi~, and the copy-boundary edges (column 2 -> 3) are
  // carried by the outer embedding. Kill a link under one of those
  // boundary paths and detour around it.
  auto inner = std::make_shared<GrayEmbedding>(Mesh(Shape{3, 3}));
  auto outer = std::make_shared<GrayEmbedding>(Mesh(Shape{1, 2}));
  MeshProductEmbedding product(inner, outer);
  ASSERT_EQ(product.guest().shape(), (Shape{3, 6}));
  auto emb = ExplicitEmbedding::copy_of(product);
  const VerifyReport before = verify(*emb);
  ASSERT_TRUE(before.valid);

  // Find a copy-boundary edge: axis 1, columns 2 and 3 (distinct y_j of
  // the outer factor on either side).
  FaultSet faults;
  bool armed = false;
  emb->guest().for_each_edge([&](const MeshEdge& e) {
    if (armed || e.axis != 1) return;
    if (e.a % 6 != 2 || e.b % 6 != 3) return;
    const CubePath p = emb->edge_path(e);
    ASSERT_GE(p.size(), 2u);
    faults.fail_link(p[0], p[1]);
    armed = true;
  });
  ASSERT_TRUE(armed);
  ASSERT_FALSE(verify(*emb, faults).fault_free);

  const DetourStats stats = route_around_faults(*emb, faults);
  EXPECT_TRUE(stats.ok);
  EXPECT_GE(stats.detoured_edges, 1u);
  EXPECT_EQ(stats.unroutable_edges, 0u);

  const VerifyReport after = verify(*emb, faults);
  EXPECT_TRUE(after.valid);
  EXPECT_TRUE(after.fault_free);
  EXPECT_LE(after.dilation, before.dilation + 2);
}

TEST(Detour, ReportsFailedEndpointAsUnroutable) {
  auto direct = direct_embedding(Shape{3, 3, 3});
  ASSERT_TRUE(direct.has_value());
  auto emb = ExplicitEmbedding::copy_of(**direct);
  FaultSet faults;
  faults.fail_node(emb->map(0));  // no detour can save a dead endpoint
  const DetourStats stats = route_around_faults(*emb, faults);
  EXPECT_FALSE(stats.ok);
  EXPECT_GT(stats.unroutable_edges, 0u);
}

// --- Planner degradation ladder --------------------------------------------

TEST(PlanAvoiding, AnySingleFailedLinkOn3x3x7InQ6) {
  // Acceptance scenario: every single-link fault on the planner embedding
  // of 3x3x7 in the 6-cube must be absorbed (detour or remap), certified
  // fault-free, with <= 2 added dilation, and the stencil exchange must
  // deliver every message under simulation.
  Planner planner;
  const Shape shape{3, 3, 7};
  const PlanResult base = planner.plan(shape);
  ASSERT_EQ(base.embedding->host_dim(), 6u);

  for (CubeNode a = 0; a < 64; ++a) {
    for (u32 d = 0; d < 6; ++d) {
      const CubeNode b = a ^ (u64{1} << d);
      if (b < a) continue;
      FaultSet faults;
      faults.fail_link(a, b);
      const PlanResult r = planner.plan_avoiding(shape, faults);
      ASSERT_TRUE(r.report.valid) << "link " << a << "-" << b;
      ASSERT_TRUE(r.report.fault_free) << "link " << a << "-" << b;
      ASSERT_LE(r.report.dilation, base.report.dilation + 2)
          << "link " << a << "-" << b;

      FaultModel model{faults};
      SimConfig cfg{6};
      cfg.faults = &model;
      const SimResult sim = simulate_stencil(*r.embedding, cfg);
      ASSERT_TRUE(sim.completed) << "link " << a << "-" << b;
      ASSERT_EQ(sim.failed_messages, 0u) << "link " << a << "-" << b;
    }
  }
}

TEST(PlanAvoiding, FailedNodeRemapsIntoTheSpareAddress) {
  // 3x3x7 leaves exactly one of the 64 addresses unused: whichever node
  // dies, an XOR translation moves the hole onto it.
  Planner planner;
  const Shape shape{3, 3, 7};
  for (CubeNode dead = 0; dead < 64; ++dead) {
    FaultSet faults;
    faults.fail_node(dead);
    const PlanResult r = planner.plan_avoiding(shape, faults);
    ASSERT_TRUE(r.report.valid) << "node " << dead;
    ASSERT_TRUE(r.report.fault_free) << "node " << dead;
    ASSERT_EQ(r.report.load_factor, 1u) << "node " << dead;
  }
}

TEST(PlanAvoiding, EmptyFaultSetIsAPlainPlan) {
  Planner planner;
  const PlanResult r = planner.plan_avoiding(Shape{3, 3, 7}, FaultSet{});
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
}

TEST(PlanAvoiding, FullCubeFailedNodeDegradesToManyToOne) {
  // 4x4x4 fills Q6 exactly: no spare address, so a dead node forces the
  // last rung of the ladder — contraction into a healthy sub-cube.
  const Shape shape{4, 4, 4};
  FaultSet faults;
  faults.fail_node(0);

  Planner bare;
  EXPECT_THROW((void)bare.plan_avoiding(shape, faults),
               std::invalid_argument);

  Planner planner;
  planner.set_degrade_provider(m2o::make_degrade_provider());
  const PlanResult r = planner.plan_avoiding(shape, faults);
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
  EXPECT_GE(r.report.load_factor, 2u);
  EXPECT_NE(r.plan.find("degrade"), std::string::npos) << r.plan;

  FaultModel model{faults};
  SimConfig cfg{6};
  cfg.faults = &model;
  const SimResult sim = simulate_stencil(*r.embedding, cfg);
  EXPECT_TRUE(sim.completed);
}

TEST(PlanAvoiding, DegradedPlanSurvivesManyFailedNodes) {
  // Kill a whole half-cube corner's worth of nodes; the provider must find
  // a surviving sub-cube and contract into it.
  const Shape shape{4, 4, 4};
  FaultSet faults;
  for (CubeNode v = 0; v < 8; ++v) faults.fail_node(v ^ 21);
  Planner planner;
  planner.set_degrade_provider(m2o::make_degrade_provider());
  const PlanResult r = planner.plan_avoiding(shape, faults);
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
}

// --- SubcubeEmbedding ------------------------------------------------------

TEST(Subcube, PlacesBaseInsideFixedBits) {
  auto direct = direct_embedding(Shape{3, 3, 3});
  ASSERT_TRUE(direct.has_value());
  const m2o::SubcubeEmbedding sub(*direct, 6, /*mask=*/0x8, /*value=*/0x8);
  const VerifyReport r = verify(sub);
  EXPECT_TRUE(r.valid);
  for (MeshIndex i = 0; i < sub.guest().num_nodes(); ++i)
    EXPECT_EQ(sub.map(i) & 0x8u, 0x8u);
  EXPECT_THROW(m2o::SubcubeEmbedding(*direct, 6, 0x1, 0x2),
               std::invalid_argument);
  // A base Q5 in a Q4 sub-cube folds: its top address bit is dropped
  // before the free bits are spread around the pinned one.
  const m2o::SubcubeEmbedding folded(*direct, 5, 0x1, 0x1);
  EXPECT_FALSE(folded.one_to_one());
  for (MeshIndex i = 0; i < folded.guest().num_nodes(); ++i)
    EXPECT_EQ(folded.map(i), (((*direct)->map(i) & 0xFu) << 1) | 0x1u);
  EXPECT_TRUE(verify(folded).valid);
  // A base smaller than its sub-cube does not fill it.
  EXPECT_THROW(m2o::SubcubeEmbedding(*direct, 7, 0x1, 0x1),
               std::invalid_argument);
}

}  // namespace
}  // namespace hj::sim
