// Tests for the live-recovery controller: the reroute / migrate / replan
// escalation ladder, its migration-cost model, factor-subcube spare
// preference, and the fault-aware plan_batch cache-purity regression.
#include "core/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>
#include <utility>

#include "core/io.hpp"
#include "core/product.hpp"
#include "core/router.hpp"
#include "manytoone/manytoone.hpp"
#include "obs/obs.hpp"
#include "search/provider.hpp"

namespace hj::recovery {
namespace {

RecoveryOptions full_options() {
  RecoveryOptions opts;
  opts.direct_provider = search::make_search_provider();
  opts.degrade_provider = m2o::make_degrade_provider();
  return opts;
}

PlanResult plan_shape(const Shape& shape) {
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  return planner.plan(shape);
}

/// One failed link under the first single-hop edge path of `emb`; both
/// of its endpoints stay healthy.
FaultSet link_fault_under_edge(const Embedding& emb) {
  FaultSet faults;
  bool armed = false;
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    if (armed) return;
    const CubePath p = emb.edge_path(e);
    if (p.size() == 2) {
      faults.fail_link(p[0], p[1]);
      armed = true;
    }
  });
  EXPECT_TRUE(armed);
  return faults;
}

/// The used address of a 3x3x7 plan on Q6 at Hamming distance 6 from its
/// only spare: no migration radius below 6 reaches the spare.
CubeNode used_node_far_from_spare(const Embedding& emb) {
  std::vector<bool> used(64, false);
  for (MeshIndex i = 0; i < 63; ++i) used[emb.map(i)] = true;
  CubeNode spare = 64;
  for (CubeNode v = 0; v < 64; ++v)
    if (!used[v]) spare = v;
  EXPECT_LT(spare, 64u);
  const CubeNode far = spare ^ 0x3f;
  EXPECT_TRUE(used[far]);
  return far;
}

// --- Rung (a): reroute ------------------------------------------------------

TEST(Recovery, LinkFaultRepairsByReroute) {
  const PlanResult base = plan_shape(Shape{4, 4, 4});
  ASSERT_TRUE(base.report.valid);
  // 4x4x4 is a subcube power: dilation 1. A detour adds an even number of
  // hops (hypercube path parity), so the faulted edge lands at 3 — allow
  // +2 here so rung (a) is reachable at all; the default +1 budget would
  // correctly escalate a dilation-1 embedding to replan.
  RecoveryOptions opts = full_options();
  opts.max_dilation_increase = 2;

  const FaultSet faults = link_fault_under_edge(*base.embedding);

  RecoveryController ctl(Shape{4, 4, 4}, opts);
  const RepairResult r =
      ctl.repair(*base.embedding, faults, base.report.dilation);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rung, Rung::Reroute);
  EXPECT_EQ(r.moved_nodes, 0u);
  EXPECT_EQ(r.migration_cost, 0u);
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
  EXPECT_LE(r.report.dilation, base.report.dilation + 2);
  // Reroute must not move any guest node.
  for (MeshIndex i = 0; i < base.embedding->guest().num_nodes(); ++i)
    EXPECT_EQ(r.embedding->map(i), base.embedding->map(i));
}

// --- Rung (b): migrate ------------------------------------------------------

TEST(Recovery, DeadNodeMigratesToAdjacentSpare) {
  // 3x3x7 fills 63 of Q6's 64 addresses: exactly one spare. Kill the used
  // address one bit away from the spare, so the displaced guest node has a
  // distance-1 home to move to.
  const PlanResult base = plan_shape(Shape{3, 3, 7});
  ASSERT_TRUE(base.report.valid);
  ASSERT_EQ(base.report.host_dim, 6u);

  std::vector<bool> used(64, false);
  for (MeshIndex i = 0; i < 63; ++i) used[base.embedding->map(i)] = true;
  CubeNode spare = 64;
  for (CubeNode v = 0; v < 64; ++v)
    if (!used[v]) spare = v;
  ASSERT_LT(spare, 64u);

  FaultSet faults;
  faults.fail_node(spare ^ 1);  // a used neighbor of the spare

  RecoveryController ctl(Shape{3, 3, 7}, full_options());
  const RepairResult r =
      ctl.repair(*base.embedding, faults, base.report.dilation);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rung, Rung::Migrate);
  EXPECT_EQ(r.moved_nodes, 1u);
  EXPECT_EQ(r.migration_cost, 1u);  // cost model: one node, distance one
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
  EXPECT_LE(r.report.dilation, base.report.dilation + 1);
  // Exactly the displaced guest node moved, onto the spare.
  u64 moved = 0;
  for (MeshIndex i = 0; i < 63; ++i) {
    if (r.embedding->map(i) != base.embedding->map(i)) {
      ++moved;
      EXPECT_EQ(base.embedding->map(i), spare ^ 1);
      EXPECT_EQ(r.embedding->map(i), spare);
    }
  }
  EXPECT_EQ(moved, 1u);
}

TEST(Recovery, SparePreferenceStaysInFactorSubcube) {
  // Hand-built placement in Q4 with inner factor width 2 (outer bits are
  // bits 2-3). Guest node 6 sits at 13 (0b1101); its radius-1 spares are
  // 9 (foreign outer bits) and 12 / 15 (same outer bits). Address order
  // alone would pick 9; the factor preference must pick 12.
  const std::vector<CubeNode> map{0, 1, 2, 3, 4, 5, 13};
  auto emb = std::make_shared<ExplicitEmbedding>(
      Mesh(Shape{7}), 4, std::vector<CubeNode>(map));
  const VerifyReport before = verify(*emb);
  ASSERT_TRUE(before.valid);
  FaultSet faults;
  faults.fail_node(13);

  RecoveryOptions opts = full_options();
  opts.max_dilation_increase = 4;  // isolate spare choice from the budget
  RecoveryController ctl(Shape{7}, opts);
  const RepairResult with_factor =
      ctl.repair(*emb, faults, before.dilation, /*factor_inner_dim=*/2);
  ASSERT_TRUE(with_factor.ok);
  ASSERT_EQ(with_factor.rung, Rung::Migrate);
  EXPECT_EQ(with_factor.embedding->map(6), 12u);

  const RepairResult without_factor =
      ctl.repair(*emb, faults, before.dilation, /*factor_inner_dim=*/0);
  ASSERT_TRUE(without_factor.ok);
  ASSERT_EQ(without_factor.rung, Rung::Migrate);
  EXPECT_EQ(without_factor.embedding->map(6), 9u);
}

TEST(Recovery, InnerFactorDimOfProductPlan) {
  auto inner = std::make_shared<GrayEmbedding>(Mesh(Shape{3, 3}));
  auto outer = std::make_shared<GrayEmbedding>(Mesh(Shape{1, 2}));
  MeshProductEmbedding product(inner, outer);
  EXPECT_EQ(inner_factor_dim(product), 4u);
  EXPECT_EQ(inner_factor_dim(*inner), 0u);  // not a product
}

// --- Rung (c): replan and escalation ---------------------------------------

TEST(Recovery, FarSpareEscalatesToReplan) {
  // Kill a used address farther than max_migration_radius from the only
  // spare: reroute fails (dead endpoint), migrate finds no spare in
  // radius, so the controller must replan.
  const PlanResult base = plan_shape(Shape{3, 3, 7});
  FaultSet faults;
  faults.fail_node(used_node_far_from_spare(*base.embedding));
  RecoveryOptions opts = full_options();
  opts.max_migration_radius = 2;
  RecoveryController ctl(Shape{3, 3, 7}, opts);
  const RepairResult r =
      ctl.repair(*base.embedding, faults, base.report.dilation);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rung, Rung::Replan);
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
  EXPECT_GE(r.moved_nodes, 1u);
  EXPECT_GE(r.migration_cost, r.moved_nodes);  // every move costs >= 1
}

TEST(Recovery, ForceReplanSkipsLocalRungs) {
  const PlanResult base = plan_shape(Shape{4, 4, 4});
  const FaultSet faults = link_fault_under_edge(*base.embedding);
  RecoveryOptions opts = full_options();
  opts.force_replan = true;
  RecoveryController ctl(Shape{4, 4, 4}, opts);
  const RepairResult r =
      ctl.repair(*base.embedding, faults, base.report.dilation);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.rung, Rung::Replan);
  EXPECT_TRUE(r.report.fault_free);
}

TEST(Recovery, UnrepairableReturnsNotOk) {
  // No degrade provider and every address failed: nothing can certify.
  const PlanResult base = plan_shape(Shape{2, 2});
  FaultSet faults;
  for (CubeNode v = 0; v < 4; ++v) faults.fail_node(v);
  RecoveryController ctl(Shape{2, 2});  // bare: no providers attached
  const RepairResult r =
      ctl.repair(*base.embedding, faults, base.report.dilation);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.embedding, nullptr);
}

TEST(Recovery, RepairRejectsWrongShape) {
  const PlanResult base = plan_shape(Shape{2, 2});
  RecoveryController ctl(Shape{3, 3});
  EXPECT_THROW((void)ctl.repair(*base.embedding, FaultSet{}, 1),
               std::invalid_argument);
}

// --- Telemetry: the rung spans are the rung timer ---------------------------

TEST(Recovery, OneSpanPerRungAttempt) {
#ifndef HJ_DISABLE_OBS
  // E18 reads each rung's wall time as the sum of its recovery.<rung>
  // trace spans, so every attempt must open exactly one span: pinned
  // against the deterministic recovery.<rung>.attempts counters.
  const bool was_on = obs::enabled();
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Trace::global().clear();

  // Reroute certifies (as in LinkFaultRepairsByReroute).
  const PlanResult cube = plan_shape(Shape{4, 4, 4});
  RecoveryOptions reroute_opts = full_options();
  reroute_opts.max_dilation_increase = 2;
  RecoveryController reroute(Shape{4, 4, 4}, reroute_opts);
  const FaultSet link = link_fault_under_edge(*cube.embedding);
  EXPECT_EQ(reroute.repair(*cube.embedding, link, cube.report.dilation).rung,
            Rung::Reroute);

  // Reroute and migrate fail, replan certifies (as in
  // FarSpareEscalatesToReplan).
  const PlanResult base = plan_shape(Shape{3, 3, 7});
  FaultSet far;
  far.fail_node(used_node_far_from_spare(*base.embedding));
  RecoveryOptions replan_opts = full_options();
  replan_opts.max_migration_radius = 2;
  RecoveryController replan(Shape{3, 3, 7}, replan_opts);
  EXPECT_EQ(replan.repair(*base.embedding, far, base.report.dilation).rung,
            Rung::Replan);

  const std::vector<obs::TraceEvent> spans = obs::Trace::global().events();
  const std::pair<Rung, u64> expected[] = {
      {Rung::Reroute, 2}, {Rung::Migrate, 1}, {Rung::Replan, 1}};
  for (const auto& [rung, want] : expected) {
    const std::string name = std::string("recovery.") + rung_name(rung);
    const u64 attempts =
        obs::Registry::global().counter(name + ".attempts").value();
    EXPECT_EQ(attempts, want) << name;
    EXPECT_EQ(static_cast<u64>(std::count_if(
                  spans.begin(), spans.end(),
                  [&](const obs::TraceEvent& e) { return e.name == name; })),
              attempts)
        << name;
  }
  obs::set_enabled(was_on);
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

// --- Cache purity: faulted and fault-free plans share one cache -----------

TEST(RecoveryPlanAvoiding, FaultedAndFaultFreePlansShareOneCache) {
  // The same shape planned with and without faults through one shared
  // cache, both orders. The faulted plan must certify against its fault
  // set, the fault-free plan must be byte-identical to an isolated plan()
  // (i.e. plan_avoiding never wrote a faulted result into the cache).
  const Shape shape{3, 3, 7};
  const std::string clean_text = io::to_text(*plan_shape(shape).embedding);

  FaultSet faults;
  faults.fail_link(0, 1);

  for (const bool faulted_first : {true, false}) {
    ShardedPlanCache cache;
    Planner planner;
    planner.set_shared_cache(&cache);
    planner.set_direct_provider(search::make_search_provider());
    PlanResult faulted, clean;
    if (faulted_first) {
      faulted = planner.plan_avoiding(shape, faults);
      clean = planner.plan(shape);
    } else {
      clean = planner.plan(shape);
      faulted = planner.plan_avoiding(shape, faults);
    }

    EXPECT_TRUE(faulted.report.valid);
    EXPECT_TRUE(faulted.report.fault_free);
    EXPECT_TRUE(verify(*faulted.embedding, faults).fault_free);

    EXPECT_TRUE(clean.report.valid);
    EXPECT_EQ(io::to_text(*clean.embedding), clean_text)
        << "fault-free plan differs after sharing a cache with a faulted "
           "plan: the cache was polluted";

    // Planning the shape again from the same (warm) cache must still
    // yield the clean embedding.
    const std::vector<PlanResult> again = plan_batch(
        {shape}, {}, [] { return search::make_search_provider(); }, &cache);
    EXPECT_EQ(io::to_text(*again[0].embedding), clean_text);
  }
}

TEST(RecoveryPlanAvoiding, AllDeadCubeThrows) {
  // Every address of Q2 dead and no degrade provider: no rung certifies.
  FaultSet all_dead;
  for (CubeNode v = 0; v < 4; ++v) all_dead.fail_node(v);
  Planner planner;
  EXPECT_THROW((void)planner.plan_avoiding(Shape{2, 2}, all_dead),
               std::invalid_argument);
}

// --- Concurrency: controllers + verify_batch under TSan ---------------------

TEST(RecoveryConcurrency, ControllersShareCacheWithVerifyBatch) {
  // Four controller threads repairing against a shared plan cache while
  // the main thread runs verify_batch on the parallel engine: the TSan CI
  // job runs this at HJ_THREADS=4 to certify the locking.
  const PlanResult base = plan_shape(Shape{3, 3, 7});
  std::vector<bool> used(64, false);
  for (MeshIndex i = 0; i < 63; ++i) used[base.embedding->map(i)] = true;
  CubeNode spare = 64;
  for (CubeNode v = 0; v < 64; ++v)
    if (!used[v]) spare = v;

  ShardedPlanCache cache;
  std::vector<RepairResult> results(4);
  std::vector<std::thread> workers;
  for (u32 t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      FaultSet faults;
      faults.fail_node(spare ^ (u64{1} << t));
      RecoveryController ctl(Shape{3, 3, 7}, full_options());
      ctl.set_shared_cache(&cache);
      results[t] =
          ctl.repair(*base.embedding, faults, base.report.dilation);
    });
  }
  std::vector<EmbeddingPtr> embs(16, base.embedding);
  const std::vector<VerifyReport> reports = verify_batch(embs);
  for (std::thread& w : workers) w.join();

  for (const VerifyReport& r : reports) EXPECT_TRUE(r.valid);
  for (u32 t = 0; t < 4; ++t) {
    ASSERT_TRUE(results[t].ok) << "worker " << t;
    EXPECT_TRUE(results[t].report.fault_free);
  }
}

// --- Golden repairs: every rung's choice is pinned --------------------------

/// FNV-1a over every guest edge's (endpoints, axis, cube path), in edge
/// order: any change to a chosen node or path moves it.
u64 path_digest(const Embedding& emb) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    mix(e.a);
    mix(e.b);
    mix(e.axis);
    const CubePath p = emb.edge_path(e);
    mix(p.size());
    for (const CubeNode v : p) mix(v);
  });
  return h;
}

/// `count` seeded faults on the hardware `emb` uses: a link under a
/// random edge path, or the host of a random guest node. Draws use raw mt19937_64 output (no distribution), so the
/// faults are the same under every standard library.
FaultSet seeded_faults(const Embedding& emb, bool nodes, u32 count,
                       u64 seed) {
  std::mt19937_64 rng(seed);
  const std::vector<MeshEdge> edges = emb.guest().edges();
  FaultSet faults;
  for (u32 i = 0; i < count; ++i) {
    if (nodes) {
      faults.fail_node(emb.map(rng() % emb.guest().num_nodes()));
      continue;
    }
    const CubePath p = emb.edge_path(edges[rng() % edges.size()]);
    const std::size_t hop = rng() % (p.size() - 1);
    faults.fail_link(p[hop], p[hop + 1]);
  }
  return faults;
}

std::string repair_line(const RepairResult& r) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " moved=%llu cost=%llu digest=%016llx",
                static_cast<unsigned long long>(r.moved_nodes),
                static_cast<unsigned long long>(r.migration_cost),
                static_cast<unsigned long long>(
                    r.ok ? path_digest(*r.embedding) : 0));
  return (r.ok ? "" : "FAILED ") + r.desc + buf;
}

TEST(RepairGolden, RungChoicesAndPathsArePinned) {
  // Each line: one repair of a product plan under seeded faults. Link
  // faults land on rung (a); node faults on rung (b) on 11x13x23 and on
  // (c) on 7x9x15, whose nearest spares break the +1 dilation budget;
  // the same node faults under force_replan pin rung (c) itself. A
  // refactor of the repair stack must reproduce every description,
  // migration and path.
  std::vector<std::string> got;
  for (const Shape& shape : {Shape{7, 9, 15}, Shape{11, 13, 23}}) {
    const PlanResult base = plan_shape(shape);
    const u32 inner = inner_factor_dim(*base.embedding);
    for (const bool nodes : {false, true}) {
      for (const u32 count : {1u, 3u, 6u}) {
        const FaultSet faults =
            seeded_faults(*base.embedding, nodes, count, 17 * count + nodes);
        for (const bool force : {false, true}) {
          if (force && !nodes) continue;
          RecoveryOptions opts = full_options();
          opts.force_replan = force;
          RecoveryController ctl(shape, opts);
          got.push_back(
              shape.to_string() + " " + (nodes ? "node" : "link") + "x" +
              std::to_string(count) + ": " +
              repair_line(ctl.repair(*base.embedding, faults,
                                     base.report.dilation, inner)));
        }
      }
    }
  }
  const std::vector<std::string> want = {
      "7x9x15 linkx1: reroute(1 detours, +2 dil) moved=0 cost=0"
      " digest=b480e609480f2b83",
      "7x9x15 linkx3: reroute(4 detours, +2 dil) moved=0 cost=0"
      " digest=90d829f5083903c6",
      "7x9x15 linkx6: reroute(8 detours, +2 dil) moved=0 cost=0"
      " digest=b30ae83a3772e782",
      "7x9x15 nodex1: replan(remap[xor 0xe](detour[1]((direct 1x3x5 * direct"
      " 7x3x3)))) moved=945 cost=2835 digest=bd08c041462a479e",
      "7x9x15 nodex1: replan(remap[xor 0xe](detour[1]((direct 1x3x5 * direct"
      " 7x3x3)))) moved=945 cost=2835 digest=bd08c041462a479e",
      "7x9x15 nodex3: replan(degrade(contract[1x3x1 * gray 8x4x16] into"
      " subcube[mask=0x1 val=0x0])) moved=943 cost=4749"
      " digest=32f307cfcb00c583",
      "7x9x15 nodex3: replan(degrade(contract[1x3x1 * gray 8x4x16] into"
      " subcube[mask=0x1 val=0x0])) moved=943 cost=4749"
      " digest=32f307cfcb00c583",
      "7x9x15 nodex6: replan(degrade(contract[1x5x1 * gray 8x2x16] into"
      " subcube[mask=0x9 val=0x9])) moved=941 cost=4716"
      " digest=b6eed2e7563f909b",
      "7x9x15 nodex6: replan(degrade(contract[1x5x1 * gray 8x2x16] into"
      " subcube[mask=0x9 val=0x9])) moved=941 cost=4716"
      " digest=b6eed2e7563f909b",
      "11x13x23 linkx1: reroute(1 detours, +2 dil) moved=0 cost=0"
      " digest=4d2676e03c275482",
      "11x13x23 linkx3: reroute(3 detours, +2 dil) moved=0 cost=0"
      " digest=5b441e2ab14e6496",
      "11x13x23 linkx6: reroute(6 detours, +2 dil) moved=0 cost=0"
      " digest=e4bafd659bf83f01",
      "11x13x23 nodex1: migrate(1 nodes, cost 2) moved=1 cost=2"
      " digest=369e1d813df187e2",
      "11x13x23 nodex1: replan(remap[xor 0x140](sub<11x13x23>(gray 4x2x8 *"
      " direct 3x7x3))) moved=3289 cost=6578 digest=a4b27558625403f7",
      "11x13x23 nodex3: migrate(3 nodes, cost 4) moved=3 cost=4"
      " digest=a4013325ea32d86b",
      "11x13x23 nodex3: replan(remap[xor 0x43](detour[1](sub<11x13x23>(gray"
      " 4x2x8 * direct 3x7x3)))) moved=3289 cost=9867 digest=201e11a264fe3e03",
      "11x13x23 nodex6: migrate(6 nodes, cost 7) moved=6 cost=7"
      " digest=3780b09342e2c1e8",
      "11x13x23 nodex6: replan(degrade(contract[1x1x6 * gray 16x16x4] into"
      " subcube[mask=0x5 val=0x0])) moved=3285 cost=19662"
      " digest=003e7e10af2b4191",
  };
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], i < want.size() ? want[i] : "") << "line " << i;
}

TEST(RepairGolden, PlanAvoidingStringsArePinned) {
  // The planner's rungs: detour[n] under link faults, remap[xor t] under
  // node faults, degrade(...) once the spares cannot hold the guest.
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  planner.set_degrade_provider(m2o::make_degrade_provider());
  std::vector<std::string> got;
  for (const Shape& shape : {Shape{7, 9, 15}, Shape{11, 13, 23}}) {
    const PlanResult base = planner.plan(shape);
    const std::pair<bool, u32> cases[] = {
        {false, 2}, {false, 7}, {true, 1}, {true, 4}, {true, 12}};
    for (const auto& [nodes, count] : cases) {
      const FaultSet faults =
          seeded_faults(*base.embedding, nodes, count, 31 * count + nodes);
      std::string line = shape.to_string() + " " +
                         (nodes ? "node" : "link") + "x" +
                         std::to_string(count) + ": ";
      try {
        const PlanResult p = planner.plan_avoiding(shape, faults);
        char buf[32];
        std::snprintf(
            buf, sizeof buf, " digest=%016llx",
            static_cast<unsigned long long>(path_digest(*p.embedding)));
        line += p.plan + buf;
      } catch (const std::invalid_argument&) {
        line += "no plan";
      }
      got.push_back(line);
    }
  }
  const std::vector<std::string> want = {
      "7x9x15 linkx2: detour[3]((direct 1x3x5 * direct 7x3x3))"
      " digest=9fb8378ba3d0130e",
      "7x9x15 linkx7: detour[8]((direct 1x3x5 * direct 7x3x3))"
      " digest=3e358f541ae425ea",
      "7x9x15 nodex1: remap[xor 0x2](detour[1]((direct 1x3x5 * direct"
      " 7x3x3))) digest=767d31b268e90466",
      "7x9x15 nodex4: degrade(contract[1x3x1 * gray 8x4x16] into"
      " subcube[mask=0x1 val=0x1]) digest=f4c2c917f00aead7",
      "7x9x15 nodex12: degrade(contract[1x5x1 * gray 8x2x16] into"
      " subcube[mask=0x41 val=0x40]) digest=eab1c39df533dc1e",
      "11x13x23 linkx2: detour[2](sub<11x13x23>(gray 4x2x8 * direct 3x7x3))"
      " digest=6a8ae2bcaa762ee7",
      "11x13x23 linkx7: detour[7](sub<11x13x23>(gray 4x2x8 * direct 3x7x3))"
      " digest=565264fd2f566db8",
      "11x13x23 nodex1: remap[xor 0x7](sub<11x13x23>(gray 4x2x8 * direct"
      " 3x7x3)) digest=722830e2bc236053",
      "11x13x23 nodex4: remap[xor 0x1e1](sub<11x13x23>(gray 4x2x8 * direct"
      " 3x7x3)) digest=78b6e9901163561b",
      "11x13x23 nodex12: degrade(contract[1x1x6 * gray 16x16x4] into"
      " subcube[mask=0x3 val=0x2]) digest=04530859b1ac9e4b",
  };
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], i < want.size() ? want[i] : "") << "line " << i;
}

}  // namespace
}  // namespace hj::recovery
