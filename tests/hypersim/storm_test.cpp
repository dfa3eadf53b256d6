// Tests for the fault-storm engine: StormGenerator purity and the shape
// of each correlated failure model, the FaultSchedule duplicate-arrival
// guard, flapping-link determinism, the storm-aware watchdog and the
// quarantine LRU in the live driver, the Degraded verdict contract, a
// seeded 50-storm repair sweep that must be idempotent-when-certified
// and bit-identical at every thread count, pinned outcomes of seeded
// E20 storms, and pinned router paths under a storm's fault set.
#include "hypersim/storm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "core/parallel.hpp"
#include "core/recovery.hpp"
#include "core/router.hpp"
#include "hypersim/live.hpp"
#include "manytoone/manytoone.hpp"
#include "obs/obs.hpp"
#include "search/provider.hpp"

namespace hj::sim {
namespace {

// Restores the thread override even when an assertion fails mid-test.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { par::set_thread_override(0); }
};

PlanResult plan_shape(const Shape& shape) {
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  return planner.plan(shape);
}

LiveOptions full_options() {
  LiveOptions opts;
  opts.recovery.direct_provider = search::make_search_provider();
  opts.recovery.degrade_provider = m2o::make_degrade_provider();
  return opts;
}

u32 dist(CubeNode a, CubeNode b) {
  return static_cast<u32>(std::popcount(a ^ b));
}

// --- StormGenerator ---------------------------------------------------------

TEST(StormGenerator, PureFunctionOfTheSpec) {
  StormSpec spec;
  spec.cube_dim = 7;
  spec.kind = StormKind::Mixed;
  spec.events = 40;
  spec.flapping_links = 3;
  spec.seed = 5;
  const Storm a = StormGenerator(spec).generate();
  const Storm b = StormGenerator(spec).generate();
  EXPECT_EQ(a.schedule.events(), b.schedule.events());
  ASSERT_EQ(a.flapping.size(), b.flapping.size());
  for (std::size_t i = 0; i < a.flapping.size(); ++i) {
    EXPECT_EQ(a.flapping[i].a, b.flapping[i].a);
    EXPECT_EQ(a.flapping[i].b, b.flapping[i].b);
    EXPECT_EQ(a.flapping[i].phase, b.flapping[i].phase);
  }
  EXPECT_EQ(a.stats.node_events, b.stats.node_events);
  EXPECT_EQ(a.stats.link_events, b.stats.link_events);
  EXPECT_EQ(a.stats.dropped_events, b.stats.dropped_events);
  EXPECT_EQ(a.stats.span_cycles, b.stats.span_cycles);

  spec.seed = 6;
  const Storm c = StormGenerator(spec).generate();
  EXPECT_NE(a.schedule.events(), c.schedule.events());
}

TEST(StormGenerator, ValidatesTheSpec) {
  StormSpec good;
  good.cube_dim = 6;
  (void)StormGenerator(good);  // baseline: must not throw

  const auto broken = [&](auto&& tweak) {
    StormSpec s = good;
    tweak(s);
    EXPECT_THROW((void)StormGenerator(s), std::invalid_argument);
  };
  broken([](StormSpec& s) { s.cube_dim = 0; });
  broken([](StormSpec& s) { s.cube_dim = 31; });
  broken([](StormSpec& s) { s.node_fraction = 1.5; });
  broken([](StormSpec& s) { s.burst_size = 0; });
  broken([](StormSpec& s) { s.regions = 0; });
  broken([](StormSpec& s) { s.region_radius = 0; });
  broken([](StormSpec& s) { s.region_radius = s.cube_dim + 1; });
  broken([](StormSpec& s) { s.cascade_p = -0.1; });
  broken([](StormSpec& s) { s.max_fail_fraction = 0.0; });
  broken([](StormSpec& s) {
    s.flapping_links = 1;
    s.flap_down = s.flap_period;  // down window swallows the period
  });
}

TEST(StormGenerator, RegionalEventsStayInsideOneHammingBall) {
  StormSpec spec;
  spec.cube_dim = 8;
  spec.kind = StormKind::Regional;
  spec.events = 30;
  spec.node_fraction = 0.5;
  spec.regions = 1;
  spec.region_radius = 2;
  spec.max_fail_fraction = 1.0;
  spec.seed = 7;
  const Storm storm = StormGenerator(spec).generate();
  ASSERT_GE(storm.schedule.size(), 20u);

  // With a single epicenter, every failure's primary address lies in one
  // Hamming ball of the region radius (link far ends one hop further).
  // The epicenter is internal, so search all of Q8 for a ball that
  // covers the storm.
  bool covered = false;
  for (CubeNode c = 0; c < 256 && !covered; ++c) {
    covered = std::all_of(
        storm.schedule.events().begin(), storm.schedule.events().end(),
        [&](const FaultEvent& e) {
          if (e.is_node) return dist(e.a, c) <= spec.region_radius;
          // Link endpoints are canonicalized (a < b), so either end may
          // be the in-ball one; the other is at most one hop further.
          const u32 da = dist(e.a, c), db = dist(e.b, c);
          return std::min(da, db) <= spec.region_radius &&
                 std::max(da, db) <= spec.region_radius + 1;
        });
  }
  EXPECT_TRUE(covered) << "regional storm not contained in any radius-2 ball";
}

TEST(StormGenerator, CascadingFailuresTouchPreviousVictims) {
  StormSpec spec;
  spec.cube_dim = 8;
  spec.kind = StormKind::Cascading;
  spec.events = 24;
  spec.node_fraction = 0.4;
  spec.cascade_p = 1.0;  // every failure must feed on an earlier victim
  spec.max_fail_fraction = 1.0;
  // One event per cycle so schedule order equals generation order.
  spec.burst_size = 1;
  spec.burst_spacing = 1;
  spec.intra_burst_spacing = 0;
  spec.seed = 11;
  const Storm storm = StormGenerator(spec).generate();
  ASSERT_GE(storm.schedule.size(), 10u);

  std::vector<CubeNode> victims;
  for (const FaultEvent& e : storm.schedule.events()) {
    if (!victims.empty()) {
      u32 best = ~u32{0};
      for (const CubeNode v : victims) best = std::min(best, dist(e.a, v));
      if (e.is_node)
        EXPECT_LE(best, 1u) << "cascading node death away from every victim";
      else
        EXPECT_EQ(best, 0u) << "cascading link cut away from every victim";
    }
    victims.push_back(e.a);
    if (!e.is_node) victims.push_back(e.b);
  }
}

TEST(StormGenerator, BurstyTimingFormsArrivalTrains) {
  StormSpec spec;
  spec.cube_dim = 6;
  spec.kind = StormKind::Bursty;
  spec.events = 8;
  spec.burst_size = 4;
  spec.first_cycle = 10;
  spec.burst_spacing = 100;
  spec.intra_burst_spacing = 3;
  spec.max_fail_fraction = 1.0;
  spec.seed = 3;
  const Storm storm = StormGenerator(spec).generate();
  ASSERT_EQ(storm.schedule.size(), 8u);
  EXPECT_EQ(storm.stats.dropped_events, 0u);
  const u64 expected[] = {10, 13, 16, 19, 110, 113, 116, 119};
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(storm.schedule.events()[i].cycle, expected[i]) << "event " << i;
  EXPECT_EQ(storm.stats.span_cycles, 109u);
}

TEST(StormGenerator, FailFractionCapDropsAndAccounts) {
  StormSpec spec;
  spec.cube_dim = 4;  // 16 nodes; cap 0.25 allows at most 4 dead
  spec.events = 500;
  spec.node_fraction = 1.0;  // every arrival wants to be a node death
  spec.max_fail_fraction = 0.25;
  spec.seed = 9;
  const Storm storm = StormGenerator(spec).generate();
  EXPECT_EQ(storm.stats.node_events, 4u);
  EXPECT_EQ(storm.stats.link_events, 0u);
  // Unplaceable events are dropped and counted, never silent.
  EXPECT_EQ(storm.stats.node_events + storm.stats.link_events +
                storm.stats.dropped_events,
            spec.events);
}

TEST(StormGenerator, FlappingLinksAreDistinctValidAndInstallable) {
  StormSpec spec;
  spec.cube_dim = 5;
  spec.events = 0;  // flapping only
  spec.flapping_links = 4;
  spec.flap_period = 16;
  spec.flap_down = 4;
  spec.seed = 2;
  const Storm storm = StormGenerator(spec).generate();
  EXPECT_TRUE(storm.schedule.empty());
  ASSERT_EQ(storm.flapping.size(), 4u);
  std::vector<u64> keys;
  for (const FlapSpec& f : storm.flapping) {
    EXPECT_TRUE(Hypercube::adjacent(f.a, f.b));
    EXPECT_LT(f.a, f.b);
    EXPECT_EQ(f.period, 16u);
    EXPECT_EQ(f.down, 4u);
    EXPECT_LT(f.phase, f.period);
    keys.push_back(Hypercube::edge_key(f.a, f.b));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "flapping links must be distinct";

  FaultModel model;
  storm.install_flapping(model);
  EXPECT_EQ(model.num_flapping(), 4u);
}

TEST(StormSpecParse, RoundTripAndErrors) {
  const StormSpec s = parse_storm_spec(
      "kind=cascading,events=7,seed=11,node_frac=0.5,first=9,burst=3,"
      "spacing=50,gap=2,regions=2,radius=3,cascade_p=0.25,cap=0.5,"
      "flap=2,flap_period=20,flap_down=5",
      6);
  EXPECT_EQ(s.cube_dim, 6u);
  EXPECT_EQ(s.kind, StormKind::Cascading);
  EXPECT_EQ(s.events, 7u);
  EXPECT_EQ(s.seed, 11u);
  EXPECT_DOUBLE_EQ(s.node_fraction, 0.5);
  EXPECT_EQ(s.first_cycle, 9u);
  EXPECT_EQ(s.burst_size, 3u);
  EXPECT_EQ(s.burst_spacing, 50u);
  EXPECT_EQ(s.intra_burst_spacing, 2u);
  EXPECT_EQ(s.regions, 2u);
  EXPECT_EQ(s.region_radius, 3u);
  EXPECT_DOUBLE_EQ(s.cascade_p, 0.25);
  EXPECT_DOUBLE_EQ(s.max_fail_fraction, 0.5);
  EXPECT_EQ(s.flapping_links, 2u);
  EXPECT_EQ(s.flap_period, 20u);
  EXPECT_EQ(s.flap_down, 5u);

  // Unset keys keep their defaults.
  const StormSpec d = parse_storm_spec("events=3", 4);
  EXPECT_EQ(d.cube_dim, 4u);
  EXPECT_EQ(d.kind, StormKind::Regional);
  EXPECT_EQ(d.events, 3u);
  EXPECT_EQ(d.burst_size, StormSpec{}.burst_size);

  EXPECT_THROW((void)parse_storm_spec("bogus=1", 4), std::invalid_argument);
  EXPECT_THROW((void)parse_storm_spec("events=abc", 4),
               std::invalid_argument);
  EXPECT_THROW((void)parse_storm_spec("kind=tornado", 4),
               std::invalid_argument);
  EXPECT_THROW((void)parse_storm_spec("events", 4), std::invalid_argument);
  // Numbers parse strictly: no sign, space or suffix, and nothing past the
  // field's range (the u32 fields stop at 2^32 - 1, so they cannot wrap).
  for (const char* bad :
       {"events=-1", "events=+7", "events= 7", "events=7 ", "events=7k",
        "events=4294967296", "radius=4294967297", "burst=-0",
        "seed=12345678901234567890123", "first=99999999999999999999",
        "node_frac= 0.5", "cap=0.5x", "events="})
    EXPECT_THROW((void)parse_storm_spec(bad, 4), std::invalid_argument)
        << bad;
  EXPECT_EQ(parse_storm_spec("events=4294967295", 4).events, 4294967295u);
  EXPECT_EQ(parse_storm_spec("seed=18446744073709551615", 4).seed,
            ~u64{0});
}

// --- FaultSchedule duplicate-arrival guard ----------------------------------

TEST(FaultScheduleStorm, RejectsDuplicateArrivals) {
  FaultSchedule s;
  s.add_node_failure(5, 3);
  // Hardware dies at most once — a second arrival for the same node, at
  // any cycle, is a schedule bug.
  EXPECT_THROW(s.add_node_failure(9, 3), std::invalid_argument);
  s.add_link_failure(5, 0, 1);
  EXPECT_THROW(s.add_link_failure(7, 0, 1), std::invalid_argument);
  // Links are canonicalized, so the reversed duplicate is caught too.
  EXPECT_THROW(s.add_link_failure(7, 1, 0), std::invalid_argument);
  s.add_link_failure(7, 1, 3);  // distinct hardware is fine
  EXPECT_EQ(s.size(), 3u);

  // The guard also covers the file-parse path.
  EXPECT_THROW((void)FaultSchedule::parse("1 node 2\n3 node 2\n"),
               std::invalid_argument);
}

// --- Flapping links ---------------------------------------------------------

TEST(FlapModel, DeterministicDutyCycle) {
  FaultModel m;
  m.add_flapping(FlapSpec{0, 1, /*period=*/8, /*down=*/3, /*phase=*/2});
  for (u64 cycle = 0; cycle < 24; ++cycle) {
    const bool expect_down = (cycle + 2) % 8 < 3;
    EXPECT_EQ(m.flapping_down(cycle, 0, 1), expect_down) << "cycle " << cycle;
    EXPECT_EQ(m.flapping_down(cycle, 1, 0), expect_down) << "cycle " << cycle;
    EXPECT_FALSE(m.flapping_down(cycle, 2, 3));  // unregistered link
  }
  EXPECT_THROW(m.add_flapping(FlapSpec{0, 3, 8, 3, 0}),
               std::invalid_argument);  // not a cube link
  EXPECT_THROW(m.add_flapping(FlapSpec{0, 1, 8, 8, 0}),
               std::invalid_argument);  // down window swallows the period
}

TEST(FlapModel, LaterSpecReplacesEarlierForTheSameLink) {
  // Registered out of key order; the re-registration of 4-5 (given as
  // 5-4) replaces its spec instead of adding a second entry.
  FaultModel m;
  m.add_flapping(FlapSpec{4, 5, /*period=*/8, /*down=*/1, /*phase=*/0});
  m.add_flapping(FlapSpec{0, 1, 8, 2, 0});
  m.add_flapping(FlapSpec{2, 6, 8, 3, 0});
  m.add_flapping(FlapSpec{5, 4, 8, 4, 0});
  EXPECT_EQ(m.num_flapping(), 3u);
  for (u64 cycle = 0; cycle < 8; ++cycle) {
    EXPECT_EQ(m.flapping_down(cycle, 0, 1), cycle < 2) << "cycle " << cycle;
    EXPECT_EQ(m.flapping_down(cycle, 6, 2), cycle < 3) << "cycle " << cycle;
    EXPECT_EQ(m.flapping_down(cycle, 4, 5), cycle < 4) << "cycle " << cycle;
    EXPECT_FALSE(m.flapping_down(cycle, 4, 6));  // unregistered link
  }
}

// --- Storm-aware watchdog ---------------------------------------------------

TEST(RunLiveStorm, WatchdogDefersCongestionStalls) {
  // Three 8-flit messages contend for the single link 0->1 on a healthy
  // cube: the losers make no progress for >= watchdog_cycles, but every
  // stall cycle is bandwidth blocking, not a transmission failure — the
  // watchdog must defer ("saturated, not dead") instead of promoting a
  // healthy link to suspect, and the run must still drain.
  SimConfig cfg{3};
  cfg.message_flits = 8;
  cfg.watchdog_cycles = 8;
  CubeNetwork net(cfg);
  (void)net.add_message(CubePath{0, 1});
  (void)net.add_message(CubePath{0, 1});
  (void)net.add_message(CubePath{0, 1});
  const LiveEpochResult r = net.run_live(0, FaultSchedule{});
  EXPECT_TRUE(r.drained());
  EXPECT_FALSE(r.detected);
  EXPECT_EQ(r.delivered, 3u);
  EXPECT_GE(r.deferred_watchdogs, 1u);
}

// --- Quarantine LRU ---------------------------------------------------------

TEST(LiveStorm, QuarantineLruEvictsAtCapacityAndStillCertifies) {
  // A heavy persistent transient trips detection on many distinct links;
  // with capacity 1 every new quarantine evicts (heals) the previous
  // one. The ground truth is fault-free, so the run must still end
  // certified: evicted links really were healthy.
  const PlanResult base = plan_shape(Shape{3, 3, 3});
  FaultModel transient;
  transient.set_transient(0.8, 7);
  LiveOptions opts = full_options();
  opts.sim.faults = &transient;
  opts.quarantine_capacity = 1;
  const LiveRunResult r =
      run_stencil_with_recovery(base.embedding, FaultSchedule{}, opts);
  EXPECT_EQ(r.delivered + r.failed, r.messages);
  EXPECT_GE(r.quarantined, 2u);
  EXPECT_GE(r.quarantine_evictions, 1u);
  EXPECT_TRUE(r.report.valid);
  EXPECT_TRUE(r.report.fault_free);
}

// --- The Degraded verdict ---------------------------------------------------

TEST(LiveStorm, DegradedVerdictCarriesWitness) {
  // 2x2x2 fills Q3 exactly; a node death leaves 8 guests and 7 healthy
  // hosts. Without a degrade provider no contraction can save the run:
  // the controller must produce the pigeonhole witness and the driver
  // must end Degraded — a valid partial embedding plus the lower-bound
  // evidence — rather than thrash the ladder.
  const PlanResult base = plan_shape(Shape{2, 2, 2});
  ASSERT_TRUE(base.report.valid);
  FaultSchedule schedule;
  schedule.add_node_failure(1, base.embedding->map(0));
  LiveOptions opts;
  opts.recovery.direct_provider = search::make_search_provider();
  opts.sim.message_flits = 4;
  const LiveRunResult r =
      run_stencil_with_recovery(base.embedding, schedule, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.verdict, Verdict::Degraded);
  EXPECT_TRUE(r.report.valid);
  EXPECT_FALSE(r.witness.empty());
  EXPECT_EQ(r.delivered + r.failed, r.messages);
  // The JSON log carries the verdict contract for downstream tools.
  const std::string json = recovery_log_json(r);
  EXPECT_NE(json.find("\"verdict\": \"degraded\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"witness\""), std::string::npos) << json;
}

TEST(LiveStorm, VerdictNamesAreStable) {
  EXPECT_STREQ(verdict_name(Verdict::Certified), "certified");
  EXPECT_STREQ(verdict_name(Verdict::Degraded), "degraded");
  EXPECT_STREQ(verdict_name(Verdict::Failed), "failed");
}

// --- Seeded 50-storm repair sweep -------------------------------------------

TEST(StormDeterminism, RepairSweepIdempotentAndIdenticalAtEveryThreadCount) {
  // For 50 seeded storms, feed the arrivals one at a time into a
  // RecoveryController (as the live driver does, one start_epoch per
  // arrival). Whenever a repair certifies, repairing the already-repaired
  // embedding against the same fault set must be a no-op (idempotence);
  // and the full transcript of outcomes — rungs, descs, embeddings —
  // must be bit-identical at HJ_THREADS 1, 2 and 8.
  const ThreadOverrideGuard guard;
  std::string ref_digest;
  for (const u32 threads : {1u, 2u, 8u}) {
    par::set_thread_override(threads);
    const PlanResult base = plan_shape(Shape{3, 3, 3});
    const u32 host_dim = base.embedding->host_dim();
    const u32 inner = recovery::inner_factor_dim(*base.embedding);
    std::string digest;
    for (u64 seed = 1; seed <= 50; ++seed) {
      StormSpec spec;
      spec.cube_dim = host_dim;
      spec.kind = seed % 2 == 0 ? StormKind::Regional : StormKind::Cascading;
      spec.events = 6;
      spec.node_fraction = 0.3;
      spec.seed = seed;
      const Storm storm = StormGenerator(spec).generate();

      recovery::RecoveryOptions ropts;
      ropts.direct_provider = search::make_search_provider();
      ropts.degrade_provider = m2o::make_degrade_provider();
      recovery::RecoveryController controller(Shape{3, 3, 3}, ropts);
      EmbeddingPtr current = base.embedding;
      FaultSet faults;
      digest += "storm " + std::to_string(seed) + "\n";
      for (const FaultEvent& e : storm.schedule.events()) {
        if (e.is_node)
          faults.fail_node(e.a);
        else
          faults.fail_link(e.a, e.b);
        controller.start_epoch();
        const recovery::RepairResult repair = controller.repair(
            *current, faults, base.report.dilation, inner);
        digest += e.to_string() + " -> ";
        if (!repair.ok) {
          digest += "fail(" + repair.desc + ")\n";
          continue;  // accumulate more damage against the old embedding
        }
        digest += repair.desc + "\n" + io::to_text(*repair.embedding);
        // Idempotence: a certified embedding needs no further repair.
        const recovery::RepairResult again = controller.repair(
            *repair.embedding, faults, base.report.dilation, inner);
        ASSERT_TRUE(again.ok) << "re-repair of a certified embedding failed";
        EXPECT_EQ(again.moved_nodes, 0u);
        EXPECT_EQ(again.migration_cost, 0u);
        EXPECT_EQ(io::to_text(*again.embedding),
                  io::to_text(*repair.embedding))
            << "repair of an already-certified embedding changed it";
        current = repair.embedding;
      }
    }
    if (ref_digest.empty()) {
      ref_digest = digest;
      EXPECT_NE(digest.find("migrate"), std::string::npos)
          << "sweep should exercise the migrate rung";
    } else {
      EXPECT_EQ(digest, ref_digest)
          << "repair transcript differs at " << threads << " threads";
    }
  }
}

// --- Golden E20 storms -------------------------------------------------------

// Restores the observability gate the test found.
struct ObsGuard {
  bool was = obs::enabled();
  ~ObsGuard() { obs::set_enabled(was); }
};

struct GoldenStorm {
  u32 base;  // index into the base shapes: 0 = Q10, 1 = Q12
  StormKind kind;
  u32 events;
  u32 flapping;
  u64 seed;
  const char* outcome;
  u64 detections;
};

/// One storm in the E20 configuration (message_flits = 4, both providers,
/// arrivals compressed into the run's first cycles), as a digest of what
/// the run reports. `detections` receives the detection layer's count.
std::string storm_outcome(const PlanResult& base, const GoldenStorm& g,
                          u64& detections) {
  StormSpec spec;
  spec.cube_dim = base.embedding->host_dim();
  spec.kind = g.kind;
  spec.events = g.events;
  spec.flapping_links = g.flapping;
  spec.seed = g.seed;
  spec.first_cycle = 2;
  spec.burst_size = 16;
  spec.burst_spacing = 2;
  spec.intra_burst_spacing = 0;
  const Storm storm = StormGenerator(spec).generate();
  FaultModel faults;
  storm.install_flapping(faults);
  LiveOptions opts = full_options();
  opts.sim.message_flits = 4;
  opts.sim.faults = &faults;
  obs::Counter& detected =
      obs::Registry::global().counter("sim.live.detections");
  const u64 before = detected.value();
  const LiveRunResult r =
      run_stencil_with_recovery(base.embedding, storm.schedule, opts);
  detections = detected.value() - before;
  std::string d = std::string(verdict_name(r.verdict)) +
                  " epochs=" + std::to_string(r.epochs) +
                  " cycles=" + std::to_string(r.cycles) +
                  " delivered=" + std::to_string(r.delivered) +
                  " dropped=" + std::to_string(r.dropped_flits) +
                  " deferred=" + std::to_string(r.deferred_watchdogs) +
                  " rungs=";
  for (const RecoveryEpochLog& e : r.log) d += e.rung + ",";
  return d;
}

TEST(StormGolden, E20StormOutcomesArePinned) {
  // The simulator and the recovery ladder are deterministic, so these
  // outcomes are exact: a change that only makes storms cheaper must
  // reproduce every verdict, cycle count, drop count, detection and
  // repair rung.
  const ObsGuard guard;
  obs::set_enabled(true);
  const PlanResult bases[] = {plan_shape(Shape{7, 9, 15}),
                              plan_shape(Shape{11, 13, 23})};
  ASSERT_EQ(bases[0].embedding->host_dim(), 10u);
  ASSERT_EQ(bases[1].embedding->host_dim(), 12u);
  const GoldenStorm storms[] = {
      {0, StormKind::Regional, 200, 0, 1,
       "certified epochs=4 cycles=33 delivered=5064 dropped=410 deferred=0 "
       "rungs=replan,replan,replan,replan,",
       70},
      {0, StormKind::Cascading, 120, 0, 2,
       "degraded epochs=5 cycles=29 delivered=5064 dropped=480 deferred=0 "
       "rungs=replan,replan,replan,replan,replan,",
       83},
      {0, StormKind::Mixed, 120, 4, 3,
       "certified epochs=6 cycles=33 delivered=5064 dropped=541 deferred=0 "
       "rungs=replan,replan,replan,replan,replan,replan,",
       96},
      {1, StormKind::Regional, 400, 0, 1,
       "certified epochs=4 cycles=25 delivered=18344 dropped=450 deferred=0 "
       "rungs=replan,replan,replan,replan,",
       84},
      {1, StormKind::Cascading, 200, 0, 2,
       "degraded epochs=4 cycles=37 delivered=18344 dropped=267 deferred=0 "
       "rungs=replan,migrate,replan,replan,",
       48},
      {1, StormKind::Mixed, 200, 4, 3,
       "certified epochs=4 cycles=37 delivered=18344 dropped=889 deferred=0 "
       "rungs=migrate,migrate,replan,replan,",
       175},
      // Light storms, where the cheap rungs win.
      {0, StormKind::Cascading, 6, 0, 4,
       "certified epochs=1 cycles=21 delivered=5064 dropped=72 deferred=0 "
       "rungs=migrate,",
       17},
      {0, StormKind::Mixed, 10, 2, 5,
       "certified epochs=4 cycles=24 delivered=5064 dropped=240 deferred=0 "
       "rungs=reroute,replan,reroute,reroute,",
       36},
      {1, StormKind::Regional, 12, 0, 6,
       "certified epochs=1 cycles=17 delivered=18344 dropped=74 deferred=0 "
       "rungs=migrate,",
       18},
  };
  for (const GoldenStorm& g : storms) {
    u64 detections = 0;
    const std::string outcome = storm_outcome(bases[g.base], g, detections);
    const std::string what = std::string(storm_kind_name(g.kind)) + " Q" +
                             std::to_string(g.base == 0 ? 10 : 12) +
                             " seed " + std::to_string(g.seed);
    EXPECT_EQ(outcome, g.outcome) << what;
    if (obs::enabled()) {
      EXPECT_EQ(detections, g.detections) << what;
    }
  }
}

// --- Golden router paths -----------------------------------------------------

/// FNV-1a over every guest edge's (endpoints, axis, cube path), in edge
/// order: any change to a chosen path, not just to a verdict, moves it.
u64 path_digest(const ExplicitEmbedding& emb) {
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

TEST(RouterGolden, PathsUnderRegionalStormArePinned) {
  // The StormGolden outcomes only see verdicts; a router tie-break change
  // can keep every verdict and still move paths. Pin the paths the three
  // routers choose on the Q12 base, the detours under a regional storm's
  // full fault set included.
  const PlanResult base = plan_shape(Shape{11, 13, 23});
  ASSERT_EQ(base.embedding->host_dim(), 12u);
  std::vector<CubeNode> nodes;
  base.embedding->map_all(nodes);
  const auto fresh = [&] {
    return ExplicitEmbedding(base.embedding->guest(), 12, nodes);
  };

  StormSpec spec;
  spec.cube_dim = 12;
  spec.kind = StormKind::Regional;
  spec.events = 400;
  spec.seed = 1;
  const Storm storm = StormGenerator(spec).generate();
  FaultSet faults;
  std::size_t cursor = 0;
  storm.schedule.apply_until(~u64{0}, faults, cursor);
  ASSERT_EQ(cursor, storm.schedule.size());

  ExplicitEmbedding routed = fresh();
  const RouteStats rs = route_minimize_congestion(routed);
  EXPECT_EQ(path_digest(routed), 0x87497e6b01a1452bull);
  EXPECT_EQ(rs.congestion, 2u);
  EXPECT_EQ(rs.passes_used, 3u);
  EXPECT_EQ(rs.rerouted_edges, 5u);

  ExplicitEmbedding balanced = fresh();
  const RouteStats bs = route_balanced(balanced);
  EXPECT_EQ(path_digest(balanced), 0x4264b66c682dfa03ull);
  EXPECT_EQ(bs.congestion, 2u);
  EXPECT_EQ(bs.rerouted_edges, 272u);

  const DetourStats ds = route_around_faults(routed, faults);
  EXPECT_EQ(path_digest(routed), 0xe05b45e8ddd609d6ull);
  EXPECT_FALSE(ds.ok);
  EXPECT_EQ(ds.detoured_edges, 107u);
  EXPECT_EQ(ds.unroutable_edges, 439u);
  EXPECT_EQ(ds.max_added_dilation, 2u);
  EXPECT_EQ(ds.congestion, 4u);
}

}  // namespace
}  // namespace hj::sim
