// E20 — fault storms: survival under correlated failure pressure, and
// what graceful degradation costs on big cubes.
//
// For meshes filling 2^10-, 2^12- and 2^14-node cubes, generate seeded
// correlated storms (StormGenerator: regional Hamming-ball clusters,
// cascading link hazards, bursty arrival trains, optional flapping
// links) and replay each against a live stencil run with the full
// recovery stack: escalating ladder under the per-epoch backoff budget,
// capacity-limited quarantine with LRU probing, storm-aware watchdog.
// Every run terminates in an explicit verdict — certified, degraded
// (with uncovered-node report and, when repair is provably impossible,
// a lower-bound witness), or failed — never a thrash loop.
//
// One JSON row per run ("row":"storm"): verdict, delivery accounting,
// epochs, quarantine traffic, denied repairs, deferred watchdogs. One
// row per (shape, kind, intensity) cell ("row":"survival"): the
// certified/degraded/failed split across seeds — the survival curve vs
// storm intensity. Rows go to stdout AND BENCH_storm.json; the schema
// is enforced by tools/check_bench.py.
//
// `exp_storm --quick` runs a small-cube smoke configuration (CI: a
// 200-arrival storm on a few-hundred-node cube in seconds).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "hypersim/live.hpp"
#include "hypersim/storm.hpp"
#include "manytoone/manytoone.hpp"
#include "rows.hpp"
#include "search/provider.hpp"

using namespace hj;

namespace {

struct Tally {
  u32 runs = 0;
  u32 certified = 0;
  u32 degraded = 0;
  u32 failed = 0;
};

std::string storm_row(const std::string& shape, u32 host_dim,
                      const std::string& method, const sim::StormSpec& spec,
                      const sim::Storm& storm,
                      const sim::LiveRunResult& live) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"row\":\"storm\",\"shape\":\"%s\",\"host_dim\":%u,"
      "\"method\":\"%s\",\"kind\":\"%s\",\"events\":%u,\"seed\":%llu,"
      "\"arrivals\":%u,\"flapping\":%llu,\"verdict\":\"%s\","
      "\"messages\":%llu,\"delivered\":%llu,\"failed\":%llu,"
      "\"epochs\":%u,\"repairs\":%llu,\"quarantined\":%llu,"
      "\"quarantine_evictions\":%llu,\"repairs_denied\":%llu,"
      "\"deferred_watchdogs\":%llu,\"uncovered\":%llu,\"witness\":%s,"
      "\"cycles\":%llu}\n",
      shape.c_str(), host_dim, method.c_str(),
      sim::storm_kind_name(spec.kind), spec.events,
      static_cast<unsigned long long>(spec.seed),
      storm.stats.node_events + storm.stats.link_events,
      static_cast<unsigned long long>(storm.flapping.size()),
      sim::verdict_name(live.verdict),
      static_cast<unsigned long long>(live.messages),
      static_cast<unsigned long long>(live.delivered),
      static_cast<unsigned long long>(live.failed), live.epochs,
      static_cast<unsigned long long>(live.log.size()),
      static_cast<unsigned long long>(live.quarantined),
      static_cast<unsigned long long>(live.quarantine_evictions),
      static_cast<unsigned long long>(live.repairs_denied),
      static_cast<unsigned long long>(live.deferred_watchdogs),
      static_cast<unsigned long long>(live.uncovered.size()),
      live.witness.empty() ? "false" : "true",
      static_cast<unsigned long long>(live.cycles));
  return buf;
}

std::string survival_row(const std::string& shape, u32 host_dim,
                         const std::string& method, sim::StormKind kind,
                         u32 events, const Tally& t) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"row\":\"survival\",\"shape\":\"%s\",\"host_dim\":%u,"
      "\"method\":\"%s\",\"kind\":\"%s\",\"events\":%u,\"runs\":%u,"
      "\"certified\":%u,\"degraded\":%u,\"failed\":%u}\n",
      shape.c_str(), host_dim, method.c_str(), sim::storm_kind_name(kind),
      events, t.runs, t.certified, t.degraded, t.failed);
  return buf;
}

/// One survival-curve cell: `seeds` storms of the given kind/intensity
/// against one planned embedding, then the aggregate row.
void run_cell(const PlanResult& plan, sim::StormKind kind, u32 events,
              u32 flapping, u32 seeds) {
  const std::string shape = plan.embedding->guest().shape().to_string();
  const u32 host_dim = plan.embedding->host_dim();
  // "Method" of the base embedding: its plan derivation, which names the
  // decomposition that produced it (direct / gray product / subcube...).
  const std::string method = plan.plan;
  Tally tally;
  for (u32 seed = 1; seed <= seeds; ++seed) {
    sim::StormSpec spec;
    spec.cube_dim = host_dim;
    spec.kind = kind;
    spec.events = events;
    spec.flapping_links = flapping;
    spec.seed = seed;
    // Compress the arrival train into the run's active window: bursts
    // land every few cycles from cycle 2, so repair epochs and fresh
    // arrivals overlap (sustained pressure) instead of the storm raging
    // over an already-drained network.
    spec.first_cycle = 2;
    spec.burst_size = 16;
    spec.burst_spacing = 2;
    spec.intra_burst_spacing = 0;
    const sim::Storm storm = sim::StormGenerator(spec).generate();

    sim::FaultModel faults;
    storm.install_flapping(faults);
    sim::LiveOptions opts;
    opts.sim.message_flits = 4;
    opts.sim.faults = &faults;
    opts.recovery.direct_provider = search::make_search_provider();
    opts.recovery.degrade_provider = m2o::make_degrade_provider();
    const sim::LiveRunResult live =
        sim::run_stencil_with_recovery(plan.embedding, storm.schedule, opts);

    ++tally.runs;
    switch (live.verdict) {
      case sim::Verdict::Certified: ++tally.certified; break;
      case sim::Verdict::Degraded: ++tally.degraded; break;
      case sim::Verdict::Failed: ++tally.failed; break;
    }
    bench::emit(storm_row(shape, host_dim, method, spec, storm, live));
  }
  bench::emit(survival_row(shape, host_dim, method, kind, events, tally));
}

PlanResult plan_shape(const Shape& shape) {
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  return planner.plan(shape);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const bench::RowFile rows("BENCH_storm.json");

  if (quick) {
    // CI smoke: a 200-arrival regional storm (plus flapping) on a
    // 256-node cube — every storm mechanism, seconds of runtime. 5x6x8
    // leaves 16 spare hosts, so the migrate rung has somewhere to go.
    const PlanResult plan = plan_shape(Shape{{5, 6, 8}});  // 240 on Q8
    run_cell(plan, sim::StormKind::Regional, 200, 2, 2);
    run_cell(plan, sim::StormKind::Cascading, 60, 0, 1);
  } else {
    // Survival curves vs storm intensity, 2^10 / 2^12 / 2^14-node hosts.
    // The curve shapes leave spare capacity (expansion > 1) so the cheap
    // rungs (reroute / migrate) can keep runs certified until the storm
    // eats the spares; the full-occupancy 16^3 cell has no spares at all,
    // so any node death forces the replan rung — pigeonhole rules out
    // every one-to-one repair and survival comes from the many-to-one
    // contraction (Section 7), the other face of graceful degradation.
    const PlanResult q10 = plan_shape(Shape{{7, 9, 13}});     // 819 on Q10
    const PlanResult q12 = plan_shape(Shape{{11, 13, 23}});   // 3289 on Q12
    const PlanResult q12f = plan_shape(Shape{{16, 16, 16}});  // 4096 on Q12
    const PlanResult q14 = plan_shape(Shape{{13, 25, 41}});   // 13325 on Q14
    for (const u32 events : {50u, 200u, 400u}) {
      run_cell(q10, sim::StormKind::Regional, events, 0, 3);
      run_cell(q12, sim::StormKind::Regional, events, 0, 3);
    }
    run_cell(q12f, sim::StormKind::Regional, 200, 0, 2);
    // Correlated-kind coverage on the acceptance cube (Q12): cascading
    // hazards, and a mixed storm with flapping links driving the
    // quarantine LRU.
    run_cell(q12, sim::StormKind::Cascading, 200, 0, 2);
    run_cell(q12, sim::StormKind::Mixed, 200, 4, 2);
    // Big-cube point: one 200-arrival regional storm on 2^14 nodes.
    run_cell(q14, sim::StormKind::Regional, 200, 0, 1);
  }

  return 0;
}
