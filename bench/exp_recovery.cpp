// E18 — live recovery: when faults arrive mid-run, what does each rung of
// the escalation ladder cost, and what does the ladder save over always
// replanning?
//
// For the Section 5 example shapes, replay seeded random FaultSchedules
// (>= 3 mid-run arrivals each) against a live stencil exchange twice: once
// with the full ladder (reroute / migrate / replan, cheapest certified
// rung wins) and once with the force_replan baseline. One JSON row per
// (shape, trial, mode, repair epoch): detection latency (cycles from
// arrival to the detector pausing the run), rung chosen, migration cost,
// post-repair dilation/congestion; plus a summary row per run with total
// cycles and delivery accounting. Per-rung wall time and attempt counts
// come from the observability layer, not from hand-rolled timers: wall
// time sums the recovery.<rung> trace spans, attempts and certified
// outcomes are the recovery.*.attempts/.certified registry counters. The
// trace and the registry are cleared before each run so every summary
// row reports exactly that run. Rows go to stdout AND to
// BENCH_recovery.json in the working directory.
#include <cstdio>
#include <string>
#include <vector>

#include "hypersim/live.hpp"
#include "manytoone/manytoone.hpp"
#include "obs/obs.hpp"
#include "rows.hpp"
#include "search/provider.hpp"

using namespace hj;

namespace {

std::string epoch_row(const char* shape, u32 trial, const char* mode,
                      u32 epoch, const sim::RecoveryEpochLog& e) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"shape\":\"%s\",\"trial\":%u,\"mode\":\"%s\",\"row\":\"epoch\","
      "\"epoch\":%u,\"arrival_cycle\":%llu,\"detect_cycle\":%llu,"
      "\"detect_latency\":%llu,\"fault\":\"%s\",\"rung\":\"%s\","
      "\"moved_nodes\":%llu,\"migration_cost\":%llu,\"dilation\":%u,"
      "\"congestion\":%u}\n",
      shape, trial, mode, epoch,
      static_cast<unsigned long long>(e.arrival_cycle),
      static_cast<unsigned long long>(e.detect_cycle),
      static_cast<unsigned long long>(e.detect_latency), e.fault.c_str(),
      e.rung.c_str(), static_cast<unsigned long long>(e.moved_nodes),
      static_cast<unsigned long long>(e.migration_cost), e.dilation,
      e.congestion);
  return buf;
}

/// Per-run rung economics, read back from the trace and the metrics
/// registry after a live run (both are cleared before each run).
struct RungCosts {
  u64 us[3] = {0, 0, 0};  // reroute, migrate, replan wall time
  u64 attempts = 0;
  u64 certified = 0;
};

RungCosts collect_rung_costs() {
  RungCosts c;
  auto& reg = obs::Registry::global();
  const char* rungs[3] = {"reroute", "migrate", "replan"};
  const std::vector<obs::TraceEvent> spans = obs::Trace::global().events();
  for (int i = 0; i < 3; ++i) {
    const std::string base = std::string("recovery.") + rungs[i];
    for (const obs::TraceEvent& e : spans)
      if (e.name == base) c.us[i] += e.dur_us;
    c.attempts += reg.counter(base + ".attempts").value();
    c.certified += reg.counter(base + ".certified").value();
  }
  return c;
}

std::string summary_row(const char* shape, u32 trial, const char* mode,
                        const sim::LiveRunResult& r, u64 total_cost,
                        const RungCosts& rc) {
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"shape\":\"%s\",\"trial\":%u,\"mode\":\"%s\",\"row\":\"run\","
      "\"ok\":%s,\"cycles\":%llu,\"messages\":%llu,\"delivered\":%llu,"
      "\"failed\":%llu,\"epochs\":%u,\"repairs\":%zu,"
      "\"total_migration_cost\":%llu,\"final_dilation\":%u,"
      "\"final_congestion\":%u,\"final_load\":%llu,"
      "\"reroute_us\":%llu,\"migrate_us\":%llu,\"replan_us\":%llu,"
      "\"rung_attempts\":%llu,\"rung_certified\":%llu}\n",
      shape, trial, mode, r.ok ? "true" : "false",
      static_cast<unsigned long long>(r.cycles),
      static_cast<unsigned long long>(r.messages),
      static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.failed), r.epochs, r.log.size(),
      static_cast<unsigned long long>(total_cost), r.report.dilation,
      r.report.congestion,
      static_cast<unsigned long long>(r.report.load_factor),
      static_cast<unsigned long long>(rc.us[0]),
      static_cast<unsigned long long>(rc.us[1]),
      static_cast<unsigned long long>(rc.us[2]),
      static_cast<unsigned long long>(rc.attempts),
      static_cast<unsigned long long>(rc.certified));
  return buf;
}

void run_shape(const Shape& shape) {
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  const PlanResult plan = planner.plan(shape);
  const std::string name = shape.to_string();

  for (u32 trial = 0; trial < 3; ++trial) {
    // >= 3 arrivals per schedule: 2 node deaths + 2 link cuts, spaced so
    // the run is still draining when they land.
    const sim::FaultSchedule schedule = sim::FaultSchedule::random(
        plan.embedding->host_dim(), /*node_events=*/2, /*link_events=*/2,
        /*first_cycle=*/3, /*spacing=*/8, /*seed=*/1000 + trial);
    for (const bool force_replan : {false, true}) {
      sim::LiveOptions opts;
      opts.sim.message_flits = 4;
      opts.recovery.force_replan = force_replan;
      opts.recovery.direct_provider = search::make_search_provider();
      opts.recovery.degrade_provider = m2o::make_degrade_provider();
      obs::Registry::global().reset();
      obs::Trace::global().clear();
      const sim::LiveRunResult live =
          sim::run_stencil_with_recovery(plan.embedding, schedule, opts);
      const RungCosts rung_costs = collect_rung_costs();
      const char* mode = force_replan ? "replan_baseline" : "ladder";
      u64 total_cost = 0;
      for (std::size_t i = 0; i < live.log.size(); ++i) {
        total_cost += live.log[i].migration_cost;
        bench::emit(epoch_row(name.c_str(), trial, mode,
                              static_cast<u32>(i), live.log[i]));
      }
      bench::emit(summary_row(name.c_str(), trial, mode, live, total_cost,
                              rung_costs));
    }
  }
}

}  // namespace

int main() {
  obs::set_enabled(true);  // rung economics come from spans + registry
  const bench::RowFile rows("BENCH_recovery.json");
  for (const Shape& s :
       {Shape{{3, 3, 7}}, Shape{{4, 4, 4}}, Shape{{7, 9}}})
    run_shape(s);
  return 0;
}
