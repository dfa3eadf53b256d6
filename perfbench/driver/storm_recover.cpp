// Workload storm_recover: the hypersim cycle loop, live detection and
// diagnosis, and the recovery ladder under correlated fault storms.
//
// The E20 configuration: message_flits = 4, the search and degrade
// providers attached, storms compressed into the run's active window.
// Set-up plans the 11x13x23 (Q12) and 13x25x41 (Q14) base embeddings.
// The timed window runs whole rounds of a fixed storm list (regional,
// cascading, and mixed with flapping links, 200-400 arrivals, on both
// cubes), each storm seeded from (seed, round, slot), until --seconds
// pass. The latency unit is a round: a single storm's time depends on
// its cube (Q12 storms take a fraction of a Q14 storm's), so the median
// storm would jump between the two groups from seed to seed.
//
// Gates: every LiveRunResult's delivered/failed accounting and verdict
// must be consistent, an independent verify() of the final embedding
// against the faults that arrived must agree with the run's own
// certificate, and round 0 re-run after the window must reproduce each
// storm's verdict/epochs/cycles digest.
#include <string>

#include "bench.hpp"
#include "hypersim/live.hpp"
#include "hypersim/storm.hpp"
#include "manytoone/manytoone.hpp"

namespace perfbench {
namespace {

struct StormSlot {
  u32 cube;  // index into the base plans: 0 = Q12, 1 = Q14
  hj::sim::StormKind kind;
  u32 events;
  u32 flapping;
};

constexpr StormSlot kRound[] = {
    {0, hj::sim::StormKind::Regional, 400, 0},
    {0, hj::sim::StormKind::Cascading, 200, 0},
    {0, hj::sim::StormKind::Mixed, 200, 4},
    {1, hj::sim::StormKind::Regional, 200, 0},
    {1, hj::sim::StormKind::Cascading, 200, 0},
    {1, hj::sim::StormKind::Mixed, 200, 4},
};
constexpr u32 kSlots = sizeof kRound / sizeof kRound[0];

std::vector<hj::PlanResult> plan_bases(const hj::DirectProviderFactory& f) {
  hj::Planner planner;
  planner.set_direct_provider(f());
  return {planner.plan(hj::Shape{11, 13, 23}),
          planner.plan(hj::Shape{13, 25, 41})};
}

struct StormRun {
  hj::sim::LiveRunResult live;
  hj::sim::Storm storm;
  double seconds = 0;
};

StormRun run_storm(const hj::PlanResult& base, const StormSlot& slot,
                   u64 seed, const hj::DirectProviderFactory& provider) {
  hj::sim::StormSpec spec;
  spec.cube_dim = base.embedding->host_dim();
  spec.kind = slot.kind;
  spec.events = slot.events;
  spec.flapping_links = slot.flapping;
  spec.seed = seed;
  spec.first_cycle = 2;
  spec.burst_size = 16;
  spec.burst_spacing = 2;
  spec.intra_burst_spacing = 0;
  StormRun run;
  run.storm = hj::sim::StormGenerator(spec).generate();

  hj::sim::FaultModel faults;
  run.storm.install_flapping(faults);
  hj::sim::LiveOptions opts;
  opts.sim.message_flits = 4;
  opts.sim.faults = &faults;
  opts.recovery.direct_provider = provider();
  opts.recovery.degrade_provider = hj::m2o::make_degrade_provider();
  ScopedSpan span("hypersim.run_stencil_with_recovery");
  const u64 t0 = now_ns();
  run.live = hj::sim::run_stencil_with_recovery(base.embedding,
                                                run.storm.schedule, opts);
  run.seconds = secs(now_ns() - t0);
  return run;
}

/// Verdict, accounting and repair history of one run.
std::string outcome_digest(const hj::sim::LiveRunResult& r) {
  std::string d = std::string(hj::sim::verdict_name(r.verdict)) +
                  " epochs=" + std::to_string(r.epochs) +
                  " cycles=" + std::to_string(r.cycles) +
                  " delivered=" + std::to_string(r.delivered) +
                  " failed=" + std::to_string(r.failed) + " rungs=";
  for (const hj::sim::RecoveryEpochLog& e : r.log) d += e.rung + ",";
  return d;
}

/// Accounting and certificate gate; returns "" when the run is sound.
std::string check_run(const StormRun& run) {
  const hj::sim::LiveRunResult& r = run.live;
  if (r.delivered > r.messages || r.delivered + r.failed != r.messages)
    return "delivered/failed do not add up to messages";
  if ((r.verdict == hj::sim::Verdict::Certified) != r.ok)
    return "verdict disagrees with ok";
  if (r.ok && (r.failed != 0 || !r.report.valid || !r.report.fault_free))
    return "certified run with failures or an invalid certificate";
  if (r.verdict == hj::sim::Verdict::Degraded && r.failed > 0 &&
      r.uncovered.empty())
    return "degraded run without an uncovered-node report";
  if (r.log.size() > r.epochs) return "more repairs than epochs";
  if (!r.embedding) return "no final embedding";
  // Independent re-certification against every arrival up to the end.
  hj::FaultSet truth;
  std::size_t cursor = 0;
  run.storm.schedule.apply_until(r.cycles, truth, cursor);
  hj::VerifyReport v;
  {
    ScopedSpan span("core.verify");
    v = hj::verify(*r.embedding, truth);
  }
  if (v.valid != r.report.valid || v.fault_free != r.report.fault_free ||
      v.dilation != r.report.dilation ||
      v.congestion != r.report.congestion ||
      v.wirelength != r.report.wirelength)
    return "independent verify disagrees with the run's certificate";
  return "";
}

}  // namespace

RunResult run_storm_recover(const RunContext& ctx) {
  RunResult res;
  ProviderStats pstats;
  const hj::DirectProviderFactory provider = counted_search_provider(pstats);

  std::vector<double> setup_s = forked_setup_seconds(
      [&](const std::string&) { (void)plan_bases(provider); }, 2);
  std::vector<hj::PlanResult> bases;
  {
    const u64 t0 = now_ns();
    bases = plan_bases(provider);
    setup_s.push_back(secs(now_ns() - t0));
  }

  std::vector<double> storm_s, round_s;
  std::vector<std::string> round0;
  u64 epochs = 0, cycles = 0, verdict_certified = 0;
  u64 rung_reroute = 0, rung_migrate = 0, rung_replan = 0, verify_ns = 0;
  u64 verify_edges = 0;
  const u64 window0 = now_ns();
  u32 rounds = 0;
  for (u64 r = 0; r == 0 || secs(now_ns() - window0) < ctx.seconds; ++r) {
    round_s.push_back(0);
    for (u32 i = 0; i < kSlots; ++i) {
      const u64 unit = r * kSlots + i + 1;
      ScopedSpan span("bench.storm", unit);
      const StormRun run = run_storm(bases[kRound[i].cube], kRound[i],
                                     mix(ctx.seed, unit), provider);
      storm_s.push_back(run.seconds);
      round_s.back() += run.seconds;
      res.attempted += 1;
      const u64 tv = now_ns();
      const std::string why = check_run(run);
      verify_ns += now_ns() - tv;
      verify_edges += run.live.report.guest_edges;
      if (!why.empty()) res.fail(1, "storm " + std::to_string(unit) + ": " + why);
      if (r == 0) round0.push_back(outcome_digest(run.live));
      epochs += run.live.epochs;
      cycles += run.live.cycles;
      if (run.live.verdict == hj::sim::Verdict::Certified) ++verdict_certified;
      for (const hj::sim::RecoveryEpochLog& e : run.live.log) {
        rung_reroute += e.rung == "reroute";
        rung_migrate += e.rung == "migrate";
        rung_replan += e.rung == "replan";
      }
    }
    ++rounds;
  }

  const double provider_calls = static_cast<double>(pstats.calls.load());
  const double provider_hits = static_cast<double>(pstats.hits.load());
  const double provider_s = secs(pstats.ns.load());

  // Gate: round 0 again, outside the window, must repeat exactly.
  for (u32 i = 0; i < kSlots; ++i) {
    const StormRun run = run_storm(bases[kRound[i].cube], kRound[i],
                                   mix(ctx.seed, i + 1), provider);
    if (outcome_digest(run.live) != round0[i])
      res.fail(1, "storm " + std::to_string(i + 1) +
                      " did not repeat: " + round0[i] + " vs " +
                      outcome_digest(run.live));
  }

  double total_s = 0;
  for (const double d : storm_s) total_s += d;
  const double n = static_cast<double>(storm_s.size());
  res.e2e.num("setup_s", median(setup_s))
      .num("peak_rss_mb", peak_rss_mb())
      .num("throughput_per_s", n / total_s)
      .num("p50_us", percentile(round_s, 0.5) * 1e6);
  res.samples.num("setup_s", static_cast<double>(setup_s.size()))
      .num("throughput_per_s", n)
      .num("p50_us", static_cast<double>(round_s.size()));
  res.extra.num("storms", n)
      .num("storm_p50_us", percentile(storm_s, 0.5) * 1e6)
      .num("storm_p99_us", percentile(storm_s, 0.99) * 1e6)
      .num("rounds", rounds)
      .num("storms_per_s", n / total_s)
      .num("storm_runs", n + kSlots)
      .num("certified", static_cast<double>(verdict_certified))
      .num("epochs", static_cast<double>(epochs))
      .num("cycles", static_cast<double>(cycles))
      .num("rung_reroute", static_cast<double>(rung_reroute))
      .num("rung_migrate", static_cast<double>(rung_migrate))
      .num("rung_replan", static_cast<double>(rung_replan))
      .num("verify_calls", n)
      .num("verify_s", secs(verify_ns))
      .num("verify_edges", static_cast<double>(verify_edges))
      .num("provider_calls", provider_calls)
      .num("provider_hits", provider_hits)
      .num("provider_s", provider_s);
  return res;
}

}  // namespace perfbench
