// The hj_embed command-line tool: the library's planners, verifier,
// serializer and simulator behind one binary.
//
//   hj_embed plan 5 6 7                plan a mesh, print the certificate
//   hj_embed torus 10 14               plan a wraparound mesh
//   hj_embed contract 5 19 19          many-to-one into Q5
//   hj_embed save out.hje 7 9          plan and serialize
//   hj_embed verify a.hje [b.hje ...]  reload and re-verify saved files
//   hj_embed precompute plans.hjs 512  build the crash-safe plan store
//                                      (checkpointed; rerun to resume)
//   hj_embed serve plans.hjs           answer stdin requests from the
//                                      store, never uncertified
//   hj_embed sweep 9                   Figure 2 coverage sweep for 2^n
//   hj_embed sim 9 13                  stencil-exchange simulation
//   hj_embed recover 3 3 7             live run with mid-run fault arrivals
//   hj_embed storm 3 3 7               live run under a generated fault
//                                      storm (--storm=<spec> to shape it)
//   hj_embed stats [max_axis] [n]      observability demo: plan/simulate a
//                                      seeded workload, print the registry
//
// The plan and sim commands accept --faults=<spec> (e.g.
// --faults=node=5,link=3-7,p=0.01,seed=42): permanent faults route
// planning through the degradation ladder (detour / remap / many-to-one),
// and sim additionally injects the transient link faults.
//
// The recover command replays a --fault-schedule=<file> of timed
// permanent-fault arrivals (lines "<cycle> node <v>" / "<cycle> link <a>
// <b>") against a live stencil run, repairing via the escalation ladder
// (reroute / migrate / replan) and printing the RecoveryLog as JSON.
// Without a schedule file it generates a small seeded one.
//
// The storm command does the same under a generated correlated failure
// storm (regional / cascading / bursty arrivals plus optional flapping
// links; see parse_storm_spec for the --storm=<spec> keys). Both end in
// a one-line verdict — certified, degraded, or failed — and exit 0 only
// when the run is certified (usage errors still exit 2).
//
// --threads=N (anywhere on the line) sets the worker count of the
// parallel batch engine used by plan, verify and sweep; the default
// comes from HJ_THREADS or the hardware. Results are identical at every
// thread count.
//
// --metrics-out=<file> / --trace-out=<file> (any command) turn the
// observability layer on and, after the command runs, write the metrics
// registry as JSON / the span log as Chrome trace_event JSON (load the
// latter in Perfetto or chrome://tracing). HJ_OBS=1 enables the hooks
// without writing files.
//
// Live telemetry (DESIGN.md §14): --flight=<file> maps a file-backed
// flight-recorder ring (the last ~512 events survive kill -9; decode
// with `hj_embed flight <file>`), --events-out=<file> streams every
// structured event as appended JSON lines, and serve additionally takes
// --stats-every=N / --stats-out=<file> for periodic one-line JSON
// snapshots plus the live `stats` protocol command. serve always runs
// with a flight ring and crash handler, so a SIGSEGV/SIGABRT dumps the
// in-flight request's last events to <flight>.dump or stderr.
#include <fcntl.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/coverage.hpp"
#include "core/io.hpp"
#include "core/parallel.hpp"
#include "core/planner.hpp"
#include "hypersim/live.hpp"
#include "hypersim/network.hpp"
#include "hypersim/storm.hpp"
#include "manytoone/manytoone.hpp"
#include "obs/obs.hpp"
#include "search/provider.hpp"
#include "store/precompute.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"
#include "torus/torus.hpp"

using namespace hj;

namespace {

sim::FaultModel g_faults;
bool g_have_faults = false;
cost::Objective g_objective = cost::Objective::Lexicographic;
sim::FaultSchedule g_schedule;
bool g_have_schedule = false;
std::string g_storm_spec;
std::string g_metrics_out;
std::string g_trace_out;
std::string g_flight;
std::string g_events_out;
std::string g_stats_out;
u64 g_stats_every = 0;
u64 g_serve_queue = 64;
u64 g_serve_deadline_us = 100000;
u64 g_precompute_batch = 32;
u64 g_threads = 0;  // 0: HJ_THREADS or the hardware decides

/// The numeric flags. Each value is parsed strictly: decimal digits only
/// (no sign, space or unit suffix), no overflow, within [lo, hi].
/// --threads admits the same [1, 4096] range as HJ_THREADS.
struct CountFlag {
  const char* prefix;
  u64 lo, hi;
  u64* value;
};
constexpr u64 kMaxCount = std::numeric_limits<u64>::max();
const CountFlag kCountFlags[] = {
    {"--batch=", 1, std::numeric_limits<u32>::max(), &g_precompute_batch},
    {"--queue=", 0, kMaxCount, &g_serve_queue},
    {"--deadline-us=", 0, kMaxCount, &g_serve_deadline_us},
    {"--stats-every=", 0, kMaxCount, &g_stats_every},
    {"--threads=", 1, 4096, &g_threads},
};

std::optional<u64> parse_count(const char* text, u64 lo, u64 hi) {
  const char* end = text + std::strlen(text);
  u64 v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

/// A numeric positional argument, parsed as strictly as the count flags;
/// anything else is a usage error (exit 2) naming the argument.
u64 positional(const char* name, const char* text, u64 lo, u64 hi) {
  const std::optional<u64> v = parse_count(text, lo, hi);
  require(v.has_value(), "%s expects an integer in [%llu, %llu], got '%s'",
          name, static_cast<unsigned long long>(lo),
          static_cast<unsigned long long>(hi), text);
  return *v;
}

void print_usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <command> [args] [flags]\n"
      "\n"
      "commands:\n"
      "  plan l1 [l2 ...]           plan a mesh, print the certificate\n"
      "  torus l1 [l2 ...]          plan a wraparound mesh\n"
      "  contract <n> l1 [l2 ...]   many-to-one contraction into Q_n\n"
      "  save <file> l1 [l2 ...]    plan and serialize\n"
      "  verify <file> [file ...]   reload and re-verify saved embeddings\n"
      "  precompute <store> [max_nodes] [max_rank]\n"
      "                             build the crash-safe plan store for\n"
      "                             every canonical shape below the budget\n"
      "                             (checkpointed; rerun to resume)\n"
      "  serve <store|->            answer embedding requests line by line\n"
      "                             on stdin from the store, falling back\n"
      "                             to the live planner ('-' = no store)\n"
      "  sweep <n>                  Figure 2 coverage sweep for 2^n\n"
      "  sim l1 [l2 ...]            stencil-exchange simulation\n"
      "  recover l1 [l2 ...]        live run with mid-run fault arrivals\n"
      "  storm l1 [l2 ...]          live run under a generated fault storm\n"
      "  stats [max_axis] [n]       plan/simulate a seeded workload, print\n"
      "                             the metrics registry summary\n"
      "  flight <ring|dump>         decode a flight-recorder ring file or\n"
      "                             crash dump, print its event lines\n"
      "\n"
      "flags (any command, anywhere on the line):\n"
      "  --threads=N                parallel engine worker count\n"
      "  --objective=<o>            planner ranking order: lexicographic\n"
      "                             (default), dilation, wirelength,\n"
      "                             congestion\n"
      "  --faults=<spec>            inject faults (node=5,link=3-7,p=0.01)\n"
      "  --fault-schedule=<file>    timed fault arrivals for recover\n"
      "  --storm=<spec>             storm shape for the storm command\n"
      "                             (kind=regional,events=200,seed=7,...)\n"
      "  --metrics-out=<file>       write the metrics registry as JSON\n"
      "  --trace-out=<file>         write spans as Chrome trace JSON\n"
      "  --batch=N                  precompute checkpoint batch size (32)\n"
      "  --queue=N                  serve admission queue capacity (64)\n"
      "  --deadline-us=N            serve per-request deadline in\n"
      "                             microseconds (100000; 0 disables)\n"
      "  --flight=<file>            file-backed flight-recorder ring (the\n"
      "                             last ~512 events survive even kill -9;\n"
      "                             crashes also append <file>.dump)\n"
      "  --events-out=<file>        append every structured event as one\n"
      "                             JSON line (crash-safe tail)\n"
      "  --stats-every=N            serve: emit a one-line JSON stats\n"
      "                             snapshot every N requests\n"
      "  --stats-out=<file>         serve: append the snapshots here\n"
      "                             instead of stderr\n",
      argv0);
}

/// The file-operation error path of PR 6's exit-code contract: a missing
/// input file or unwritable output path is a *usage* error — one line on
/// stderr, the usage text, exit 2 — not a crash.
int usage_error(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "error: %s\n\n", what.c_str());
  print_usage(argv0);
  return 2;
}

/// Write the post-command observability exports requested by
/// --metrics-out / --trace-out.
void write_obs_exports() {
  auto dump = [](const std::string& path, const std::string& body) {
    std::ofstream os(path, std::ios::binary);
    require(os.good(), "cannot open '%s' for writing", path.c_str());
    os << body;
  };
  if (!g_metrics_out.empty())
    dump(g_metrics_out, obs::Registry::global().to_json());
  if (!g_trace_out.empty())
    dump(g_trace_out, obs::Trace::global().to_json());
}

PlannerOptions planner_options() {
  PlannerOptions opts;
  opts.objective = g_objective;
  return opts;
}

/// Every --faults address and every --fault-schedule arrival must lie in
/// the planned host cube Q_n: a fault outside it is a usage error (exit
/// 2), never a silently ignored one.
void require_faults_in_host(u32 n) {
  const Hypercube host(n);
  const auto check = [&](const char* source, CubeNode v) {
    require(host.contains(v), "%s names node %llu, outside the host cube Q%u",
            source, static_cast<unsigned long long>(v), n);
  };
  for (const CubeNode v : g_faults.permanent().failed_nodes())
    check("--faults", v);
  for (const u64 key : g_faults.permanent().failed_link_keys())
    check("--faults", (key >> 6) | (u64{1} << (key & 63)));  // higher end
  for (const sim::FaultEvent& e : g_schedule.events()) {
    check("--fault-schedule", e.a);
    if (!e.is_node) check("--fault-schedule", e.b);
  }
}

PlanResult plan_mesh(const Shape& shape) {
  PlanResult r;
  if (g_have_faults && !g_faults.permanent().empty()) {
    Planner planner(planner_options());
    planner.set_direct_provider(search::make_search_provider());
    planner.set_degrade_provider(m2o::make_degrade_provider());
    r = planner.plan_avoiding(shape, g_faults.permanent());
  } else {
    // Healthy planning goes through the batch engine (canonical-shape
    // dedup + shared factor cache), honouring --threads / HJ_THREADS.
    r = plan_batch({shape}, planner_options(),
                   [] { return search::make_search_provider(); })[0];
  }
  require_faults_in_host(r.embedding->host_dim());
  return r;
}

Shape parse_shape(int argc, char** argv, int from) {
  SmallVec<u64, 4> extents;
  for (int i = from; i < argc; ++i)
    extents.push_back(
        positional("axis length", argv[i], 1, std::numeric_limits<u32>::max()));
  require(!extents.empty(), "expected axis lengths");
  return Shape{extents};
}

int cmd_plan(int argc, char** argv) {
  PlanResult r = plan_mesh(parse_shape(argc, argv, 2));
  std::printf("%splan: %s\n", detailed_summary(r.report, *r.embedding).c_str(),
              r.plan.c_str());
  if (g_have_faults)
    std::printf("faults: %s\n",
                r.report.fault_free ? "avoided (certified)" : "NOT avoided");
  return r.report.valid && r.report.fault_free ? 0 : 1;
}

int cmd_torus(int argc, char** argv) {
  torus::TorusPlanner planner;
  planner.set_direct_provider(search::make_search_provider());
  PlanResult r = planner.plan(parse_shape(argc, argv, 2));
  std::printf("%s\nplan: %s\n", summary(r.report, *r.embedding).c_str(),
              r.plan.c_str());
  return r.report.valid ? 0 : 1;
}

int cmd_contract(int argc, char** argv) {
  require(argc >= 4, "usage: contract <cube_dim> l1 [l2 ...]");
  const auto n = static_cast<u32>(positional("cube_dim", argv[2], 0, 63));
  m2o::ContractPlan p = m2o::contract_to_cube(parse_shape(argc, argv, 3), n);
  std::printf("%s\nplan: %s\noptimal load: %llu (achieved %llu)\n",
              summary(p.report, *p.embedding).c_str(), p.plan.c_str(),
              static_cast<unsigned long long>(p.optimal_load),
              static_cast<unsigned long long>(p.report.load_factor));
  return p.report.valid ? 0 : 1;
}

int cmd_save(int argc, char** argv) {
  require(argc >= 4, "usage: save <file> l1 [l2 ...]");
  Planner planner(planner_options());
  planner.set_direct_provider(search::make_search_provider());
  PlanResult r = planner.plan(parse_shape(argc, argv, 3));
  try {
    io::save(*r.embedding, argv[2]);
  } catch (const std::exception& e) {
    return usage_error(argv[0], e.what());
  }
  std::printf("saved %s -> %s (%s)\n",
              r.embedding->guest().shape().to_string().c_str(), argv[2],
              r.plan.c_str());
  return 0;
}

int cmd_verify(int argc, char** argv) {
  require(argc >= 3, "usage: verify <file> [file ...]");
  std::vector<EmbeddingPtr> embs;
  for (int i = 2; i < argc; ++i) {
    try {
      embs.push_back(io::load(argv[i]));
    } catch (const std::exception& e) {
      return usage_error(argv[0], e.what());
    }
  }
  const std::vector<VerifyReport> reports = verify_batch(embs);
  bool all_valid = true;
  for (std::size_t i = 0; i < embs.size(); ++i) {
    const VerifyReport& r = reports[i];
    if (embs.size() > 1) std::printf("%s: ", argv[2 + i]);
    std::printf("%s", detailed_summary(r, *embs[i]).c_str());
    if (!r.valid) {
      all_valid = false;
      for (const std::string& e : r.errors)
        std::printf("  error: %s\n", e.c_str());
    }
  }
  return all_valid ? 0 : 1;
}

int cmd_precompute(int argc, char** argv) {
  require(argc >= 3, "usage: precompute <store> [max_nodes] [max_rank]");
  store::PrecomputeOptions opts;
  opts.planner = planner_options();
  opts.batch_size = static_cast<u32>(g_precompute_batch);
  if (argc >= 4)
    opts.max_nodes = positional("max_nodes", argv[3], 1, u64{1} << 26);
  if (argc >= 5)
    opts.max_rank =
        static_cast<u32>(positional("max_rank", argv[4], 1, store::kMaxRank));
  store::PrecomputeResult r;
  try {
    r = store::precompute(argv[2], opts,
                          [] { return search::make_search_provider(); });
  } catch (const std::runtime_error& e) {
    return usage_error(argv[0], e.what());
  }
  std::printf("precompute %s: %llu shapes in %llu batches "
              "(%llu resumed from the journal, %llu planned",
              argv[2], static_cast<unsigned long long>(r.shapes_total),
              static_cast<unsigned long long>(r.batches_total),
              static_cast<unsigned long long>(r.batches_resumed),
              static_cast<unsigned long long>(r.batches_planned));
  if (r.journal_dropped_bytes)
    std::printf(", torn tail of %llu bytes dropped",
                static_cast<unsigned long long>(r.journal_dropped_bytes));
  std::printf(")\n%s\n", r.complete ? "store finalized"
                                    : "store NOT finalized (partial run)");
  return r.complete ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  require(argc >= 3, "usage: serve <store|->");
  store::ServeOptions opts;
  opts.planner = planner_options();
  opts.queue_cap = g_serve_queue;
  opts.deadline_us = g_serve_deadline_us;
  opts.stats_every = g_stats_every;
  opts.stats_out = g_stats_out;
  // The daemon always flies with a recorder: if --flight did not attach
  // a file-backed ring, attach the anonymous one, and install the crash
  // handler (dump to <flight>.dump, or stderr without --flight) so a
  // dying daemon names its in-flight request.
  obs::flight::install_crash_handler(
      g_flight.empty() ? std::string{} : g_flight + ".dump");
  std::optional<store::PlanStore> ps;
  const std::string path = argv[2];
  if (path != "-") {
    try {
      ps.emplace(store::PlanStore::open(path));
    } catch (const std::runtime_error& e) {
      return usage_error(argv[0], e.what());
    }
  }
  store::Server server(ps ? &*ps : nullptr, opts,
                       [] { return search::make_search_provider(); });
  int rc = 0;
  try {
    rc = store::run_serve(std::cin, std::cout, server);
  } catch (const std::invalid_argument& e) {
    return usage_error(argv[0], e.what());  // unwritable --stats-out
  }
  const store::ServeStats st = server.stats();
  std::fprintf(stderr,
               "serve: %llu requests (%llu warm, %llu cold, %llu degraded, "
               "%llu shed, %llu errors)\n",
               static_cast<unsigned long long>(st.requests),
               static_cast<unsigned long long>(st.warm),
               static_cast<unsigned long long>(st.cold),
               static_cast<unsigned long long>(st.degraded),
               static_cast<unsigned long long>(st.shed),
               static_cast<unsigned long long>(st.errors));
  return rc;
}

int cmd_flight(int argc, char** argv) {
  require(argc >= 3, "usage: flight <ring-or-dump-file>");
  std::vector<std::string> lines;
  try {
    lines = obs::flight::read_ring(argv[2]);
  } catch (const std::invalid_argument& e) {
    return usage_error(argv[0], e.what());
  }
  for (const std::string& l : lines) std::printf("%s\n", l.c_str());
  std::fprintf(stderr, "flight %s: %zu event lines\n", argv[2], lines.size());
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  require(argc >= 3, "usage: sweep <n>");
  const auto n = static_cast<u32>(positional("n", argv[2], 1, 16));
  const coverage::SweepCounts c = coverage::sweep_3d(n);
  std::printf("coverage sweep, %u threads: all meshes with axes in "
              "[1, 2^%u]\n", par::thread_count(), n);
  std::printf("total %llu | uncovered %llu | by method 1..4: %llu %llu "
              "%llu %llu\n", static_cast<unsigned long long>(c.total),
              static_cast<unsigned long long>(c.by_method[0]),
              static_cast<unsigned long long>(c.by_method[1]),
              static_cast<unsigned long long>(c.by_method[2]),
              static_cast<unsigned long long>(c.by_method[3]),
              static_cast<unsigned long long>(c.by_method[4]));
  std::printf("cumulative %%: S1=%.1f S2=%.1f S3=%.1f S4=%.1f\n",
              c.cumulative_percent(1), c.cumulative_percent(2),
              c.cumulative_percent(3), c.cumulative_percent(4));
  return 0;
}

int cmd_sim(int argc, char** argv) {
  PlanResult r = plan_mesh(parse_shape(argc, argv, 2));
  for (u32 flits : {1u, 16u}) {
    sim::SimConfig cfg{r.embedding->host_dim()};
    cfg.message_flits = flits;
    if (g_have_faults) cfg.faults = &g_faults;
    cfg.switching = sim::Switching::StoreAndForward;
    sim::SimResult saf = sim::simulate_stencil(*r.embedding, cfg);
    cfg.switching = sim::Switching::CutThrough;
    sim::SimResult ct = sim::simulate_stencil(*r.embedding, cfg);
    std::printf("stencil exchange, %2u flits: store-and-forward %llu "
                "cycles, cut-through %llu cycles (bound %llu)\n",
                flits, static_cast<unsigned long long>(saf.cycles),
                static_cast<unsigned long long>(ct.cycles),
                static_cast<unsigned long long>(saf.lower_bound()));
    if (g_have_faults)
      std::printf("  faults: %s, delivered %llu/%llu, dropped flits %llu\n",
                  saf.completed && ct.completed ? "absorbed" : "NOT absorbed",
                  static_cast<unsigned long long>(saf.delivered),
                  static_cast<unsigned long long>(saf.messages),
                  static_cast<unsigned long long>(saf.dropped_flits));
  }
  return 0;
}

/// The one-line verdict both live commands end with, and the exit-code
/// policy: 0 only for a certified run (2 stays reserved for usage
/// errors, which never reach this point).
int finish_live_run(const sim::LiveRunResult& live) {
  std::printf("%s", sim::recovery_log_json(live).c_str());
  std::printf("verdict: %s (%llu/%llu delivered, %llu epochs",
              sim::verdict_name(live.verdict),
              static_cast<unsigned long long>(live.delivered),
              static_cast<unsigned long long>(live.messages),
              static_cast<unsigned long long>(live.epochs));
  if (!live.uncovered.empty())
    std::printf(", %llu uncovered nodes",
                static_cast<unsigned long long>(live.uncovered.size()));
  if (!live.witness.empty())
    std::printf("; %s", live.witness.c_str());
  std::printf(")\n");
  return live.verdict == sim::Verdict::Certified ? 0 : 1;
}

int cmd_recover(int argc, char** argv) {
  PlanResult r = plan_mesh(parse_shape(argc, argv, 2));
  sim::FaultSchedule schedule = g_schedule;
  if (!g_have_schedule)
    // No file given: a small seeded demo schedule (2 node + 1 link
    // arrivals spaced across the run).
    schedule = sim::FaultSchedule::random(r.embedding->host_dim(), 2, 1,
                                         /*first_cycle=*/2, /*spacing=*/6,
                                         /*seed=*/42);
  sim::LiveOptions opts;
  opts.sim.message_flits = 4;
  if (g_have_faults) opts.sim.faults = &g_faults;
  opts.recovery.direct_provider = search::make_search_provider();
  opts.recovery.degrade_provider = m2o::make_degrade_provider();
  const sim::LiveRunResult live =
      sim::run_stencil_with_recovery(r.embedding, schedule, opts);
  return finish_live_run(live);
}

int cmd_storm(int argc, char** argv) {
  PlanResult r = plan_mesh(parse_shape(argc, argv, 2));
  // A gentle default storm when no --storm= was given: regional, a few
  // dozen arrivals, one flapping link — enough to show every mechanism.
  sim::StormSpec spec = sim::parse_storm_spec(
      g_storm_spec.empty() ? "events=24,flap=1" : g_storm_spec,
      r.embedding->host_dim());
  const sim::Storm storm = sim::StormGenerator(spec).generate();
  std::printf("storm: kind=%s arrivals=%u (%u node, %u link, %u dropped) "
              "flapping=%llu span=%llu cycles\n",
              sim::storm_kind_name(spec.kind),
              storm.stats.node_events + storm.stats.link_events,
              storm.stats.node_events, storm.stats.link_events,
              storm.stats.dropped_events,
              static_cast<unsigned long long>(storm.flapping.size()),
              static_cast<unsigned long long>(storm.stats.span_cycles));
  sim::FaultModel faults = g_have_faults ? g_faults : sim::FaultModel{};
  storm.install_flapping(faults);
  sim::LiveOptions opts;
  opts.sim.message_flits = 4;
  opts.sim.faults = &faults;
  opts.recovery.direct_provider = search::make_search_provider();
  opts.recovery.degrade_provider = m2o::make_degrade_provider();
  const sim::LiveRunResult live =
      sim::run_stencil_with_recovery(r.embedding, storm.schedule, opts);
  return finish_live_run(live);
}

int cmd_stats(int argc, char** argv) {
  // A seeded, self-contained workload that exercises every instrumented
  // layer: batch planning (cache + dedup), the parallel engine, and the
  // network simulator. Axes are drawn from [2, max_axis] (default 512 —
  // the full paper-scale mesh range) but shapes are capped at 2^18 guest
  // nodes so a sample stays seconds, not hours.
  const u64 max_axis =
      argc >= 3 ? positional("max_axis", argv[2], 2, u64{1} << 20) : 512;
  const u64 samples =
      argc >= 4 ? positional("samples", argv[3], 1, 100'000) : 128;
  obs::set_enabled(true);

  constexpr u64 kMaxNodes = u64{1} << 18;
  std::mt19937_64 rng(0x580B5ULL);
  std::uniform_int_distribution<u64> axis(2, max_axis);
  std::vector<Shape> shapes;
  shapes.reserve(samples);
  while (shapes.size() < samples) {
    const u64 a = axis(rng), b = axis(rng), c = axis(rng);
    if (a > kMaxNodes / b || a * b > kMaxNodes / c) continue;
    shapes.push_back(Shape{{a, b, c}});
  }

  ShardedPlanCache cache;
  const std::vector<PlanResult> plans = plan_batch(
      shapes, planner_options(), [] { return search::make_search_provider(); },
      &cache);

  // Run the stencil simulator on a handful of the small results (the
  // flit-level model walks every cycle; Q13 is plenty to populate the
  // link-utilization histograms).
  u64 simmed = 0;
  for (const PlanResult& r : plans) {
    if (simmed == 8) break;
    if (r.embedding->host_dim() > 13) continue;
    const sim::SimResult s = sim::simulate_stencil(*r.embedding);
    require(s.consistent(), "stats: simulator accounting broke");
    ++simmed;
  }

  auto& reg = obs::Registry::global();
  reg.gauge("plancache.size", obs::Kind::Timing)
      .set(static_cast<i64>(cache.size()));

  const u64 lookups =
      reg.counter("plancache.lookups", obs::Kind::Timing).value();
  const u64 hits = reg.counter("plancache.hits", obs::Kind::Timing).value();
  const u64 batched = reg.counter("plan.batch.shapes").value();
  const u64 unique = reg.counter("plan.batch.unique").value();
  std::printf("stats workload: %llu shapes (axes in [2, %llu], <= 2^18 "
              "nodes), %llu simulated\n",
              static_cast<unsigned long long>(shapes.size()),
              static_cast<unsigned long long>(max_axis),
              static_cast<unsigned long long>(simmed));
  std::printf("cache hit rate: %.1f%% (%llu/%llu lookups)\n",
              lookups ? 100.0 * static_cast<double>(hits) /
                            static_cast<double>(lookups)
                      : 0.0,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(lookups));
  std::printf("dedup ratio: %.2fx (%llu shapes -> %llu canonical)\n",
              unique ? static_cast<double>(batched) /
                           static_cast<double>(unique)
                     : 0.0,
              static_cast<unsigned long long>(batched),
              static_cast<unsigned long long>(unique));

  // Optimality-gap columns (value / lower bound per certificate).
  struct GapCol {
    const char* name;
    double sum = 0, max = 0;
  } cols[3] = {{"dil"}, {"wl"}, {"cong"}};
  for (const PlanResult& r : plans) {
    const double g[3] = {
        cost::gap(r.report.dilation, r.report.bounds.dilation),
        cost::gap(static_cast<double>(r.report.wirelength),
                  static_cast<double>(r.report.bounds.wirelength)),
        cost::gap(r.report.congestion, r.report.bounds.congestion)};
    for (int c = 0; c < 3; ++c) {
      cols[c].sum += g[c];
      cols[c].max = std::max(cols[c].max, g[c]);
    }
  }
  std::printf("optimality gaps (objective %s):",
              cost::objective_name(g_objective));
  for (const GapCol& c : cols)
    std::printf("  %s avg %.2fx max %.2fx",
                c.name,
                plans.empty() ? 1.0 : c.sum / static_cast<double>(plans.size()),
                c.max);
  std::printf("\n");

  std::printf("\n%s", reg.summary().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(argv[0]);
    return 2;
  }
  try {
    // Strip --faults=<spec> / --threads=N / the observability export
    // flags (anywhere on the line) before dispatch.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const auto count = std::find_if(
          std::begin(kCountFlags), std::end(kCountFlags),
          [&](const CountFlag& f) {
            return std::strncmp(argv[i], f.prefix, std::strlen(f.prefix)) == 0;
          });
      if (count != std::end(kCountFlags)) {
        const std::size_t len = std::strlen(count->prefix);
        const auto v = parse_count(argv[i] + len, count->lo, count->hi);
        if (!v)
          return usage_error(
              argv[0], std::string(count->prefix, len - 1) +
                           " expects an integer in [" +
                           std::to_string(count->lo) + ", " +
                           std::to_string(count->hi) + "], got '" +
                           (argv[i] + len) + "'");
        *count->value = *v;
      } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
        g_faults = sim::parse_fault_spec(argv[i] + 9);
        g_have_faults = true;
      } else if (std::strncmp(argv[i], "--fault-schedule=", 17) == 0) {
        g_schedule = sim::FaultSchedule::load(argv[i] + 17);
        g_have_schedule = true;
      } else if (std::strncmp(argv[i], "--storm=", 8) == 0) {
        g_storm_spec = argv[i] + 8;
      } else if (std::strncmp(argv[i], "--objective=", 12) == 0) {
        const auto obj = cost::parse_objective(argv[i] + 12);
        if (!obj) {
          std::fprintf(stderr,
                       "unknown objective '%s' (expected lexicographic, "
                       "dilation, wirelength or congestion)\n\n",
                       argv[i] + 12);
          print_usage(argv[0]);
          return 2;
        }
        g_objective = *obj;
      } else if (std::strncmp(argv[i], "--flight=", 9) == 0) {
        g_flight = argv[i] + 9;
        require(!g_flight.empty(), "--flight= needs a file path");
        if (!obs::flight::init_file(g_flight))
          return usage_error(argv[0],
                             "cannot map flight ring '" + g_flight + "'");
        // Any command flown with a ring also gets the crash handler (and
        // the Failed-verdict dump target): postmortems go to <ring>.dump.
        obs::flight::install_crash_handler(g_flight + ".dump");
      } else if (std::strncmp(argv[i], "--events-out=", 13) == 0) {
        g_events_out = argv[i] + 13;
        const int fd = ::open(g_events_out.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
        if (fd < 0)
          return usage_error(argv[0],
                             "cannot open '" + g_events_out + "' for writing");
        obs::EventLog::global().set_stream_fd(fd);  // lives until exit
      } else if (std::strncmp(argv[i], "--stats-out=", 12) == 0) {
        g_stats_out = argv[i] + 12;
      } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
        g_metrics_out = argv[i] + 14;
        obs::set_enabled(true);
      } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
        g_trace_out = argv[i] + 12;
        obs::set_enabled(true);
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
    par::set_thread_override(static_cast<u32>(g_threads));
    require(argc >= 2, "expected a command before/after the flags");
    const std::string cmd = argv[1];
    int rc = -1;
    if (cmd == "plan") rc = cmd_plan(argc, argv);
    else if (cmd == "torus") rc = cmd_torus(argc, argv);
    else if (cmd == "contract") rc = cmd_contract(argc, argv);
    else if (cmd == "save") rc = cmd_save(argc, argv);
    else if (cmd == "verify") rc = cmd_verify(argc, argv);
    else if (cmd == "precompute") rc = cmd_precompute(argc, argv);
    else if (cmd == "serve") rc = cmd_serve(argc, argv);
    else if (cmd == "sweep") rc = cmd_sweep(argc, argv);
    else if (cmd == "sim") rc = cmd_sim(argc, argv);
    else if (cmd == "recover") rc = cmd_recover(argc, argv);
    else if (cmd == "storm") rc = cmd_storm(argc, argv);
    else if (cmd == "stats") rc = cmd_stats(argc, argv);
    else if (cmd == "flight") rc = cmd_flight(argc, argv);
    if (rc < 0) {
      std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
      print_usage(argv[0]);
      return 2;
    }
    write_obs_exports();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
