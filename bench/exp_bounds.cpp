// E21 — the multi-objective cost model: optimality gaps per objective.
//
// For the paper's Section 5 shapes, a slice of the Figure-2 families
// (3*2^a x 3*2^b x {2^c, 7*2^c}) and the factorization-rich shapes where
// candidate ties exist, plan under every cost::Objective and report each
// certificate's distance from its computable lower bounds: dilation
// (Havel-Moravek / odd-cycle), wirelength and congestion (the cut bounds
// of arXiv 1807.06787), as value / bound gap curves per objective.
//
// One JSON row per (shape, objective) ("row":"bounds"): measured metrics,
// lower bounds and gaps. One row per shape ("row":"equivalence"): the
// default PlannerOptions and an explicit --objective=lexicographic must
// produce the identical plan (the bit-for-bit compatibility contract).
// One row per non-default objective ("row":"wins"): how often it strictly
// beat the default on its primary metric, and how often those wins kept
// dilation <= 2. Rows go to stdout AND BENCH_bounds.json; the schema is
// enforced by tools/check_bench.py, which re-checks gap >= 1.0, requires
// every equivalence row to be identical, and requires the wirelength
// objective to win at least one shape at dilation <= 2.
//
// The whole run takes about a second, so CI runs it as is and diffs it
// against the committed artifact.
#include <cstdio>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "rows.hpp"
#include "search/provider.hpp"

using namespace hj;

namespace {

struct Planned {
  PlanResult result;
  cost::Objective objective;
};

std::string bounds_row(const Shape& shape, cost::Objective o,
                       const PlanResult& r) {
  const VerifyReport& v = r.report;
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"row\":\"bounds\",\"shape\":\"%s\",\"objective\":\"%s\","
      "\"host_dim\":%u,\"method\":\"%s\",\"nodes\":%llu,\"edges\":%llu,"
      "\"minimal\":%s,\"dilation\":%u,\"dil_lb\":%u,\"dil_gap\":%.4f,"
      "\"wirelength\":%llu,\"wl_lb\":%llu,\"wl_gap\":%.4f,"
      "\"congestion\":%u,\"cong_lb\":%u,\"cong_gap\":%.4f,"
      "\"load\":%llu,\"load_lb\":%llu}\n",
      shape.to_string().c_str(), cost::objective_name(o), v.host_dim,
      r.plan.c_str(), static_cast<unsigned long long>(v.guest_nodes),
      static_cast<unsigned long long>(v.guest_edges),
      v.minimal_expansion ? "true" : "false", v.dilation, v.bounds.dilation,
      cost::gap(v.dilation, v.bounds.dilation),
      static_cast<unsigned long long>(v.wirelength),
      static_cast<unsigned long long>(v.bounds.wirelength),
      cost::gap(static_cast<double>(v.wirelength),
                static_cast<double>(v.bounds.wirelength)),
      v.congestion, v.bounds.congestion,
      cost::gap(v.congestion, v.bounds.congestion),
      static_cast<unsigned long long>(v.load_factor),
      static_cast<unsigned long long>(v.bounds.load));
  return buf;
}

PlanResult plan_with(const Shape& shape, const PlannerOptions& opts) {
  Planner planner(opts);
  planner.set_direct_provider(search::make_search_provider());
  return planner.plan(shape);
}

/// The primary secondary metric the objective optimizes at equal cube.
u64 primary_metric(cost::Objective o, const VerifyReport& r) {
  switch (o) {
    case cost::Objective::WirelengthFirst:
      return r.wirelength;
    case cost::Objective::CongestionFirst:
      return r.congestion;
    default:
      return r.dilation;
  }
}

}  // namespace

int main() {
  // Section 5 paper shapes, a Figure-2 family slice, and shapes with
  // factorization ties (where non-default objectives have real choices).
  const std::vector<Shape> shapes = {
      Shape{3, 3, 3},   Shape{3, 3, 7},    Shape{5, 5, 8},
      Shape{5, 6, 6},   Shape{6, 6, 10},   Shape{3, 5, 12},
      Shape{6, 6, 17},  Shape{9, 12, 21},  Shape{6, 6, 8},
      Shape{3, 6, 14},  Shape{6, 12, 7},   Shape{5, 5, 12},
      Shape{6, 10, 10},
  };

  const bench::RowFile rows("BENCH_bounds.json");
  std::printf("E21: optimality gaps per objective over %zu shapes\n\n",
              shapes.size());

  const cost::Objective kObjectives[] = {
      cost::Objective::Lexicographic, cost::Objective::DilationFirst,
      cost::Objective::WirelengthFirst, cost::Objective::CongestionFirst};

  // shape index -> objective -> plan; filled column-major so a planner's
  // memo is reused across the shapes of one objective.
  std::vector<std::vector<PlanResult>> plans(
      shapes.size(), std::vector<PlanResult>(cost::kNumObjectives));
  for (const cost::Objective o : kObjectives) {
    PlannerOptions opts;
    opts.objective = o;
    Planner planner(opts);
    planner.set_direct_provider(search::make_search_provider());
    for (std::size_t i = 0; i < shapes.size(); ++i)
      plans[i][static_cast<u32>(o)] = planner.plan(shapes[i]);
  }

  for (std::size_t i = 0; i < shapes.size(); ++i)
    for (const cost::Objective o : kObjectives)
      bench::emit(bounds_row(shapes[i], o, plans[i][static_cast<u32>(o)]));

  // The compatibility contract: default-constructed options and an
  // explicit lexicographic objective are the same planner.
  bool all_identical = true;
  for (const Shape& s : shapes) {
    const PlanResult def = plan_with(s, PlannerOptions{});
    PlannerOptions lex_opts;
    lex_opts.objective = *cost::parse_objective("lexicographic");
    const PlanResult lex = plan_with(s, lex_opts);
    const bool identical = def.plan == lex.plan &&
                           def.report.host_dim == lex.report.host_dim &&
                           def.report.dilation == lex.report.dilation &&
                           def.report.congestion == lex.report.congestion &&
                           def.report.wirelength == lex.report.wirelength;
    all_identical = all_identical && identical;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"row\":\"equivalence\",\"shape\":\"%s\","
                  "\"default_method\":\"%s\",\"lex_method\":\"%s\","
                  "\"identical\":%s}\n",
                  s.to_string().c_str(), def.plan.c_str(), lex.plan.c_str(),
                  identical ? "true" : "false");
    bench::emit(buf);
  }

  // Per-objective win tallies against the default plans.
  for (const cost::Objective o :
       {cost::Objective::DilationFirst, cost::Objective::WirelengthFirst,
        cost::Objective::CongestionFirst}) {
    u32 wins = 0, wins_dil2 = 0, losses = 0;
    u64 saved = 0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const VerifyReport& def =
          plans[i][static_cast<u32>(cost::Objective::Lexicographic)].report;
      const VerifyReport& obj = plans[i][static_cast<u32>(o)].report;
      const u64 dv = primary_metric(o, def), ov = primary_metric(o, obj);
      if (ov < dv) {
        ++wins;
        saved += dv - ov;
        if (obj.dilation <= 2) ++wins_dil2;
      } else if (ov > dv) {
        ++losses;
      }
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"row\":\"wins\",\"objective\":\"%s\",\"planned\":%zu,"
                  "\"wins\":%u,\"wins_dil2\":%u,\"losses\":%u,"
                  "\"metric_saved\":%llu}\n",
                  cost::objective_name(o), shapes.size(), wins, wins_dil2,
                  losses, static_cast<unsigned long long>(saved));
    bench::emit(buf);
  }

  std::printf("\nequivalence: default == lexicographic on every shape: %s\n",
              all_identical ? "yes" : "NO?!");
  std::printf("wrote BENCH_bounds.json\n");
  return all_identical ? 0 : 1;
}
