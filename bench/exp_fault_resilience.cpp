// E16 — fault resilience: how many failed links can an embedding absorb
// before the stencil exchange stops delivering, and what does each detour
// cost in latency?
//
// For the Section 5 example shapes, sweep the number of permanently
// failed links (chosen by a seeded generator, several trials per count)
// and compare the planner's fault-avoiding embedding (degradation ladder:
// detour / remap / contract) against the Gray-code baseline patched by
// detour routing alone. One JSON row per (shape, embedding, #links,
// trial): delivered-message latency, completion, certified dilation and
// congestion after detouring.
#include <cstdio>
#include <string>

#include "core/planner.hpp"
#include "core/router.hpp"
#include "hypersim/network.hpp"
#include "manytoone/manytoone.hpp"
#include "search/provider.hpp"

using namespace hj;

namespace {

// Deterministic xorshift64* stream; the sweep must be reproducible.
struct Rng {
  u64 s;
  u64 next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
};

FaultSet random_links(u32 cube_dim, u32 count, u64 seed) {
  FaultSet f;
  Rng rng{seed * 0x9e3779b97f4a7c15ull + 1};
  while (f.num_failed_links() < count) {
    const CubeNode a = rng.next() & ((u64{1} << cube_dim) - 1);
    const u32 d = static_cast<u32>(rng.next() % cube_dim);
    f.fail_link(a, a ^ (u64{1} << d));
  }
  return f;
}

void row(const char* shape, const char* embed, u32 links, u32 trial,
         const VerifyReport& rep, const sim::SimResult& sim) {
  std::printf(
      "{\"shape\":\"%s\",\"embed\":\"%s\",\"failed_links\":%u,"
      "\"trial\":%u,\"completed\":%s,\"cycles\":%llu,\"delivered\":%llu,"
      "\"messages\":%llu,\"fault_free\":%s,\"dilation\":%u,"
      "\"congestion\":%u,\"load_factor\":%llu,\"host_dim\":%u}\n",
      shape, embed, links, trial, sim.completed ? "true" : "false",
      static_cast<unsigned long long>(sim.cycles),
      static_cast<unsigned long long>(sim.delivered),
      static_cast<unsigned long long>(sim.messages),
      rep.fault_free ? "true" : "false", rep.dilation, rep.congestion,
      static_cast<unsigned long long>(rep.load_factor), rep.host_dim);
}

sim::SimResult faulted_stencil(const Embedding& emb, const FaultSet& faults) {
  sim::FaultModel model{faults};
  sim::SimConfig cfg{emb.host_dim()};
  cfg.faults = &model;
  return sim::simulate_stencil(emb, cfg);
}

}  // namespace

int main() {
  const Shape shapes[] = {Shape{7, 9}, Shape{11, 11}, Shape{3, 3, 7}};
  const u32 link_counts[] = {0, 1, 2, 4, 8};
  const u32 trials = 3;

  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  planner.set_degrade_provider(m2o::make_degrade_provider());

  for (const Shape& shape : shapes) {
    const std::string name = shape.to_string();
    for (u32 links : link_counts) {
      for (u32 trial = 0; trial < trials; ++trial) {
        const u64 seed = (u64{links} << 8) | trial;

        // Planner: full degradation ladder via plan_avoiding.
        {
          const FaultSet faults =
              random_links(planner.plan(shape).report.host_dim, links, seed);
          try {
            const PlanResult r = planner.plan_avoiding(shape, faults);
            row(name.c_str(), "planner", links, trial, r.report,
                faulted_stencil(*r.embedding, faults));
          } catch (const std::invalid_argument&) {
            VerifyReport none;
            none.fault_free = false;
            row(name.c_str(), "planner", links, trial, none, sim::SimResult{});
          }
        }

        // Gray baseline: fixed node map, detour routing only.
        {
          const GrayEmbedding gray{Mesh(shape)};
          const FaultSet faults =
              random_links(gray.host_dim(), links, seed);
          auto emb = ExplicitEmbedding::copy_of(gray);
          (void)route_minimize_congestion(*emb);
          (void)route_around_faults(*emb, faults);
          row(name.c_str(), "gray", links, trial, verify(*emb, faults),
              faulted_stencil(*emb, faults));
        }
      }
    }
  }
  return 0;
}
