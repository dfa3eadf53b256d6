// Ablation — how much the congestion router buys (DESIGN.md design-choice
// list). A node map fixes dilation but not congestion: dilation-2 edges
// choose between two midpoints. We compare
//   * e-cube default routing (always the low-bit-first midpoint),
//   * greedy assignment,
//   * greedy + local improvement passes (the library default),
// on every direct table and on composed embeddings.
#include <cstdio>

#include "core/direct.hpp"
#include "core/planner.hpp"
#include "core/router.hpp"
#include "core/verify.hpp"

using namespace hj;

namespace {

void compare(const char* label, const Embedding& source) {
  // Take the node map, then route three ways.
  const Mesh& guest = source.guest();
  std::vector<CubeNode> map;
  source.map_all(map);

  ExplicitEmbedding ecube(guest, source.host_dim(), map);
  const VerifyReport r0 = verify(ecube);

  ExplicitEmbedding greedy(guest, source.host_dim(), map);
  route_minimize_congestion(greedy, /*max_passes=*/0);
  const VerifyReport r1 = verify(greedy);

  ExplicitEmbedding routed(guest, source.host_dim(), map);
  const RouteStats stats = route_minimize_congestion(routed);
  const VerifyReport r2 = verify(routed);

  std::printf("  %-22s cong: e-cube %u, greedy %u, +%u passes -> %u   "
              "(avg %.3f -> %.3f)\n",
              label, r0.congestion, r1.congestion, stats.passes_used,
              r2.congestion, r0.avg_congestion, r2.avg_congestion);
}

}  // namespace

int main() {
  std::printf("router ablation: midpoint choice for dilation-2 edges\n\n");
  for (const Shape& s : direct_table_shapes())
    compare(s.to_string().c_str(), **direct_embedding(s));
  for (const Shape& s : extra_table_shapes())
    compare((s.to_string() + " (extra)").c_str(), **extra_embedding(s));

  Planner planner;
  compare("12x20 (planned)", *planner.plan(Shape{12, 20}).embedding);
  compare("21x9x5 (planned)", *planner.plan(Shape{21, 9, 5}).embedding);
  return 0;
}
