// E22 — plan serving at production scale: store-hit latency and
// corruption survival.
//
// Builds a plan store with the checkpointed precompute pass, then
// measures the two serve-path claims:
//
//   * "latency" rows — exact p50/p99/mean request latency for cold
//     serving (live planner, no store, a fresh server per request)
//     vs warm serving (store hit + mandatory re-verify), one request per
//     canonical shape so every request pays the full path it is
//     labelled with.
//   * "corruption" rows — seeded byte flips confined to the store's
//     data region (superblock/index flips fail open(), the louder
//     failure mode), then every canonical shape queried: all requests
//     answered, all answers verified, the split shows how many fell
//     back to the live planner.
//
// Rows go to stdout AND BENCH_serve.json; schema enforced by
// tools/check_bench.py. The full 512-node run takes a few seconds, so CI
// runs it as is.
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rows.hpp"
#include "search/provider.hpp"
#include "store/precompute.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"
#include "store/writer.hpp"

using namespace hj;

namespace {

using obs::percentile;

std::string latency_row(const char* mode, const std::vector<u64>& lat) {
  u64 sum = 0;
  for (u64 v : lat) sum += v;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"row\":\"latency\",\"mode\":\"%s\",\"requests\":%zu,"
                "\"p50_us\":%llu,\"p99_us\":%llu,\"mean_us\":%.1f}\n",
                mode, lat.size(),
                static_cast<unsigned long long>(percentile(lat, 0.5)),
                static_cast<unsigned long long>(percentile(lat, 0.99)),
                lat.empty() ? 0.0
                            : static_cast<double>(sum) /
                                  static_cast<double>(lat.size()));
  return buf;
}

void report_failure(const Shape& s, const store::Reply& rep) {
  std::fprintf(stderr, "latency run failed on %s: %s\n",
               s.to_string().c_str(), rep.error.c_str());
}

/// Warm-path latencies: every canonical shape requested once from one
/// server over the store, so each request is a store hit plus the
/// mandatory re-verify and none is served from the server's plan cache.
std::vector<u64> warm_latencies(const store::PlanStore& st,
                                const std::vector<Shape>& shapes) {
  store::Server warm(&st, {}, [] { return search::make_search_provider(); });
  std::vector<u64> lat;
  lat.reserve(shapes.size());
  for (const Shape& s : shapes) {
    const store::Reply rep = warm.handle(s);
    if (rep.ok)
      lat.push_back(rep.latency_us);
    else
      report_failure(s, rep);
  }
  return lat;
}

/// Cold-path latencies: each canonical shape planned by a fresh server
/// (planner, plan cache, search provider), so no sub-plan of one request
/// answers another; the search provider keeps no state either. One
/// untimed 5x5 request first builds the library's static tables (5x5
/// reads both the paper's and the search tables), so the timed requests
/// measure planning, not first-use set-up.
std::vector<u64> cold_latencies(const std::vector<Shape>& shapes) {
  const auto provider = [] { return search::make_search_provider(); };
  (void)store::Server(nullptr, {}, provider).handle(Shape{5, 5});
  std::vector<u64> lat;
  lat.reserve(shapes.size());
  for (const Shape& s : shapes) {
    const store::Reply rep = store::Server(nullptr, {}, provider).handle(s);
    if (rep.ok)
      lat.push_back(rep.latency_us);
    else
      report_failure(s, rep);
  }
  return lat;
}

/// Flip `flips` seeded bytes inside the data region of a copy of the
/// store, then query every canonical shape: the daemon must answer and
/// verify 100% of them, degrading (live fallback) where records died.
void run_corruption(const std::string& store_path,
                    const std::vector<Shape>& shapes, u32 flips, u64 seed) {
  std::string bytes;
  {
    std::ifstream is(store_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  const std::string mut_path = store_path + ".corrupt";
  {
    const store::PlanStore pristine = store::PlanStore::open(store_path);
    const auto [first, last] = pristine.data_region();
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<u64> off(first, last - 1);
    std::uniform_int_distribution<u32> bit(0, 7);
    for (u32 i = 0; i < flips; ++i)
      bytes[off(rng)] ^= static_cast<char>(1u << bit(rng));
    std::ofstream os(mut_path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const store::PlanStore mut = store::PlanStore::open(mut_path);
  store::Server server(&mut, {}, [] { return search::make_search_provider(); });
  u64 answered = 0, verified = 0, warm = 0, degraded = 0, cold = 0;
  for (const Shape& s : shapes) {
    const store::Reply rep = server.handle(s);
    ++answered;
    if (rep.ok) ++verified;
    switch (rep.verdict) {
      case store::Verdict::ServedWarm: ++warm; break;
      case store::Verdict::Degraded: ++degraded; break;
      case store::Verdict::ServedCold: ++cold; break;
      case store::Verdict::Shed: break;
    }
  }
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "{\"row\":\"corruption\",\"flips\":%u,\"requests\":%zu,"
      "\"answered\":%llu,\"verified\":%llu,\"warm\":%llu,"
      "\"degraded\":%llu,\"cold\":%llu,\"quarantined\":%llu}\n",
      flips, shapes.size(), static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(warm),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(cold),
      static_cast<unsigned long long>(mut.quarantined_count()));
  bench::emit(buf);
  std::remove(mut_path.c_str());
}

}  // namespace

int main() {
  const bench::RowFile rows("BENCH_serve.json");

  constexpr u64 budget = 512;
  const std::vector<Shape> shapes =
      store::enumerate_canonical_shapes(budget, 3);
  const std::vector<u64> cold = cold_latencies(shapes);

  const std::string store_path = "exp_serve_store.hjs";
  std::remove(store_path.c_str());
  std::remove(store::journal_path(store_path).c_str());
  store::PrecomputeOptions popts;
  popts.max_nodes = budget;
  const store::PrecomputeResult pre = store::precompute(
      store_path, popts, [] { return search::make_search_provider(); });
  if (!pre.complete) {
    std::fprintf(stderr, "precompute did not complete\n");
    return 1;
  }
  const store::PlanStore st = store::PlanStore::open(store_path);

  bench::emit(latency_row("warm", warm_latencies(st, shapes)));
  bench::emit(latency_row("cold", cold));
  for (const u32 flips : {1u, 8u, 256u})
    run_corruption(store_path, shapes, flips, /*seed=*/0x522EULL + flips);

  std::remove(store_path.c_str());
  return 0;
}
