// E22 — plan serving at production scale: store-hit latency and
// corruption survival.
//
// Builds a plan store with the checkpointed precompute pass, then
// measures the two serve-path claims:
//
//   * "latency" rows — exact p50/p99/mean request latency for cold
//     serving (live planner, no store, a fresh server per request in a
//     freshly forked child, so the process-wide search memo is empty)
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
// tools/check_bench.py. `exp_serve --quick` shrinks the store budget
// for CI.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

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
/// (planner, plan cache, search provider) in its own forked child, which
/// sends its latency_us back over a pipe. Call this before anything in
/// the process searches: a child then starts with an empty process-wide
/// search memo, so nothing searched for one request — or by the
/// precompute — answers another. The child first serves the shape once
/// with no provider (which cannot touch the memo), so its copy-on-write
/// pages and the library's lazily built tables are in place and the
/// timed request measures planning and search, not process start-up.
std::vector<u64> cold_latencies(const std::vector<Shape>& shapes) {
  constexpr u64 kFailed = ~u64{0};
  std::vector<u64> lat;
  lat.reserve(shapes.size());
  for (const Shape& s : shapes) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      u64 us = kFailed;
      try {
        (void)store::Server(nullptr, {}, nullptr).handle(s);
        const store::Reply rep = store::Server(nullptr, {}, [] {
                                   return search::make_search_provider();
                                 }).handle(s);
        if (rep.ok)
          us = rep.latency_us;
        else
          report_failure(s, rep);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cold child failed on %s: %s\n",
                     s.to_string().c_str(), e.what());
      }
      const bool sent = write(fds[1], &us, sizeof us) == sizeof us;
      std::fflush(nullptr);
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    u64 us = kFailed;
    if (read(fds[0], &us, sizeof us) != sizeof us) us = kFailed;
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
      if (errno != EINTR) throw std::runtime_error("waitpid failed");
    if (us != kFailed) lat.push_back(us);
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

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const bench::RowFile rows("BENCH_serve.json");

  const u64 budget = quick ? 64 : 512;
  const std::vector<Shape> shapes =
      store::enumerate_canonical_shapes(budget, 3);
  // Cold first, while no search has run in this process (see
  // cold_latencies); its per-request servers live and die in children.
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
  for (const u32 flips : {1u, 8u, quick ? 32u : 256u})
    run_corruption(store_path, shapes, flips, /*seed=*/0x522EULL + flips);

  std::remove(store_path.c_str());
  return 0;
}
