// Workload plan_batch: the planner's own machinery under batch load.
//
// Seeded random shapes (rank 1-3, axes 2..32 — the E17 distribution,
// about two requests per canonical shape) are planned in batches of
// kBatch with plan_batch, no search provider and a fresh
// ShardedPlanCache per batch, at HJ_THREADS workers. Set-up is one
// cold warm-up batch (a process's first batch is markedly slower). The
// timed window runs batches with derived seeds until --seconds pass.
//
// Gates: every plan is re-certified by verify_batch (valid, dilation
// <= 2, report identical to the planner's certificate), and the first
// timed batch is re-planned at one thread and must give the identical
// digest of plan strings and reports.
#include <random>
#include <set>

#include "bench.hpp"
#include "core/parallel.hpp"

namespace perfbench {
namespace {

constexpr u32 kBatch = 2000;

std::vector<hj::Shape> batch_shapes(u64 seed, u64 batch) {
  std::mt19937_64 rng(mix(seed, batch));
  std::uniform_int_distribution<u64> axis(2, 32);
  std::uniform_int_distribution<u32> rank(1, 3);
  std::vector<hj::Shape> shapes;
  shapes.reserve(kBatch);
  for (u32 i = 0; i < kBatch; ++i) {
    hj::SmallVec<u64, 4> ext;
    const u32 k = rank(rng);
    for (u32 d = 0; d < k; ++d) ext.push_back(axis(rng));
    shapes.push_back(hj::Shape{ext});
  }
  return shapes;
}

u64 fnv(u64 h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

/// Digest of every plan string and certificate in a batch result.
u64 digest(const std::vector<hj::PlanResult>& plans) {
  u64 h = 14695981039346656037ull;
  for (const hj::PlanResult& p : plans) {
    const hj::VerifyReport& r = p.report;
    const u64 fields[] = {r.valid, r.host_dim, r.dilation, r.congestion,
                          r.wirelength, r.guest_nodes, r.guest_edges};
    h = fnv(h, p.plan.data(), p.plan.size());
    h = fnv(h, fields, sizeof fields);
  }
  return h;
}

std::vector<hj::PlanResult> timed_plan_batch(
    const std::vector<hj::Shape>& shapes, hj::ShardedPlanCache& cache,
    double& seconds) {
  ScopedSpan span("core.plan_batch");
  const u64 t0 = now_ns();
  std::vector<hj::PlanResult> out = hj::plan_batch(shapes, {}, nullptr, &cache);
  seconds = secs(now_ns() - t0);
  return out;
}

}  // namespace

RunResult run_plan_batch(const RunContext& ctx) {
  RunResult res;
  const auto setup = [&](const std::string&) {
    hj::ShardedPlanCache cache;
    (void)hj::plan_batch(batch_shapes(ctx.seed, 0), {}, nullptr, &cache);
  };
  std::vector<double> setup_s = forked_setup_seconds(setup, 2);
  {
    const u64 t0 = now_ns();
    setup("parent");
    setup_s.push_back(secs(now_ns() - t0));
  }

  std::vector<double> batch_s;
  u64 shapes_total = 0, unique_total = 0, edges = 0, entries = 0;
  double verify_s = 0, first_batch_s = 0;
  u64 first_digest = 0;
  const u64 window0 = now_ns();
  for (u64 b = 1; b == 1 || secs(now_ns() - window0) < ctx.seconds; ++b) {
    const std::vector<hj::Shape> shapes = batch_shapes(ctx.seed, b);
    ScopedSpan unit("bench.batch", b);
    hj::ShardedPlanCache cache;
    double dt = 0;
    const std::vector<hj::PlanResult> plans =
        timed_plan_batch(shapes, cache, dt);
    batch_s.push_back(dt);
    shapes_total += shapes.size();
    res.attempted += shapes.size();
    entries += cache.size();
    std::set<std::string> uniq;
    for (const hj::Shape& s : shapes) uniq.insert(s.sorted().to_string());
    unique_total += uniq.size();
    if (b == 1) {
      first_batch_s = dt;
      first_digest = digest(plans);
    }

    // Gate: re-certify every plan, outside the timed call.
    std::vector<hj::EmbeddingPtr> embs;
    embs.reserve(plans.size());
    for (const hj::PlanResult& p : plans) embs.push_back(p.embedding);
    const u64 tv = now_ns();
    std::vector<hj::VerifyReport> reports;
    {
      ScopedSpan span("core.verify_batch");
      reports = hj::verify_batch(embs);
    }
    verify_s += secs(now_ns() - tv);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const hj::VerifyReport& r = reports[i];
      const hj::VerifyReport& c = plans[i].report;
      edges += r.guest_edges;
      if (!r.valid || r.dilation > 2 || r.dilation != c.dilation ||
          r.host_dim != c.host_dim || r.congestion != c.congestion ||
          r.wirelength != c.wirelength ||
          plans[i].embedding->guest().shape() != shapes[i])
        res.fail(1, "plan of " + shapes[i].to_string() +
                        " failed re-certification");
    }
  }

  // Gate: the first timed batch re-planned at one thread must match
  // bit for bit. Its time also gives the parallel speedup.
  hj::par::set_thread_override(1);
  hj::ShardedPlanCache cache1;
  double serial_s = 0;
  const std::vector<hj::PlanResult> serial =
      timed_plan_batch(batch_shapes(ctx.seed, 1), cache1, serial_s);
  hj::par::set_thread_override(0);
  if (digest(serial) != first_digest)
    res.fail(kBatch, "plan digest differs between 1 and " +
                         std::to_string(hj::par::thread_count()) + " threads");

  double plan_s = 0;
  for (const double d : batch_s) plan_s += d;
  res.e2e.num("setup_s", median(setup_s))
      .num("peak_rss_mb", peak_rss_mb())
      .num("throughput_per_s", static_cast<double>(shapes_total) / plan_s)
      .num("p50_us", percentile(batch_s, 0.5) * 1e6);
  res.samples.num("setup_s", static_cast<double>(setup_s.size()))
      .num("throughput_per_s", static_cast<double>(shapes_total))
      .num("p50_us", static_cast<double>(batch_s.size()));
  const double n = static_cast<double>(batch_s.size());
  res.extra.num("batches", n)
      .num("batch_p99_us", percentile(batch_s, 0.99) * 1e6)
      .num("batch_shapes", kBatch)
      .num("shapes_per_s", static_cast<double>(shapes_total) / plan_s)
      .num("plan_batch_s_mean", plan_s / n)
      .num("serial_batch_s", serial_s)
      .num("parallel_speedup", serial_s / first_batch_s)
      .num("dedup_ratio", static_cast<double>(shapes_total) /
                              static_cast<double>(unique_total))
      .num("plancache_entries_mean", static_cast<double>(entries) / n)
      .num("verify_calls", static_cast<double>(shapes_total))
      .num("shapes_planned", static_cast<double>(shapes_total + 2 * kBatch))
      .num("verify_s", verify_s)
      .num("verify_edges", static_cast<double>(edges));
  return res;
}

}  // namespace perfbench
