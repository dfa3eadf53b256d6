// Determinism across thread counts: the batch engine's contract is that
// sweep_3d, verify_batch and plan_batch return *bit-identical* results
// at every HJ_THREADS setting — counts, metrics (doubles compared
// exactly), histograms and plan strings. The par:: engine guarantees
// this by fixing the chunk decomposition and the merge order
// independently of the worker count; these tests pin the contract.
#include <gtest/gtest.h>

#include <random>

#include "core/coverage.hpp"
#include "core/parallel.hpp"
#include "core/planner.hpp"
#include "core/verify.hpp"
#include "search/provider.hpp"

namespace hj {
namespace {

constexpr u32 kThreadCounts[] = {1, 2, 8};

/// RAII guard: restore the engine to env/hardware resolution on exit so
/// a failing test cannot leak an override into later tests.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { par::set_thread_override(0); }
};

void expect_same_report(const VerifyReport& a, const VerifyReport& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.guest_nodes, b.guest_nodes);
  EXPECT_EQ(a.guest_edges, b.guest_edges);
  EXPECT_EQ(a.host_dim, b.host_dim);
  EXPECT_EQ(a.expansion, b.expansion);  // doubles: exact, not approximate
  EXPECT_EQ(a.minimal_expansion, b.minimal_expansion);
  EXPECT_EQ(a.dilation, b.dilation);
  EXPECT_EQ(a.avg_dilation, b.avg_dilation);
  EXPECT_EQ(a.dilation_histogram, b.dilation_histogram);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_TRUE(a.bounds == b.bounds);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.avg_congestion, b.avg_congestion);
  EXPECT_EQ(a.congestion_histogram, b.congestion_histogram);
  EXPECT_EQ(a.load_factor, b.load_factor);
}

std::vector<Shape> seeded_shapes(std::size_t count) {
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<u64> axis(1, 24);
  std::uniform_int_distribution<u32> rank(1, 3);
  std::vector<Shape> shapes;
  while (shapes.size() < count) {
    SmallVec<u64, 4> ext;
    const u32 k = rank(rng);
    for (u32 d = 0; d < k; ++d) ext.push_back(axis(rng));
    Shape s{ext};
    if (s.num_nodes() >= 2 && s.num_nodes() <= 4096)
      shapes.push_back(std::move(s));
  }
  return shapes;
}

TEST(Determinism, SweepCountsIdenticalAtEveryThreadCount) {
  const ThreadOverrideGuard guard;
  par::set_thread_override(1);
  const coverage::SweepCounts reference = coverage::sweep_3d(5);
  for (u32 threads : kThreadCounts) {
    par::set_thread_override(threads);
    const coverage::SweepCounts c = coverage::sweep_3d(5);
    EXPECT_EQ(c.total, reference.total) << threads << " threads";
    EXPECT_EQ(c.by_method, reference.by_method) << threads << " threads";
  }
}

TEST(Determinism, SweepHonoursHjThreadsEnvironment) {
  const ThreadOverrideGuard guard;
  par::set_thread_override(0);
  ASSERT_EQ(setenv("HJ_THREADS", "3", 1), 0);
  EXPECT_EQ(par::thread_count(), 3u);
  const coverage::SweepCounts at3 = coverage::sweep_3d(4);
  ASSERT_EQ(setenv("HJ_THREADS", "1", 1), 0);
  EXPECT_EQ(par::thread_count(), 1u);
  const coverage::SweepCounts at1 = coverage::sweep_3d(4);
  unsetenv("HJ_THREADS");
  EXPECT_EQ(at3.by_method, at1.by_method);
  // The CLI override outranks the environment.
  par::set_thread_override(5);
  EXPECT_EQ(par::thread_count(), 5u);
}

TEST(Determinism, VerifyBatchIdenticalAtEveryThreadCount) {
  const ThreadOverrideGuard guard;
  par::set_thread_override(1);
  const std::vector<Shape> shapes = seeded_shapes(40);
  std::vector<EmbeddingPtr> embs;
  for (const PlanResult& p : plan_batch(shapes)) embs.push_back(p.embedding);

  const std::vector<VerifyReport> reference = verify_batch(embs);
  ASSERT_EQ(reference.size(), embs.size());
  for (u32 threads : kThreadCounts) {
    par::set_thread_override(threads);
    const std::vector<VerifyReport> reports = verify_batch(embs);
    ASSERT_EQ(reports.size(), reference.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE(shapes[i].to_string() + " at " + std::to_string(threads) +
                   " threads");
      expect_same_report(reports[i], reference[i]);
    }
  }
}

TEST(Determinism, VerifyBatchMatchesSerialVerify) {
  const ThreadOverrideGuard guard;
  par::set_thread_override(4);
  const std::vector<Shape> shapes = seeded_shapes(12);
  std::vector<EmbeddingPtr> embs;
  for (const PlanResult& p : plan_batch(shapes)) embs.push_back(p.embedding);
  const std::vector<VerifyReport> batch = verify_batch(embs);
  for (std::size_t i = 0; i < embs.size(); ++i) {
    SCOPED_TRACE(shapes[i].to_string());
    expect_same_report(batch[i], verify(*embs[i]));
  }
}

TEST(Determinism, PlanBatchIdenticalAtEveryThreadCount) {
  const ThreadOverrideGuard guard;
  // Include permuted duplicates so the canonical dedup + perm relabel
  // path is exercised under contention.
  std::vector<Shape> shapes = seeded_shapes(48);
  shapes.push_back(Shape{5, 3, 2});
  shapes.push_back(Shape{2, 3, 5});
  shapes.push_back(Shape{3, 5, 2});

  par::set_thread_override(1);
  const std::vector<PlanResult> reference = plan_batch(shapes);
  for (u32 threads : kThreadCounts) {
    par::set_thread_override(threads);
    const std::vector<PlanResult> results = plan_batch(shapes);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      SCOPED_TRACE(shapes[i].to_string() + " at " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(results[i].plan, reference[i].plan);
      expect_same_report(results[i].report, reference[i].report);
    }
  }
}

TEST(Determinism, PlanBatchIdenticalPerObjectiveAtEveryThreadCount) {
  // The multi-objective planner must stay bit-identical across thread
  // counts for *every* objective, not just the lexicographic default:
  // non-lex objectives verify candidates and race the balanced router,
  // so any nondeterminism there would leak into plan strings or metrics.
  const ThreadOverrideGuard guard;
  const std::vector<Shape> shapes = seeded_shapes(16);
  for (u32 obj = 0; obj < cost::kNumObjectives; ++obj) {
    PlannerOptions opts;
    opts.objective = static_cast<cost::Objective>(obj);
    SCOPED_TRACE(std::string("objective ") +
                 cost::objective_name(opts.objective));
    par::set_thread_override(1);
    const std::vector<PlanResult> reference = plan_batch(shapes, opts);
    for (u32 threads : kThreadCounts) {
      par::set_thread_override(threads);
      const std::vector<PlanResult> results = plan_batch(shapes, opts);
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE(shapes[i].to_string() + " at " +
                     std::to_string(threads) + " threads");
        EXPECT_EQ(results[i].plan, reference[i].plan);
        expect_same_report(results[i].report, reference[i].report);
      }
    }
  }
}

TEST(Determinism, PlanBatchCanonicalizesPermutedShapes) {
  const ThreadOverrideGuard guard;
  par::set_thread_override(2);
  const std::vector<Shape> shapes = {Shape{7, 3, 2}, Shape{2, 3, 7},
                                     Shape{3, 7, 2}, Shape{2, 3, 7}};
  const std::vector<PlanResult> results = plan_batch(shapes);
  // All four are one canonical class: same cube, same certified metrics,
  // and each result's guest is the shape as requested.
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].embedding->guest().shape(), shapes[i]);
    EXPECT_EQ(results[i].report.host_dim, results[0].report.host_dim);
    EXPECT_EQ(results[i].report.dilation, results[0].report.dilation);
    EXPECT_EQ(results[i].report.congestion, results[0].report.congestion);
    EXPECT_TRUE(results[i].report.valid);
  }
  // Exact duplicates share one plan (and plan string).
  EXPECT_EQ(results[1].plan, results[3].plan);
  // The sorted member is the canonical plan; permuted members carry the
  // perm<> relabel wrapper.
  EXPECT_NE(results[1].plan.rfind("perm<", 0), 0u);
  EXPECT_EQ(results[0].plan.rfind("perm<", 0), 0u);
}

TEST(Determinism, RepeatedRunsAtEightThreadsAreBitIdentical) {
  // Thread-count invariance alone would not catch a racy self-scheduler:
  // with ticket-based chunk claiming, *which worker* computes a chunk
  // varies run to run even at a fixed thread count. Five repeated runs
  // at 8 threads pin that the claim order never leaks into results —
  // the merge order is a function of the chunk index only.
  const ThreadOverrideGuard guard;
  par::set_thread_override(8);
  const std::vector<Shape> shapes = seeded_shapes(24);

  const coverage::SweepCounts sweep_ref = coverage::sweep_3d(5);
  const std::vector<PlanResult> plan_ref = plan_batch(shapes);
  std::vector<EmbeddingPtr> embs;
  for (const PlanResult& p : plan_ref) embs.push_back(p.embedding);
  const std::vector<VerifyReport> verify_ref = verify_batch(embs);

  for (int run = 1; run < 5; ++run) {
    SCOPED_TRACE("repeat " + std::to_string(run));
    const coverage::SweepCounts sweep = coverage::sweep_3d(5);
    EXPECT_EQ(sweep.total, sweep_ref.total);
    EXPECT_EQ(sweep.by_method, sweep_ref.by_method);

    const std::vector<PlanResult> plans = plan_batch(shapes);
    ASSERT_EQ(plans.size(), plan_ref.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(plans[i].plan, plan_ref[i].plan) << shapes[i].to_string();
      expect_same_report(plans[i].report, plan_ref[i].report);
    }

    const std::vector<VerifyReport> reports = verify_batch(embs);
    ASSERT_EQ(reports.size(), verify_ref.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE(shapes[i].to_string());
      expect_same_report(reports[i], verify_ref[i]);
    }
  }
}

TEST(Determinism, SharedCacheReusesFactorPlans) {
  const ThreadOverrideGuard guard;
  par::set_thread_override(2);
  // Without a provider, and with one: each worker planner attaches the
  // shared cache before its provider, which must not wipe the cache.
  const DirectProviderFactory searching = [] {
    return search::make_search_provider();
  };
  for (const DirectProviderFactory& factory : {DirectProviderFactory{},
                                               searching}) {
    ShardedPlanCache cache;
    const std::vector<Shape> shapes = {Shape{6, 10}, Shape{10, 6},
                                       Shape{12, 10}, Shape{5, 5},
                                       Shape{5, 10}};
    const std::vector<PlanResult> first =
        plan_batch(shapes, {}, factory, &cache);
    EXPECT_GT(cache.size(), 0u);
    const u64 size_after_first = cache.size();
    // Replanning the same batch against the warm cache adds no entries
    // and returns identical plans.
    const std::vector<PlanResult> second =
        plan_batch(shapes, {}, factory, &cache);
    EXPECT_EQ(cache.size(), size_after_first);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      EXPECT_EQ(first[i].plan, second[i].plan);
      expect_same_report(first[i].report, second[i].report);
      // Canonical shapes come straight from the cache: the very same
      // embedding objects, not replans.
      if (shapes[i] == shapes[i].sorted()) {
        EXPECT_EQ(first[i].embedding, second[i].embedding)
            << shapes[i].to_string();
      }
    }
  }
}

}  // namespace
}  // namespace hj
