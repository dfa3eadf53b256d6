// Tests for the many-to-one embeddings (Section 7).
#include "manytoone/manytoone.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/direct.hpp"
#include "core/fault.hpp"
#include "core/product.hpp"
#include "../core/plan_digest.hpp"

namespace hj::m2o {
namespace {

EmbeddingPtr gray_of(Shape s) {
  return std::make_shared<GrayEmbedding>(Mesh(std::move(s)));
}

TEST(Contraction, LoadFactorIsProductOfFactors) {
  // Lemma 5 with f = 1: contract a 12x6 mesh onto a 4x3 Gray embedding
  // with factors 3x2 -> load factor 6.
  const EmbeddingPtr emb = contract(gray_of(Shape{4, 3}), Shape{3, 2});
  EXPECT_EQ(emb->guest().shape(), (Shape{12, 6}));
  VerifyReport r = verify(*emb);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.load_factor, 6u);
  EXPECT_EQ(r.dilation, 1u);  // dilation of the base is preserved
}

TEST(Contraction, IntraBlockEdgesCollapse) {
  const EmbeddingPtr emb = contract(gray_of(Shape{4}), Shape{3});
  // Guest is a 12-line; edges within a block of 3 have zero-length paths.
  const CubePath p = emb->edge_path(MeshEdge{0, 1, 0, false});
  EXPECT_EQ(p.size(), 1u);
  // Block-boundary edge (2,3) rides the base edge.
  const CubePath q = emb->edge_path(MeshEdge{2, 3, 0, false});
  EXPECT_EQ(q.size(), 2u);
}

TEST(Contraction, CongestionMatchesLemma5Bound) {
  // Base: Gray 4x4 (congestion 1 per axis). Factors 3x2: congestion bound
  // on axis 1 edges: c1 * (3*2)/3 = 2; axis 2: 1 * 6/2 = 3. Overall <= 3.
  const EmbeddingPtr emb = contract(gray_of(Shape{4, 4}), Shape{3, 2});
  VerifyReport r = verify(*emb);
  EXPECT_TRUE(r.valid);
  EXPECT_LE(r.congestion, 3u);
  EXPECT_EQ(r.load_factor, 6u);
}

TEST(Contraction, TheoremFourProductOfManyToOne) {
  // Product of two many-to-one embeddings: load factors multiply,
  // dilation is the max (Theorem 4).
  const EmbeddingPtr f1 = contract(gray_of(Shape{2}), Shape{3});  // load 3
  const EmbeddingPtr f2 = contract(gray_of(Shape{4}), Shape{2});  // load 2
  MeshProductEmbedding prod(f1, f2);
  EXPECT_FALSE(prod.one_to_one());
  EXPECT_EQ(prod.guest().shape(), (Shape{48}));
  VerifyReport r = verify(prod);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.load_factor, 6u);
  EXPECT_LE(r.dilation, 1u);
  // Theorem 4's congestion bound: c <= max(f1*c2, f2*c1) = max(3*1, 2*1).
  EXPECT_LE(r.congestion, 3u);
}

TEST(Fold, QuotientsHighBits) {
  auto base = gray_of(Shape{4, 4});  // Q4
  const SubcubeEmbedding folded(base, 2, 0, 0);
  EXPECT_EQ(folded.host_dim(), 2u);
  VerifyReport r = verify(folded);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.load_factor, 4u);  // 16 nodes onto 4
  EXPECT_LE(r.dilation, 1u);     // folding never lengthens a path
}

TEST(Fold, FullFoldCollapsesEverything) {
  const SubcubeEmbedding folded(gray_of(Shape{4, 4}), 0, 0, 0);
  VerifyReport r = verify(folded);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.load_factor, 16u);
  EXPECT_EQ(r.dilation, 0u);
}

TEST(Fold, RejectsEnlarging) {
  EXPECT_THROW(SubcubeEmbedding(gray_of(Shape{4}), 5, 0, 0),
               std::invalid_argument);
}

TEST(GrayContraction, Corollary4Properties) {
  // An l_i 2^n_i mesh into the (sum n_i)-cube: dilation one, congestion
  // <= prod(l_i) / min(l_i), optimal load factor.
  const Shape counts{3, 5};
  const Shape pows{4, 2};
  EmbeddingPtr emb = gray_contraction(counts, pows);
  EXPECT_EQ(emb->guest().shape(), (Shape{12, 10}));
  EXPECT_EQ(emb->host_dim(), 3u);
  VerifyReport r = verify(*emb);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.dilation, 1u);
  EXPECT_EQ(r.load_factor, 15u);  // optimal: 120 nodes on 8 processors
  EXPECT_LE(r.congestion, 15u / 3u);
}

TEST(GrayContraction, RejectsNonPow2) {
  EXPECT_THROW(gray_contraction(Shape{3}, Shape{6}), std::invalid_argument);
}

TEST(ContractToCube, Paper19x19Example) {
  // Section 7's worked example: a 19x19 mesh into a 5-cube with dilation
  // one; load factor 15 via 24x20 = (3*2^3) x (5*2^2); optimal is
  // ceil(361/32) = 12.
  ContractPlan plan = contract_to_cube(Shape{19, 19}, 5);
  EXPECT_TRUE(plan.report.valid) << plan.plan;
  EXPECT_EQ(plan.report.host_dim, 5u);
  EXPECT_LE(plan.report.dilation, 1u);
  EXPECT_EQ(plan.report.load_factor, 15u) << plan.plan;
  EXPECT_EQ(plan.optimal_load, 12u);
  // Within a factor of two of optimal (Corollary 5).
  EXPECT_LE(plan.report.load_factor, 2 * plan.optimal_load);
}

TEST(ContractToCube, ExactWhenMeshMatchesCube) {
  ContractPlan plan = contract_to_cube(Shape{8, 4}, 5);
  EXPECT_EQ(plan.report.load_factor, 1u);
  EXPECT_EQ(plan.optimal_load, 1u);
  EXPECT_EQ(plan.report.dilation, 1u);
}

TEST(ContractToCube, FoldPathAlsoWorks) {
  // Request a smaller cube than the natural Gray fit: folding kicks in.
  ContractPlan plan = contract_to_cube(Shape{8, 8}, 4);
  EXPECT_TRUE(plan.report.valid) << plan.plan;
  EXPECT_EQ(plan.report.host_dim, 4u);
  EXPECT_EQ(plan.report.load_factor, 4u);
  EXPECT_EQ(plan.optimal_load, 4u);
  EXPECT_LE(plan.report.dilation, 1u);
}

class ContractSweep
    : public ::testing::TestWithParam<std::tuple<Shape, u32>> {};

TEST_P(ContractSweep, WithinTwoOfOptimalAndDilationOne) {
  const auto& [shape, n] = GetParam();
  ContractPlan plan = contract_to_cube(shape, n);
  EXPECT_TRUE(plan.report.valid) << plan.plan;
  EXPECT_LE(plan.report.dilation, 1u) << plan.plan;
  EXPECT_EQ(plan.report.host_dim, n);
  EXPECT_GE(plan.report.load_factor, plan.optimal_load);
  // Corollary 5's factor-of-two guarantee applies exactly when its
  // arithmetic condition holds (e.g. 9x9x9 into Q6 fails the condition
  // and lands at 25 vs optimal 12 — the paper promises nothing there).
  if (corollary5_condition(shape, n)) {
    EXPECT_LE(plan.report.load_factor, 2 * plan.optimal_load) << plan.plan;
  }
}

TEST(ContractToCube, Corollary5ConditionExamples) {
  EXPECT_TRUE(corollary5_condition(Shape{19, 19}, 5));  // 24x20, paper
  EXPECT_FALSE(corollary5_condition(Shape{9, 9, 9}, 6));
  EXPECT_TRUE(corollary5_condition(Shape{8, 4}, 5));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractSweep,
    ::testing::Values(std::tuple{Shape{19, 19}, 5u}, std::tuple{Shape{7}, 2u},
                      std::tuple{Shape{100}, 4u},
                      std::tuple{Shape{9, 9, 9}, 6u},
                      std::tuple{Shape{33, 65}, 8u},
                      std::tuple{Shape{5, 6, 7}, 4u},
                      std::tuple{Shape{127, 3}, 7u}));

// --- Unit-path verify against the generic per-edge oracle ------------------

/// Forwards map/edge_path/one_to_one but hides unit_paths(), so verify()
/// walks every edge path generically: the oracle for the unit-path scan.
class Opaque final : public Embedding {
 public:
  explicit Opaque(EmbeddingPtr base)
      : Embedding(base->guest(), base->host_dim()), base_(std::move(base)) {}
  [[nodiscard]] CubeNode map(MeshIndex idx) const override {
    return base_->map(idx);
  }
  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override {
    return base_->edge_path(e);
  }
  [[nodiscard]] bool one_to_one() const noexcept override {
    return base_->one_to_one();
  }

 private:
  EmbeddingPtr base_;
};

void expect_same_report(const VerifyReport& fast, const VerifyReport& slow,
                        const std::string& what) {
  EXPECT_EQ(fast.valid, slow.valid) << what;
  EXPECT_EQ(fast.fault_free, slow.fault_free) << what;
  EXPECT_EQ(fast.dilation, slow.dilation) << what;
  EXPECT_EQ(fast.avg_dilation, slow.avg_dilation) << what;
  EXPECT_EQ(fast.congestion, slow.congestion) << what;
  EXPECT_EQ(fast.avg_congestion, slow.avg_congestion) << what;
  EXPECT_EQ(fast.wirelength, slow.wirelength) << what;
  EXPECT_EQ(fast.load_factor, slow.load_factor) << what;
  EXPECT_EQ(fast.dilation_histogram, slow.dilation_histogram) << what;
  EXPECT_EQ(fast.congestion_histogram, slow.congestion_histogram) << what;
  EXPECT_EQ(fast.faulted_nodes, slow.faulted_nodes) << what;
  EXPECT_EQ(fast.faulted_paths, slow.faulted_paths) << what;
}

/// A seeded mix of failed nodes and links in Q_n.
FaultSet seeded_faults(u32 n, u64 seed, u32 count) {
  FaultSet f;
  u64 x = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto next = [&] {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 29;
    return x;
  };
  for (u32 i = 0; i < count; ++i) {
    const CubeNode a = next() % (u64{1} << n);
    if (i % 2 == 0)
      f.fail_node(a);
    else
      f.fail_link(a, a ^ (u64{1} << (next() % n)));
  }
  return f;
}

/// verify and verify(faults) of `emb` must equal the generic oracle's
/// reports field for field, for the fault-free run and several fault sets.
void expect_unit_scan_matches_oracle(const EmbeddingPtr& emb,
                                     const std::string& what) {
  const Opaque oracle(emb);
  expect_same_report(verify(*emb), verify(oracle), what);
  const u32 n = emb->host_dim();
  for (u64 seed = 1; seed <= 3; ++seed) {
    const FaultSet f = seeded_faults(n, seed, 2 + 2 * static_cast<u32>(seed));
    expect_same_report(verify(*emb, f), verify(oracle, f),
                       what + " faults seed " + std::to_string(seed));
  }
}

TEST(UnitPaths, GrayContractionChainsClaimUnitPaths) {
  // Corollary 4/5 chains keep Gray's dilation-1 unit paths through the
  // contraction, the fold and the sub-cube placement.
  const EmbeddingPtr chain = gray_contraction(Shape{3, 5}, Shape{4, 2});
  EXPECT_TRUE(chain->unit_paths());
  const auto folded = std::make_shared<SubcubeEmbedding>(chain, 2, 0, 0);
  EXPECT_TRUE(folded->unit_paths());
  EXPECT_TRUE(SubcubeEmbedding(folded, 4, 0x5, 0x1).unit_paths());
  // A base without the contract passes that on.
  auto table = direct_embedding(Shape{3, 5});
  ASSERT_TRUE(table.has_value());
  EXPECT_FALSE(contract(*table, Shape{2, 2})->unit_paths());
}

TEST(UnitPaths, ContractSweepMatchesGenericVerify) {
  for (const Shape& shape :
       {Shape{19, 19}, Shape{7}, Shape{100}, Shape{9, 9, 9}, Shape{33, 65},
        Shape{5, 6, 7}, Shape{127, 3}, Shape{8, 8}, Shape{11, 13, 23}})
    for (u32 n = 1; n <= shape.minimal_cube_dim(); ++n) {
      const std::string what = shape.to_string() + " Q" + std::to_string(n);
      const ContractPlan plan = contract_to_cube(shape, n);
      EXPECT_TRUE(plan.embedding->unit_paths()) << what << " " << plan.plan;
      expect_unit_scan_matches_oracle(plan.embedding, what);
    }
}

TEST(UnitPaths, DegradeProviderOutputsMatchGenericVerify) {
  // The last two are storm_recover's bases, 11x13x23 in Q12 and 13x25x41
  // in Q14, whose replans mostly end in the degrade provider: the unit
  // scan is the verify() path that workload reads.
  const DegradeProvider provider = make_degrade_provider();
  u32 placed = 0, placed_storm = 0;
  for (const Shape& shape :
       {Shape{4, 4, 4}, Shape{3, 3, 7}, Shape{5, 6, 8}, Shape{7, 9, 15},
        Shape{11, 13, 23}, Shape{13, 25, 41}})
    for (u64 seed = 1; seed <= 6; ++seed) {
      const u32 n = shape.minimal_cube_dim();
      const FaultSet faults = seeded_faults(n, seed, 3 * static_cast<u32>(seed));
      const auto degraded = provider(shape, n, faults);
      if (!degraded) continue;
      ++placed;
      placed_storm += shape.num_nodes() > 3000;
      const std::string what = shape.to_string() + " seed " +
                               std::to_string(seed) + " " + degraded->plan;
      EXPECT_TRUE(degraded->embedding->unit_paths()) << what;
      const Opaque oracle(degraded->embedding);
      const VerifyReport r = verify(*degraded->embedding, faults);
      expect_same_report(r, verify(oracle, faults), what);
      EXPECT_TRUE(r.valid) << what;
      EXPECT_TRUE(r.fault_free) << what;
      expect_unit_scan_matches_oracle(degraded->embedding, what);
    }
  EXPECT_GE(placed, 20u);
  std::printf("degrade oracle: %u placements, %u on the storm bases\n",
              placed, placed_storm);
  EXPECT_EQ(placed_storm, 12u);  // every seed places on both
}

// --- Pinned outputs ----------------------------------------------------------

/// A placement of `base` into Q_n with `mask` pinned to `value`, folding
/// the base's surplus bits first.
EmbeddingPtr place(EmbeddingPtr base, u32 n, u64 mask, u64 value) {
  return std::make_shared<SubcubeEmbedding>(std::move(base), n, mask, value);
}

/// Adds everything a many-to-one plan shows its readers: the node map,
/// every edge path in for_each_edge order, the walk's (edge, path) pairs
/// in slot order, the plan string and the whole certificate.
void add_plan(PlanDigest& d, const Embedding& emb, const std::string& plan,
              const VerifyReport& report) {
  std::vector<CubeNode> nodes;
  emb.map_all(nodes);
  for (const CubeNode v : nodes) d.add(v);
  const auto add_path = [&](const MeshEdge& e, const CubePath& p) {
    d.add(e.a);
    d.add(e.b);
    d.add(u64{e.axis});
    d.add(p.size());
    for (const CubeNode v : p) d.add(v);
  };
  emb.guest().for_each_edge(
      [&](const MeshEdge& e) { add_path(e, emb.edge_path(e)); });
  const u64 n = emb.guest().num_nodes();
  std::vector<std::pair<u64, std::pair<MeshEdge, CubePath>>> walked;
  emb.walk_edge_paths([&](const MeshEdge& e, const Coord&, const CubePath& p) {
    walked.push_back({e.axis * n + e.a, {e, p}});
  });
  std::sort(walked.begin(), walked.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [slot, w] : walked) add_path(w.first, w.second);
  d.add(plan);
  d.report(report);
}

TEST(ManyToOne, PlanDigestIsPinned) {
  // Section 7's constructions may change form but not output: pin node
  // maps, paths, walks, plan strings and certificates of contract_to_cube
  // plans, of the degrade provider's placements on the storm bases under
  // seeded node faults, and of contractions, folds and placements over
  // planned and Gray bases.
  PlanDigest d;
  for (const auto& [s, n] :
       {std::pair{Shape{19, 19}, 5u}, std::pair{Shape{6, 10, 12}, 6u},
        std::pair{Shape{8, 8}, 4u}, std::pair{Shape{8, 4}, 5u},
        std::pair{Shape{4, 8}, 3u}, std::pair{Shape{7}, 2u},
        std::pair{Shape{100}, 4u}, std::pair{Shape{9, 9, 9}, 6u},
        std::pair{Shape{33, 65}, 8u}, std::pair{Shape{5, 6, 7}, 4u},
        std::pair{Shape{127, 3}, 7u}, std::pair{Shape{3, 3, 5}, 3u},
        std::pair{Shape{11, 13, 23}, 10u}}) {
    const ContractPlan c = contract_to_cube(s, n);
    add_plan(d, *c.embedding, c.plan, c.report);
    d.add(c.optimal_load);
  }
  const DegradeProvider provider = make_degrade_provider();
  u32 placed = 0;
  for (const auto& [s, n] :
       {std::pair{Shape{11, 13, 23}, 12u}, std::pair{Shape{13, 25, 41}, 14u},
        std::pair{Shape{7, 9, 15}, 10u}})
    for (u64 seed = 1; seed <= 20; ++seed) {
      std::mt19937_64 rng(seed);
      FaultSet faults;
      for (int i = 0; i < 3; ++i) faults.fail_node(rng() % (u64{1} << n));
      const auto degraded = provider(s, n, faults);
      d.add(u64{degraded.has_value()});
      if (!degraded) continue;
      ++placed;
      add_plan(d, *degraded->embedding, degraded->plan,
               verify(*degraded->embedding, faults));
    }
  Planner planner;
  for (const Shape& s : {Shape{3, 5}, Shape{7, 9}, Shape{3, 3, 7},
                         Shape{5, 6, 7}, Shape{4, 4}}) {
    const EmbeddingPtr planned = planner.plan(s).embedding;
    const EmbeddingPtr gray = gray_of(s);
    for (const EmbeddingPtr& base : {planned, gray}) {
      const u32 n = base->host_dim();
      SmallVec<u64, 4> f(s.dims(), 1);
      f[0] = 2;
      f[s.dims() - 1] *= 3;
      const EmbeddingPtr contracted = contract(base, Shape{f});
      for (const EmbeddingPtr& e :
           {contracted, place(base, n - 2, 0, 0), place(base, 0, 0, 0),
            place(contracted, n + 2, u64{3} << n, u64{1} << n),
            place(base, n, u64{5} << (n - 3), u64{4} << (n - 3))})
        add_plan(d, *e, "", verify(*e));
    }
  }
  std::printf("many-to-one digest: 0x%016llx, %u placements\n",
              static_cast<unsigned long long>(d.h), placed);
  EXPECT_EQ(placed, 60u);
  EXPECT_EQ(d.h, 0x52ced81296502fb5ull);
}

}  // namespace
}  // namespace hj::m2o
