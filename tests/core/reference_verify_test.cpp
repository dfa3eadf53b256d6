// An independent reference checker for verify(), compared field by field.
//
// reference_verify() is deliberately naive: per-node virtual map(), the
// per-edge virtual edge_path() in for_each_edge order, std::map for loads
// and link use, no arena, no map_all, no path walk and no unit-path scan.
// Every certificate the system issues (planner results under every
// objective, relabels, decoded store records, fault-avoiding and degraded
// plans, verify_batch) must agree with it, and seeded mutants of
// certified embeddings must be rejected by both, naming the same edge.
// A relabel issues no certificate of its own: it inherits its base's, so
// the relabel gate checks that inheritance on every axis order of every
// canonical shape the plan store holds. The planner's certificate is
// certify(), which composes Gray, product and submesh-of-product reports
// by Theorem 3; the composition gate checks it against a fresh verify()
// and this checker on every canonical shape, E17 batches and the property
// shapes, and the leaf each table stores for it against a fresh read.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>

#include "core/certify.hpp"
#include "core/cost.hpp"
#include "core/direct.hpp"
#include "core/io.hpp"
#include "core/parallel.hpp"
#include "core/planner.hpp"
#include "core/product.hpp"
#include "core/router.hpp"
#include "core/verify.hpp"
#include "manytoone/manytoone.hpp"
#include "property_shapes.hpp"
#include "search/provider.hpp"
#include "store/precompute.hpp"

namespace hj {
namespace {

struct RefReport {
  bool valid = true;
  std::vector<std::string> errors;
  u64 load_factor = 0;
  u32 dilation = 0;
  u32 congestion = 0;
  u64 wirelength = 0;
  double avg_dilation = 0;
  double avg_congestion = 0;
  std::vector<u64> dilation_histogram;
  std::vector<u64> congestion_histogram;
  u64 faulted_nodes = 0;
  u64 faulted_paths = 0;
  bool fault_free = true;
};

void bump(std::vector<u64>& hist, u64 bin) {
  if (hist.size() <= bin) hist.resize(bin + 1, 0);
  ++hist[bin];
}

RefReport reference_verify(const Embedding& emb, const FaultSet* faults) {
  RefReport r;
  const Mesh& guest = emb.guest();
  const u64 cube = u64{1} << emb.host_dim();
  const auto error = [&](std::string msg) {
    r.valid = false;
    if (r.errors.size() < 8) r.errors.push_back(std::move(msg));
  };
  const auto failed = [&](CubeNode v) {
    return faults != nullptr && faults->node_failed(v);
  };

  std::map<CubeNode, u64> load;
  for (MeshIndex i = 0; i < guest.num_nodes(); ++i) {
    const CubeNode v = emb.map(i);
    if (v >= cube) {
      error("node " + std::to_string(i) + " mapped outside the cube");
      continue;
    }
    if (failed(v)) {
      ++r.faulted_nodes;
      r.fault_free = false;
    }
    r.load_factor = std::max(r.load_factor, ++load[v]);
  }
  if (emb.one_to_one() && r.load_factor > 1)
    error("embedding claims one-to-one but load factor is " +
          std::to_string(r.load_factor));

  std::map<std::pair<CubeNode, CubeNode>, u64> use;
  u64 bad = 0;
  guest.for_each_edge([&](const MeshEdge& e) {
    const CubePath p = emb.edge_path(e);
    bool ok = !p.empty() && p.front() == emb.map(e.a) &&
              p.back() == emb.map(e.b);
    for (std::size_t i = 0; ok && i + 1 < p.size(); ++i)
      ok = std::popcount(p[i] ^ p[i + 1]) == 1 && p[i + 1] < cube;
    if (!ok) {
      if (bad++ == 0)
        error("invalid path for edge (" + std::to_string(e.a) + "," +
              std::to_string(e.b) + ") on axis " + std::to_string(e.axis));
      return;
    }
    const u64 d = p.size() - 1;
    bump(r.dilation_histogram, d);
    r.dilation = std::max(r.dilation, static_cast<u32>(d));
    r.wirelength += d;
    bool hit = false;
    for (CubeNode v : p) hit = hit || failed(v);
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      const CubeNode a = std::min(p[i], p[i + 1]);
      const CubeNode b = std::max(p[i], p[i + 1]);
      ++use[{a, b}];
      hit = hit || (faults != nullptr && faults->link_failed(a, b));
    }
    if (hit) {
      ++r.faulted_paths;
      r.fault_free = false;
    }
  });
  if (bad > 1) error(std::to_string(bad) + " invalid edge paths in total");

  const u64 host_edges = cube / 2 * emb.host_dim();
  if (host_edges > 0)
    r.congestion_histogram.assign(1, host_edges - use.size());
  for (const auto& [link, c] : use) {
    r.congestion = std::max(r.congestion, static_cast<u32>(c));
    bump(r.congestion_histogram, c);
  }
  const u64 edges = guest.num_edges();
  r.avg_dilation = edges ? static_cast<double>(r.wirelength) /
                               static_cast<double>(edges)
                         : 0.0;
  r.avg_congestion = host_edges ? static_cast<double>(r.wirelength) /
                                      static_cast<double>(host_edges)
                                : 0.0;
  return r;
}

/// Every field both checkers compute must agree.
void compare(const VerifyReport& v, const RefReport& r,
             const std::string& what) {
  const auto check = [&](bool same, const char* field) {
    if (!same)
      ADD_FAILURE() << what << ": verify() and the reference differ on "
                    << field;
  };
  check(v.valid == r.valid, "valid");
  check(v.errors == r.errors, "errors");
  check(v.load_factor == r.load_factor, "load_factor");
  check(v.dilation == r.dilation, "dilation");
  check(v.congestion == r.congestion, "congestion");
  check(v.wirelength == r.wirelength, "wirelength");
  check(v.avg_dilation == r.avg_dilation, "avg_dilation");
  check(v.avg_congestion == r.avg_congestion, "avg_congestion");
  check(v.dilation_histogram == r.dilation_histogram, "dilation_histogram");
  check(v.congestion_histogram == r.congestion_histogram,
        "congestion_histogram");
  check(v.faulted_nodes == r.faulted_nodes, "faulted_nodes");
  check(v.faulted_paths == r.faulted_paths, "faulted_paths");
  check(v.fault_free == r.fault_free, "fault_free");
}

void expect_agrees(const Embedding& emb, const std::string& what) {
  compare(verify(emb), reference_verify(emb, nullptr), what);
}

void expect_agrees(const Embedding& emb, const FaultSet& faults,
                   const std::string& what) {
  compare(verify(emb, faults), reference_verify(emb, &faults), what);
}

/// Every VerifyReport field, the bounds included.
void expect_same_report(const VerifyReport& a, const VerifyReport& b,
                        const std::string& what) {
  const auto check = [&](bool same, const char* field) {
    if (!same) ADD_FAILURE() << what << ": reports differ on " << field;
  };
  check(a.valid == b.valid, "valid");
  check(a.errors == b.errors, "errors");
  check(a.guest_nodes == b.guest_nodes, "guest_nodes");
  check(a.guest_edges == b.guest_edges, "guest_edges");
  check(a.host_dim == b.host_dim, "host_dim");
  check(a.expansion == b.expansion, "expansion");
  check(a.minimal_expansion == b.minimal_expansion, "minimal_expansion");
  check(a.dilation == b.dilation, "dilation");
  check(a.avg_dilation == b.avg_dilation, "avg_dilation");
  check(a.dilation_histogram == b.dilation_histogram, "dilation_histogram");
  check(a.wirelength == b.wirelength, "wirelength");
  check(a.bounds == b.bounds, "bounds");
  check(a.congestion == b.congestion, "congestion");
  check(a.avg_congestion == b.avg_congestion, "avg_congestion");
  check(a.congestion_histogram == b.congestion_histogram,
        "congestion_histogram");
  check(a.load_factor == b.load_factor, "load_factor");
  check(a.fault_free == b.fault_free, "fault_free");
  check(a.faulted_nodes == b.faulted_nodes, "faulted_nodes");
  check(a.faulted_paths == b.faulted_paths, "faulted_paths");
}

/// The plans certify() composes: Gray plans, product chains and submeshes
/// of either.
enum class Composable { No, Gray, Product, Submesh };

Composable composable(const Embedding& emb) {
  if (const auto* sub = dynamic_cast<const SubmeshEmbedding*>(&emb))
    return composable(sub->base()) == Composable::No ? Composable::No
                                                     : Composable::Submesh;
  if (dynamic_cast<const MeshProductEmbedding*>(&emb))
    return Composable::Product;
  if (dynamic_cast<const GrayEmbedding*>(&emb) && !emb.guest().any_wrap())
    return Composable::Gray;
  return Composable::No;
}

/// The planner's certificate of each plan, recomputed, must equal a fresh
/// verify() in every field and the reference checker in every field it
/// computes, and be composed exactly for the plans certify() composes.
/// Returns the number of composed plans per Composable kind.
std::array<u32, 4> expect_composed_certificates(
    const std::vector<PlanResult>& plans, bool reference) {
  std::vector<u8> composed(plans.size(), 0);
  par::parallel_for(0, plans.size(), 16, [&](u64 lo, u64 hi) {
    for (u64 i = lo; i < hi; ++i) {
      const PlanResult& p = plans[i];
      bool c = false;
      const VerifyReport r = certify(*p.embedding, &c);
      composed[i] = c;
      expect_same_report(r, p.report, "certificate of " + p.plan);
      expect_same_report(r, verify(*p.embedding), p.plan);
      if (reference)
        compare(r, reference_verify(*p.embedding, nullptr), p.plan);
    }
  });
  std::array<u32, 4> kinds{};
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Composable kind = composable(*plans[i].embedding);
    EXPECT_EQ(composed[i] != 0, kind != Composable::No) << plans[i].plan;
    if (composed[i]) ++kinds[static_cast<u32>(kind)];
  }
  return kinds;
}

/// `count` shapes of the E17 distribution (rank 1-3, axes 2..32).
std::vector<Shape> e17_shapes(std::size_t count) {
  std::mt19937_64 rng(0xE17);
  std::uniform_int_distribution<u64> axis(2, 32);
  std::uniform_int_distribution<u32> rank(1, 3);
  std::vector<Shape> shapes;
  for (std::size_t i = 0; i < count; ++i) {
    SmallVec<u64, 4> ext;
    const u32 k = rank(rng);
    for (u32 d = 0; d < k; ++d) ext.push_back(axis(rng));
    shapes.push_back(Shape{ext});
  }
  return shapes;
}

const std::vector<Shape> kShapes = {
    Shape{3, 5},   Shape{7, 9},     Shape{11, 11},  Shape{3, 3, 7},
    Shape{5, 6, 7}, Shape{6, 10, 12}, Shape{12, 20}, Shape{9, 9, 9},
};

TEST(ReferenceVerify, AgreesOnE17PlansAndTheirRelabels) {
  const std::vector<PlanResult> plans = plan_batch(e17_shapes(300));
  for (const PlanResult& p : plans) {
    const RefReport ref = reference_verify(*p.embedding, nullptr);
    compare(p.report, ref, "certificate of " + p.plan);
    compare(verify(*p.embedding), ref, p.plan);
    expect_same_report(p.report, verify(*p.embedding), p.plan);
    // Relabel to the reversed axis order (plan_batch already relabelled
    // every non-canonical request).
    SmallVec<u64, 4> rev = p.embedding->guest().shape().extents();
    std::reverse(rev.begin(), rev.end());
    const PlanResult q = relabel_plan(p, Shape{rev});
    compare(q.report, reference_verify(*q.embedding, nullptr), q.plan);
  }
}

TEST(ReferenceVerify, AgreesForEveryPlannerObjective) {
  for (u32 o = 0; o < cost::kNumObjectives; ++o) {
    PlannerOptions opts;
    opts.objective = static_cast<cost::Objective>(o);
    Planner planner(opts);
    for (const Shape& s : kShapes) {
      const PlanResult p = planner.plan(s);
      compare(p.report, reference_verify(*p.embedding, nullptr), p.plan);
    }
  }
}

TEST(ReferenceVerify, AgreesOnDecodedPlans) {
  Planner planner;
  for (const Shape& s : kShapes) {
    const PlanResult p = planner.plan(s);
    expect_agrees(*io::from_text(io::to_text(*p.embedding)),
                  "decoded " + p.plan);
  }
}

TEST(ReferenceVerify, AgreesOnFaultAvoidingAndDegradedPlans) {
  Planner planner;
  planner.set_degrade_provider(m2o::make_degrade_provider());
  std::mt19937_64 rng(0x0AC1E);
  u32 planned = 0;
  for (const Shape& s : kShapes) {
    const u32 n = planner.plan(s).embedding->host_dim();
    for (int trial = 0; trial < 4; ++trial) {
      FaultSet faults;
      for (int f = 0; f <= trial; ++f) {
        const CubeNode a = rng() % (u64{1} << n);
        if (rng() & 1)
          faults.fail_node(a);
        else
          faults.fail_link(a, a ^ (u64{1} << (rng() % n)));
      }
      PlanResult p;
      try {
        p = planner.plan_avoiding(s, faults);
      } catch (const std::invalid_argument&) {
        continue;  // no rung avoids these faults
      }
      ++planned;
      const std::string what = p.plan + " trial " + std::to_string(trial);
      compare(p.report, reference_verify(*p.embedding, &faults), what);
      expect_agrees(*p.embedding, "fault-free view of " + what);
    }
  }
  EXPECT_GT(planned, kShapes.size() * 3);
  // A full cube with a dead node forces the many-to-one rung.
  FaultSet faults;
  faults.fail_node(5);
  const PlanResult p = planner.plan_avoiding(Shape{4, 4, 4}, faults);
  ASSERT_NE(p.plan.find("degrade"), std::string::npos) << p.plan;
  compare(p.report, reference_verify(*p.embedding, &faults), p.plan);
  // The planned embedding, unrepaired, is exposed to the faults.
  const PlanResult base = planner.plan(Shape{4, 4, 4});
  expect_agrees(*base.embedding, faults, "faulted " + base.plan);
  EXPECT_FALSE(verify(*base.embedding, faults).fault_free);
}

TEST(ReferenceVerify, VerifyBatchAgrees) {
  // verify_batch runs verify() concurrently on the par:: pool, each
  // worker walking its own embeddings' edge paths.
  std::vector<EmbeddingPtr> embs;
  for (const PlanResult& p : plan_batch(e17_shapes(200)))
    embs.push_back(p.embedding);
  const std::vector<VerifyReport> reports = verify_batch(embs);
  FaultSet faults;
  for (CubeNode v = 0; v < 64; v += 9) faults.fail_node(v);
  faults.fail_link(2, 3);
  const std::vector<VerifyReport> faulted = verify_batch(embs, faults);
  ASSERT_EQ(reports.size(), embs.size());
  ASSERT_EQ(faulted.size(), embs.size());
  for (std::size_t i = 0; i < embs.size(); ++i) {
    const std::string what = "batch entry " + std::to_string(i);
    compare(reports[i], reference_verify(*embs[i], nullptr), what);
    compare(faulted[i], reference_verify(*embs[i], &faults), what + " faulted");
  }
}

// --- Relabels ---------------------------------------------------------------

TEST(ReferenceVerify, RelabelsOfEveryCanonicalShapeInheritTheirCertificate) {
  // The relabel gate. Each canonical shape is planned with the search
  // provider attached (as the plan store is), so table leaves with
  // prescribed multi-hop paths are covered, then relabelled to every
  // other distinct axis order. The inherited report must equal a fresh
  // verify() and the reference checker of the relabel in every field.
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Shape> shapes = store::enumerate_canonical_shapes(512, 3);
  ASSERT_EQ(shapes.size(), 4672u);
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  std::vector<PlanResult> relabels;
  for (const Shape& s : shapes) {
    const PlanResult base = planner.plan(s);
    ASSERT_TRUE(base.report.valid) << base.plan;
    SmallVec<u64, 4> order = s.extents();
    std::sort(order.begin(), order.end());
    do {
      if (Shape{order} == s) continue;
      relabels.push_back(relabel_plan(base, Shape{order}));
      expect_same_report(relabels.back().report, base.report,
                         "inherited by " + relabels.back().plan);
    } while (std::next_permutation(order.begin(), order.end()));
  }
  // Relabels share their base, which is immutable: check them on the
  // par:: pool, each against the base report it inherited.
  par::parallel_for(0, relabels.size(), 64, [&](u64 lo, u64 hi) {
    for (u64 i = lo; i < hi; ++i) {
      const PlanResult& q = relabels[i];
      expect_same_report(verify(*q.embedding), q.report, q.plan);
      compare(q.report, reference_verify(*q.embedding, nullptr), q.plan);
    }
  });
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  std::printf("relabel gate: %zu relabels of %zu canonical shapes, %.2f s\n",
              relabels.size(), shapes.size(), secs);
  EXPECT_EQ(relabels.size(), 11719u);
}

TEST(ReferenceVerify, RelabelPlanRejectsWhatItCannotCertify) {
  const PlanResult base = Planner().plan(Shape{3, 5});
  ASSERT_TRUE(base.report.valid);
  EXPECT_NO_THROW((void)relabel_plan(base, Shape{5, 3}));
  // Not an axis permutation: another length, another rank, or a
  // length-1 axis inserted.
  for (const Shape& t : {Shape{3, 7}, Shape{15}, Shape{3, 1, 5}})
    EXPECT_THROW((void)relabel_plan(base, t), std::invalid_argument)
        << t.to_string();
  // A default-constructed report certifies nothing, and neither does the
  // report of another plan.
  PlanResult uncertified = base;
  uncertified.report = VerifyReport{};
  EXPECT_THROW((void)relabel_plan(uncertified, Shape{5, 3}),
               std::invalid_argument);
  uncertified.report = Planner().plan(Shape{3, 6}).report;
  EXPECT_THROW((void)relabel_plan(uncertified, Shape{5, 3}),
               std::invalid_argument);
}

TEST(ReferenceVerify, GrayPlansOfPowerOfTwoMeshesMeetTheirBounds) {
  // Where the cost::Bounds floors are tight the gap is exactly 1.0: a
  // Gray embedding of a power-of-two mesh fills its cube with dilation 1,
  // so its wirelength is |E| and its congestion 1 (arXiv 1807.06787).
  Planner planner;
  u32 shapes = 0;
  for (u32 rank = 1; rank <= 3; ++rank) {
    SmallVec<u32, 4> log(rank, 0);  // odometer over log2 of each axis
    while (true) {
      SmallVec<u64, 4> ext;
      u32 total = 0;
      for (u32 a : log) {
        ext.push_back(u64{1} << a);
        total += a;
      }
      if (total <= 10) {
        const PlanResult p = planner.plan(Shape{ext});
        const VerifyReport& r = p.report;
        ++shapes;
        ASSERT_TRUE(r.valid) << p.plan;
        EXPECT_EQ(p.plan.rfind("gray", 0), 0u) << p.plan;
        EXPECT_EQ(cost::gap(r.dilation, r.bounds.dilation), 1.0) << p.plan;
        EXPECT_EQ(cost::gap(static_cast<double>(r.wirelength),
                            static_cast<double>(r.bounds.wirelength)),
                  1.0)
            << p.plan;
        EXPECT_EQ(cost::gap(r.congestion, r.bounds.congestion), 1.0)
            << p.plan;
      }
      u32 d = 0;
      while (d < rank && ++log[d] > 10) log[d++] = 0;
      if (d == rank) break;
    }
  }
  EXPECT_EQ(shapes, 11u + 66u + 286u);
}

// --- Mutants ----------------------------------------------------------------

enum class Mutation { BrokenHop, WrongEndpoint, OffHost, TwoBrokenHops };

/// A certified embedding with one or two edge paths corrupted. Its walk
/// visits edges in reverse for_each_edge order, so verify() must still
/// name the lowest-slot bad edge, as the reference does.
class Mutant final : public Embedding {
 public:
  Mutant(EmbeddingPtr base, Mutation m, MeshEdge e1, MeshEdge e2)
      : Embedding(base->guest(), base->host_dim()),
        base_(std::move(base)),
        m_(m),
        e1_(e1),
        e2_(e2) {}

  CubeNode map(MeshIndex i) const override { return base_->map(i); }
  bool one_to_one() const noexcept override { return base_->one_to_one(); }

  CubePath edge_path(const MeshEdge& e) const override {
    CubePath p = base_->edge_path(e);
    const bool hit1 = e.a == e1_.a && e.axis == e1_.axis;
    const bool hit2 = e.a == e2_.a && e.axis == e2_.axis;
    if (!hit1 && !(hit2 && m_ == Mutation::TwoBrokenHops)) return p;
    CubePath q;
    switch (m_) {
      case Mutation::BrokenHop:
      case Mutation::TwoBrokenHops:
        // p0 -> p0^3 is no cube edge (two bits differ).
        q.push_back(p[0]);
        q.push_back(p[0] ^ 3);
        for (CubeNode v : p) q.push_back(v);
        return q;
      case Mutation::WrongEndpoint:
        p.push_back(p.back() ^ 1);  // one more hop, to a neighbour
        return p;
      case Mutation::OffHost: {
        // Out along bit host_dim and straight back: every hop is a cube
        // edge, but the middle node lies outside the host.
        const CubeNode out = p.back() ^ (CubeNode{1} << host_dim());
        p.push_back(out);
        p.push_back(out ^ (CubeNode{1} << host_dim()));
        return p;
      }
    }
    return p;
  }

  void walk_edge_paths(EdgeWalkFn fn) const override {
    const std::vector<MeshEdge> edges = guest().edges();
    for (auto it = edges.rbegin(); it != edges.rend(); ++it)
      fn(*it, guest().shape().coord(it->a), edge_path(*it));
  }

 private:
  EmbeddingPtr base_;
  Mutation m_;
  MeshEdge e1_, e2_;
};

TEST(ReferenceVerify, MutantsAreKilledByBoth) {
  Planner planner;
  std::mt19937_64 rng(0x3D7A47);
  u32 mutants = 0, killed = 0;
  for (const Shape& s : kShapes) {
    const PlanResult p = planner.plan(s);
    ASSERT_TRUE(p.report.valid) << p.plan;
    const std::vector<MeshEdge> edges = p.embedding->guest().edges();
    for (Mutation m : {Mutation::BrokenHop, Mutation::WrongEndpoint,
                       Mutation::OffHost, Mutation::TwoBrokenHops}) {
      const MeshEdge e1 = edges[rng() % edges.size()];
      MeshEdge e2 = edges[rng() % edges.size()];
      while (e2.a == e1.a && e2.axis == e1.axis)
        e2 = edges[rng() % edges.size()];
      const Mutant mutant(p.embedding, m, e1, e2);
      const std::string what =
          p.plan + " mutation " + std::to_string(static_cast<int>(m));
      const VerifyReport v = verify(mutant);
      const RefReport r = reference_verify(mutant, nullptr);
      ++mutants;
      killed += !v.valid && !r.valid;
      EXPECT_FALSE(v.valid) << what;
      EXPECT_FALSE(r.valid) << what;
      ASSERT_FALSE(v.errors.empty()) << what;
      ASSERT_FALSE(r.errors.empty()) << what;
      EXPECT_EQ(v.errors.front(), r.errors.front()) << what;
      compare(v, r, what);
    }
  }
  std::printf("reference checker: %u/%u mutants killed by both checkers\n",
              killed, mutants);
  EXPECT_EQ(killed, mutants);
}

// --- Walk mutants -------------------------------------------------------------

enum class WalkFault { Skip, Duplicate, LastCoordinate, Reversed };

/// A certified plan whose paths are all correct but whose edge walk is
/// not: its first edge is dropped, repeated, replaced by the slot at its
/// axis's last coordinate (no guest edge has its `a` end there) or
/// reported high end first. The reference checker is not asked: it reads
/// edge_path(), which the walk never changes.
class WalkMutant final : public Embedding {
 public:
  WalkMutant(EmbeddingPtr base, WalkFault f)
      : Embedding(base->guest(), base->host_dim()),
        base_(std::move(base)),
        f_(f) {}

  CubeNode map(MeshIndex i) const override { return base_->map(i); }
  CubePath edge_path(const MeshEdge& e) const override {
    return base_->edge_path(e);
  }
  bool one_to_one() const noexcept override { return base_->one_to_one(); }

  void walk_edge_paths(EdgeWalkFn fn) const override {
    const Shape& s = guest().shape();
    bool first = true;
    base_->walk_edge_paths(
        [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
          if (!first) return fn(e, c, p);
          first = false;
          switch (f_) {
            case WalkFault::Skip:
              return;
            case WalkFault::Duplicate:
              fn(e, c, p);
              return fn(e, c, p);
            case WalkFault::LastCoordinate: {
              Coord last = c;
              last[e.axis] = s[e.axis] - 1;
              const MeshIndex a = s.index(last);
              return fn(MeshEdge{a, a + s.stride(e.axis), e.axis, false}, last,
                        p);
            }
            case WalkFault::Reversed: {
              CubePath q = p;
              q.reverse();
              return fn(MeshEdge{e.b, e.a, e.axis, false}, s.coord(e.b), q);
            }
          }
        });
  }

 private:
  EmbeddingPtr base_;
  WalkFault f_;
};

bool names_the_walk(const VerifyReport& r) {
  for (const std::string& e : r.errors)
    if (e.rfind("edge walk ", 0) == 0) return true;
  return false;
}

TEST(ReferenceVerify, WalkMutantsAreKilled) {
  // verify() measures a plan from its edge walk, so a walk that skips,
  // repeats or invents an edge must not be certified, whatever its paths.
  Planner planner;
  const PlanResult p = planner.plan(Shape{7, 9, 15});
  ASSERT_TRUE(p.report.valid) << p.plan;
  ASSERT_FALSE(p.embedding->unit_paths()) << p.plan;
  ASSERT_EQ(p.report.guest_edges, 2532u);
  u32 mutants = 0, killed = 0;
  for (const Shape& s : {Shape{7, 9, 15}, Shape{3, 5}, Shape{11, 11},
                         Shape{5, 6, 7}, Shape{12, 20}, Shape{9, 9, 9}}) {
    const PlanResult base = planner.plan(s);
    for (WalkFault f : {WalkFault::Skip, WalkFault::Duplicate,
                        WalkFault::LastCoordinate, WalkFault::Reversed}) {
      const std::string what =
          base.plan + " walk fault " + std::to_string(static_cast<int>(f));
      const VerifyReport v = verify(WalkMutant(base.embedding, f));
      ++mutants;
      killed += !v.valid && names_the_walk(v);
      EXPECT_FALSE(v.valid) << what;
      EXPECT_TRUE(names_the_walk(v)) << what;
    }
  }
  const VerifyReport skip = verify(WalkMutant(p.embedding, WalkFault::Skip));
  ASSERT_EQ(skip.errors.size(), 1u);
  EXPECT_EQ(skip.errors.front(), "edge walk covers 2531 of 2532 guest edges");
  const VerifyReport twice =
      verify(WalkMutant(p.embedding, WalkFault::Duplicate));
  ASSERT_FALSE(twice.errors.empty());
  EXPECT_NE(twice.errors.front().find("twice"), std::string::npos);
  const VerifyReport last =
      verify(WalkMutant(p.embedding, WalkFault::LastCoordinate));
  ASSERT_FALSE(last.errors.empty());
  EXPECT_NE(last.errors.front().find("no guest edge"), std::string::npos);
  std::printf("walk mutants: %u/%u killed\n", killed, mutants);
  EXPECT_EQ(killed, mutants);
}

TEST(ReferenceVerify, WrapEdgeWalksAreChecked) {
  // Wrap edges take the second bank of the cover bitmap. An honest walk
  // of a torus certifies; one that reports a wrap edge as a plain edge
  // (or the other way round) does not.
  const Mesh torus = Mesh::torus(Shape{4, 8});
  const auto gray = std::make_shared<GrayEmbedding>(torus);
  EXPECT_TRUE(verify(*ExplicitEmbedding::copy_of(*gray)).valid);

  class Unwrapped final : public Embedding {
   public:
    explicit Unwrapped(EmbeddingPtr base)
        : Embedding(base->guest(), base->host_dim()), base_(std::move(base)) {}
    CubeNode map(MeshIndex i) const override { return base_->map(i); }
    void walk_edge_paths(EdgeWalkFn fn) const override {
      base_->walk_edge_paths(
          [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
            MeshEdge f = e;
            if (e.wrap) {  // claim the wrap slot as the plain edge a -> a+st
              f.wrap = false;
              f.b = e.a + guest().shape().stride(e.axis);
            }
            fn(f, c, p);
          });
    }

   private:
    EmbeddingPtr base_;
  };
  const VerifyReport r = verify(Unwrapped(ExplicitEmbedding::copy_of(*gray)));
  EXPECT_FALSE(r.valid);
  EXPECT_TRUE(names_the_walk(r));
}

// --- Differential coverage ----------------------------------------------------

TEST(ReferenceVerify, AgreesOnThePropertyShapes) {
  // The 520 seeded shapes of the planner property harness, planned with
  // the search provider, as that harness plans them; part of the
  // composition gate.
  std::mt19937_64 rng(property::kSeed);
  Planner planner;
  planner.set_direct_provider(search::make_search_provider(100'000));
  std::vector<PlanResult> plans;
  for (int t = 0; t < property::kShapes; ++t)
    plans.push_back(planner.plan(property::random_shape(rng, 1, 3)));
  (void)expect_composed_certificates(plans, true);
}

TEST(ReferenceVerify, AgreesOnManyToOnePlans) {
  // Contraction, cube folds and sub-cube placements of a contraction,
  // over unit-path Gray bases (the unit scan) and dilation-2 planned bases
  // (the edge walk). Placing the one-to-one base itself keeps it
  // one-to-one; that placement is checked beside the 43.
  Planner planner;
  u32 checked = 0;
  for (const Shape& s : {Shape{3, 5}, Shape{7, 9}, Shape{3, 3, 7},
                         Shape{5, 6, 7}, Shape{4, 4}}) {
    const EmbeddingPtr planned = planner.plan(s).embedding;
    const EmbeddingPtr gray = std::make_shared<GrayEmbedding>(Mesh(s));
    for (const EmbeddingPtr& base : {planned, gray}) {
      const std::string what = s.to_string() +
                               (base == gray ? " gray" : " planned");
      const u32 n = base->host_dim();
      SmallVec<u64, 4> f(s.dims(), 1);
      f[0] = 2;
      f[s.dims() - 1] *= 3;
      const EmbeddingPtr contracted = m2o::contract(base, Shape{f});
      const std::vector<EmbeddingPtr> m2o = {
          contracted,
          std::make_shared<m2o::SubcubeEmbedding>(base, n - 2, 0, 0),
          std::make_shared<m2o::SubcubeEmbedding>(base, 0, 0, 0),
          std::make_shared<m2o::SubcubeEmbedding>(contracted, n + 2,
                                                  u64{3} << n, u64{1} << n)};
      for (const EmbeddingPtr& e : m2o) {
        ASSERT_FALSE(e->one_to_one()) << what;
        expect_agrees(*e, what + " " + std::to_string(checked));
        ++checked;
      }
      const m2o::SubcubeEmbedding placed(base, n + 2, u64{3} << n,
                                         u64{1} << n);
      EXPECT_TRUE(placed.one_to_one()) << what;
      expect_agrees(placed, what + " placed");
    }
  }
  for (const auto& [s, n] : {std::pair{Shape{19, 19}, 5u},
                             std::pair{Shape{8, 8}, 4u},
                             std::pair{Shape{6, 10, 12}, 6u}}) {
    const m2o::ContractPlan c = m2o::contract_to_cube(s, n);
    compare(c.report, reference_verify(*c.embedding, nullptr), c.plan);
    ++checked;
  }
  EXPECT_EQ(checked, 43u);
}

TEST(ReferenceVerify, PlacedTableIsOneToOne) {
  // A placement pins address bits and folds nothing: the placed 3x3x3
  // table stays injective, so verify() checks its injectivity and reads
  // the one-to-one bounds, as the reference checker does.
  const auto direct = direct_embedding(Shape{3, 3, 3});
  ASSERT_TRUE(direct.has_value());
  const m2o::SubcubeEmbedding sub(*direct, 6, /*mask=*/0x8, /*value=*/0x8);
  EXPECT_TRUE(sub.one_to_one());
  expect_agrees(sub, "3x3x3 placed in Q6");
  EXPECT_EQ(verify(sub).bounds,
            cost::lower_bounds(sub.guest(), 6, /*one_to_one=*/true));
}

// --- The repair kernel ------------------------------------------------------

/// `count` seeded faults on the hardware `emb` uses: a link under a
/// random edge path, or the host of a random guest node.
FaultSet seeded_faults(const Embedding& emb, bool nodes, u32 count,
                       u64 seed) {
  std::mt19937_64 rng(seed);
  const std::vector<MeshEdge> edges = emb.guest().edges();
  FaultSet faults;
  for (u32 i = 0; i < count; ++i) {
    if (nodes) {
      faults.fail_node(emb.map(rng() % emb.guest().num_nodes()));
      continue;
    }
    const CubePath p = emb.edge_path(edges[rng() % edges.size()]);
    const std::size_t hop = rng() % (p.size() - 1);
    faults.fail_link(p[hop], p[hop + 1]);
  }
  return faults;
}

TEST(ReferenceVerify, RepairKernelVerdictsAgree) {
  // route_and_certify is the one place a fault-avoiding placement is
  // accepted. Feed it the candidates its three callers build: reroute's
  // copy of the current embedding (also of a mutant with a broken path),
  // migrate's spare moves and plan_avoiding's XOR translations. On each,
  // accepted or rejected, the naive checker must reach the same verdict
  // on the routed candidate: valid, fault-free and within the cap.
  u32 accepted = 0, rejected = 0;
  const auto judge = [&](std::shared_ptr<ExplicitEmbedding> cand,
                         const FaultSet& faults, u32 max_dilation,
                         const std::string& what) {
    const std::shared_ptr<ExplicitEmbedding> kept = cand;  // routed in place
    const std::optional<CertifiedRoute> routed =
        route_and_certify(std::move(cand), faults, 2, max_dilation);
    const RefReport ref = reference_verify(*kept, &faults);
    EXPECT_EQ(routed.has_value(),
              ref.valid && ref.fault_free && ref.dilation <= max_dilation)
        << what;
    if (!routed) {
      ++rejected;
      return;
    }
    ++accepted;
    EXPECT_EQ(routed->embedding, kept) << what;
    compare(routed->report, ref, what);
  };

  Planner planner;
  for (const Shape& s : {Shape{3, 3, 7}, Shape{5, 6, 7}, Shape{7, 9, 15}}) {
    const PlanResult base = planner.plan(s);
    const u32 n = base.embedding->host_dim();
    const u32 dil = base.report.dilation;
    std::vector<CubeNode> map;
    base.embedding->map_all(map);
    for (const bool nodes : {false, true}) {
      for (const u32 count : {1u, 3u, 8u}) {
        const FaultSet faults = seeded_faults(*base.embedding, nodes, count,
                                              7 * count + nodes);
        const std::string what = s.to_string() + (nodes ? " node" : " link") +
                                 "x" + std::to_string(count);
        // Caps of +0 and +1 hop: a detour adds two, so the cap binds.
        for (const u32 cap : {dil, dil + 1})
          judge(ExplicitEmbedding::copy_of(*base.embedding), faults, cap,
                what + " reroute cap " + std::to_string(cap));
        // A reroute of a current embedding with one path off its endpoint.
        const std::vector<MeshEdge> edges = base.embedding->guest().edges();
        const Mutant broken(base.embedding, Mutation::WrongEndpoint,
                            edges[count], edges[count + 1]);
        judge(ExplicitEmbedding::copy_of(broken), faults, dil + 1,
              what + " reroute of a mutant");

        // Migrate: each displaced node to its first free healthy
        // neighbour address.
        std::vector<CubeNode> moved(map);
        std::vector<bool> used(u64{1} << n, false);
        for (const CubeNode v : moved) used[v] = true;
        for (CubeNode& v : moved) {
          if (!faults.node_failed(v)) continue;
          for (u32 bit = 0; bit < n; ++bit) {
            const CubeNode w = v ^ (u64{1} << bit);
            if (used[w] || faults.node_failed(w)) continue;
            used[w] = true;
            v = w;
            break;
          }
        }
        auto migrated =
            std::make_shared<ExplicitEmbedding>(Mesh(s), n, std::move(moved));
        route_minimize_congestion(*migrated);
        judge(std::move(migrated), faults, dil + 1, what + " migrate");

        // Translations, screened or not: no dilation cap.
        for (u64 t = 0; t < 8; ++t) {
          std::vector<CubeNode> m(map);
          for (CubeNode& v : m) v ^= t;
          auto translated =
              std::make_shared<ExplicitEmbedding>(Mesh(s), n, std::move(m));
          route_minimize_congestion(*translated);
          judge(std::move(translated), faults, ~u32{0},
                what + " xor " + std::to_string(t));
        }
      }
    }
  }
  std::printf("repair kernel: %u accepted and %u rejected candidates\n",
              accepted, rejected);
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(rejected, 20u);
}


// --- Composed certificates ------------------------------------------------

TEST(ReferenceVerify, ComposedCertificatesOfEveryCanonicalShape) {
  // The composition gate: every canonical shape the plan store holds,
  // planned without and with the search provider.
  const std::vector<Shape> shapes = store::enumerate_canonical_shapes(512, 3);
  ASSERT_EQ(shapes.size(), 4672u);
  std::vector<PlanResult> plans;
  for (const bool search : {false, true}) {
    Planner planner;
    if (search) planner.set_direct_provider(search::make_search_provider());
    for (const Shape& s : shapes) plans.push_back(planner.plan(s));
  }
  const std::array<u32, 4> kinds = expect_composed_certificates(plans, true);
  std::printf("composition gate: %zu plans, composed %u Gray, %u product, "
              "%u submesh\n",
              plans.size(), kinds[1], kinds[2], kinds[3]);
  EXPECT_GT(kinds[1], 0u);
  EXPECT_GT(kinds[2], 0u);
  EXPECT_GT(kinds[3], 0u);
}

/// The canonical shapes of `count` E17 shapes, each once.
std::vector<Shape> e17_canonical(std::size_t count) {
  std::vector<Shape> out;
  std::set<std::string> seen;
  for (const Shape& s : e17_shapes(count))
    if (seen.insert(s.sorted().to_string()).second) out.push_back(s.sorted());
  return out;
}

TEST(ReferenceVerify, ComposedCertificatesOfE17Batches) {
  // The canonical plans of eight E17 batches of 2000 shapes, planned as
  // perfbench plans them (no provider). The reference checker, being
  // slow, reads every 16th.
  const std::vector<PlanResult> plans = plan_batch(e17_canonical(16000));
  const std::array<u32, 4> kinds = expect_composed_certificates(plans, false);
  std::vector<PlanResult> sample;
  for (std::size_t i = 0; i < plans.size(); i += 16) sample.push_back(plans[i]);
  (void)expect_composed_certificates(sample, true);
  std::printf("E17 composition gate: %zu plans, composed %u Gray, %u product, "
              "%u submesh\n",
              plans.size(), kinds[1], kinds[2], kinds[3]);
  EXPECT_GT(plans.size(), 3000u);
  EXPECT_GT(kinds[1], 0u);
  EXPECT_GT(kinds[2], 0u);
  EXPECT_GT(kinds[3], 0u);
}

/// The leaves of a product tree, inner first.
void leaves_of(const EmbeddingPtr& emb, std::vector<EmbeddingPtr>& out) {
  if (const auto* p = dynamic_cast<const MeshProductEmbedding*>(emb.get())) {
    // The factors are held by shared_ptr; alias them to the product.
    leaves_of(EmbeddingPtr(emb, &p->inner()), out);
    leaves_of(EmbeddingPtr(emb, &p->outer()), out);
  } else {
    out.push_back(emb);
  }
}

TEST(ReferenceVerify, ProductChainsAreAssociative) {
  // certify() folds a chain left, ((F0 * F1) * ...) * Fm, whatever its
  // nesting: the Corollary 2 product is associative. Re-associating each
  // E17 chain must leave every node image and every edge path unchanged.
  u32 chains = 0;
  for (const PlanResult& p : plan_batch(e17_canonical(1200))) {
    EmbeddingPtr root = p.embedding;
    const auto* sub = dynamic_cast<const SubmeshEmbedding*>(root.get());
    if (sub) root = EmbeddingPtr(p.embedding, &sub->base());
    std::vector<EmbeddingPtr> leaves;
    leaves_of(root, leaves);
    if (leaves.size() < 3) continue;
    ++chains;
    EmbeddingPtr folded = product_chain(leaves);
    if (sub)
      folded = std::make_shared<SubmeshEmbedding>(
          folded, p.embedding->guest().shape());
    ASSERT_EQ(folded->guest(), p.embedding->guest()) << p.plan;
    ASSERT_EQ(folded->host_dim(), p.embedding->host_dim()) << p.plan;
    std::vector<CubeNode> a, b;
    p.embedding->map_all(a);
    folded->map_all(b);
    ASSERT_EQ(a, b) << p.plan;
    u64 differ = 0;
    p.embedding->guest().for_each_edge([&](const MeshEdge& e) {
      differ += p.embedding->edge_path(e) != folded->edge_path(e);
    });
    EXPECT_EQ(differ, 0u) << p.plan;
  }
  std::printf("associativity: %u chains of three or more leaves\n", chains);
  EXPECT_GT(chains, 100u);
}

/// A product tree over leaves[lo, hi), split at random points.
EmbeddingPtr random_tree(const std::vector<EmbeddingPtr>& leaves,
                         std::size_t lo, std::size_t hi,
                         std::mt19937_64& rng) {
  if (hi - lo == 1) return leaves[lo];
  const std::size_t mid = lo + 1 + rng() % (hi - lo - 1);
  return std::make_shared<MeshProductEmbedding>(
      random_tree(leaves, lo, mid, rng), random_tree(leaves, mid, hi, rng));
}

/// A 2x2x3 Gray map in Q4, hosted in Q5, whose first `busy` edges detour
/// through the link p - p^16, p a node no guest node uses: down to p in
/// Q4, across, back in the upper half and down onto the edge's far end.
/// Each detour is shortest within each half, so that link, with `busy`
/// paths, is the busiest.
EmbeddingPtr busy_link_leaf(u32 busy) {
  const Mesh mesh(Shape{2, 2, 3});
  std::vector<CubeNode> map;
  GrayEmbedding(mesh).map_all(map);
  CubeNode p = 0;
  while (std::find(map.begin(), map.end(), p) != map.end()) ++p;
  auto emb = std::make_shared<ExplicitEmbedding>(mesh, 5, map);
  const std::vector<MeshEdge> edges = mesh.edges();
  for (u32 i = 0; i < busy; ++i) {
    const MeshEdge& e = edges[i];
    CubePath path = Hypercube::ecube_path(map[e.a], p);
    for (const CubeNode v : Hypercube::ecube_path(p ^ 16, map[e.b] ^ 16))
      path.push_back(v);
    path.push_back(map[e.b]);
    emb->set_edge_path(e, std::move(path));
  }
  return emb;
}

/// A random permutation of 0..k-1.
SmallVec<u32, 4> random_axes(u32 k, std::mt19937_64& rng) {
  std::vector<u32> axes(k);
  for (u32 a = 0; a < k; ++a) axes[a] = a;
  std::shuffle(axes.begin(), axes.end(), rng);
  return SmallVec<u32, 4>(axes.begin(), axes.end());
}

TEST(ReferenceVerify, ComposedCertificatesOfRandomChains) {
  // Trees the planner does not build: rank-3 Gray meshes and relabelled
  // tables as leaves, any nesting, and submesh boxes of any size, Gray
  // bases included. Each is composed and equals verify() and the
  // reference.
  const std::vector<Shape> tables = {Shape{3, 5, 1}, Shape{1, 3, 5},
                                     Shape{5, 1, 3}, Shape{3, 3, 3},
                                     Shape{3, 7, 3}, Shape{1, 7, 9}};
  std::mt19937_64 rng(0xC4A1);
  u32 checked = 0;
  while (checked < 300) {
    std::vector<EmbeddingPtr> leaves;
    const std::size_t m = 1 + rng() % 4;
    u64 nodes = 1;
    for (std::size_t i = 0; i < m; ++i) {
      if (rng() % 2) {
        leaves.push_back(*direct_embedding(tables[rng() % tables.size()]));
      } else {
        SmallVec<u64, 4> ext;
        for (u32 a = 0; a < 3; ++a) ext.push_back(1 + rng() % 4);
        leaves.push_back(std::make_shared<GrayEmbedding>(Mesh(Shape{ext})));
      }
      nodes *= leaves.back()->guest().num_nodes();
    }
    if (nodes > 20000) continue;
    EmbeddingPtr top = random_tree(leaves, 0, m, rng);
    if (rng() % 2) {
      SmallVec<u64, 4> box = top->guest().shape().extents();
      for (u64& e : box) e = 1 + rng() % e;
      top = std::make_shared<SubmeshEmbedding>(top, Shape{box});
    }
    if (m == 1 && !dynamic_cast<const GrayEmbedding*>(leaves[0].get()) &&
        !dynamic_cast<const SubmeshEmbedding*>(top.get()))
      continue;  // a table alone is verify()'s
    const std::string what = "random chain " + std::to_string(checked) +
                             " " + top->guest().shape().to_string();
    bool composed = false;
    const VerifyReport r = certify(*top, &composed);
    EXPECT_TRUE(composed || (m == 1 && !dynamic_cast<const GrayEmbedding*>(
                                           leaves[0].get())))
        << what;
    expect_same_report(r, verify(*top), what);
    compare(r, reference_verify(*top, nullptr), what);
    ++checked;
  }
  // Leaves with links of three or more paths, which the paper tables
  // lack: the 5x5x5 extra table (congestion 3) under a random axis map,
  // search-table maps padded to rank 3 and routed by either router, and
  // explicit leaves with a link of kMaxLinkUsers paths (folded) or of one
  // more (verify()'s).
  const std::vector<Shape> searched = {Shape{5, 5, 5}, Shape{3, 3, 11},
                                       Shape{5, 5}, Shape{3, 9}};
  ASSERT_TRUE(read_chain_leaf(*busy_link_leaf(kMaxLinkUsers)).has_value());
  ASSERT_FALSE(read_chain_leaf(*busy_link_leaf(kMaxLinkUsers + 1)));
  std::mt19937_64 rng2(0xC4A2);
  std::array<u32, 4> kinds{};  // chains with each busy kind, and fallbacks
  checked = 0;
  while (checked < 200) {
    std::vector<EmbeddingPtr> leaves;
    const std::size_t m = 1 + rng2() % 3;
    u64 nodes = 1;
    bool too_busy = false;
    std::array<bool, 3> has{};
    for (std::size_t i = 0; i < m; ++i) {
      const u32 kind = static_cast<u32>(rng2() % 4);
      if (kind == 0) {
        leaves.push_back(std::make_shared<RelabelEmbedding>(
            *extra_embedding(Shape{5, 5, 5}), Shape{5, 5, 5},
            random_axes(3, rng2)));
      } else if (kind == 1) {
        SmallVec<u64, 4> ext = searched[rng2() % searched.size()].extents();
        if (ext.size() == 2) ext.push_back(1);
        const SmallVec<u32, 4> order = random_axes(3, rng2);
        SmallVec<u64, 4> permuted(3, 0);
        for (u32 a = 0; a < 3; ++a) permuted[order[a]] = ext[a];
        const Shape shape{permuted};
        auto emb = std::make_shared<ExplicitEmbedding>(
            Mesh(shape), shape.minimal_cube_dim(), *search_table_map(shape));
        if (rng2() % 2)
          route_balanced(*emb);
        else
          route_minimize_congestion(*emb);
        leaves.push_back(std::move(emb));
      } else if (kind == 2) {
        const bool over = rng2() % 2;
        too_busy |= over;
        leaves.push_back(busy_link_leaf(kMaxLinkUsers + over));
      } else {
        SmallVec<u64, 4> ext;
        for (u32 a = 0; a < 3; ++a) ext.push_back(1 + rng2() % 4);
        leaves.push_back(std::make_shared<GrayEmbedding>(Mesh(Shape{ext})));
      }
      if (kind < 3) has[kind] = true;
      nodes *= leaves.back()->guest().num_nodes();
    }
    if (nodes > 20000) continue;
    EmbeddingPtr top = random_tree(leaves, 0, m, rng2);
    if (rng2() % 2) {
      SmallVec<u64, 4> box = top->guest().shape().extents();
      for (u64& e : box) e = 1 + rng2() % e;
      top = std::make_shared<SubmeshEmbedding>(top, Shape{box});
    }
    const bool lone =
        m == 1 && !dynamic_cast<const GrayEmbedding*>(leaves[0].get());
    const std::string what = "busy chain " + std::to_string(checked) + " " +
                             top->guest().shape().to_string();
    bool composed = false;
    const VerifyReport r = certify(*top, &composed);
    EXPECT_EQ(composed, !lone && !too_busy) << what;
    expect_same_report(r, verify(*top), what);
    compare(r, reference_verify(*top, nullptr), what);
    for (u32 k = 0; k < 3; ++k) kinds[k] += has[k] && !lone;
    kinds[3] += too_busy && !lone;
    ++checked;
  }
  std::printf("busy chains: %u over 5x5x5, %u over search maps, %u over "
              "busy links, %u of them past the bound\n",
              kinds[0], kinds[1], kinds[2], kinds[3]);
  for (const u32 n : kinds) EXPECT_GT(n, 10u);
  // A many-to-one leaf is verify()'s too, composed nowhere.
  const EmbeddingPtr gray = std::make_shared<GrayEmbedding>(Mesh(Shape{2, 2}));
  const EmbeddingPtr contracted =
      m2o::contract(*direct_embedding(Shape{7, 9}), Shape{1, 3});
  const EmbeddingPtr product = product_chain({gray, contracted});
  bool composed = true;
  const VerifyReport r = certify(*product, &composed);
  EXPECT_FALSE(composed);
  expect_same_report(r, verify(*product), "product over a contraction");
  EXPECT_EQ(r.load_factor, 3u);
}

/// Every injective map of `r` base axes into `k` target axes.
void axis_maps(u32 r, u32 k, SmallVec<u32, 4>& cur,
               std::vector<SmallVec<u32, 4>>& out) {
  if (cur.size() == r) {
    out.push_back(cur);
    return;
  }
  for (u32 t = 0; t < k; ++t) {
    if (std::find(cur.begin(), cur.end(), t) != cur.end()) continue;
    cur.push_back(t);
    axis_maps(r, k, cur, out);
    cur.pop_back();
  }
}

/// The leaf certify() folds for `emb` is stored, and equals a fresh read
/// of `emb` in every edge (coordinate, axis and path length) and in every
/// link's users, links in key order.
void expect_stored_leaf(const Embedding& emb, const std::string& what) {
  ChainLeaf scratch;
  const ChainLeaf* stored = stored_chain_leaf(emb, scratch);
  ASSERT_NE(stored, nullptr) << what;
  const std::optional<ChainLeaf> fresh = read_chain_leaf(emb);
  ASSERT_TRUE(fresh.has_value()) << what;
  EXPECT_TRUE(*stored == *fresh) << what;
  EXPECT_EQ(stored->edges.size(), emb.guest().num_edges()) << what;
}

TEST(ReferenceVerify, StoredTableLeavesMatchAFreshRead) {
  // certify() folds a paper or extra table, and any relabel of one, from
  // the leaf read once when the table was built. Under every map of its
  // axes into up to four (the length-1 axes the planner inserts), and as
  // direct_embedding()/extra_embedding() hand it out, that leaf must
  // equal a fresh read, and verify() must agree with the reference.
  u32 checked = 0;
  for (const bool extra : {false, true}) {
    const auto table_of = [&](const Shape& s) {
      return *(extra ? extra_embedding(s) : direct_embedding(s));
    };
    for (const Shape& s :
         extra ? extra_table_shapes() : direct_table_shapes()) {
      const EmbeddingPtr table = table_of(s);
      ASSERT_NE(table_leaf(*table), nullptr) << s.to_string();
      ChainLeaf scratch;
      EXPECT_EQ(stored_chain_leaf(*table, scratch), table_leaf(*table));
      expect_stored_leaf(*table, s.to_string());
      compare(verify(*table), reference_verify(*table, nullptr),
              s.to_string());
      for (u32 k = s.dims(); k <= 4; ++k) {
        std::vector<SmallVec<u32, 4>> maps;
        SmallVec<u32, 4> cur;
        axis_maps(s.dims(), k, cur, maps);
        for (const SmallVec<u32, 4>& axes : maps) {
          SmallVec<u64, 4> ext(k, 1);
          for (u32 i = 0; i < s.dims(); ++i) ext[axes[i]] = s[i];
          const Shape target{ext};
          const std::string what = s.to_string() + " as " + target.to_string();
          const auto relabel =
              std::make_shared<RelabelEmbedding>(table, target, axes);
          expect_stored_leaf(*relabel, what);
          compare(verify(*relabel), reference_verify(*relabel, nullptr),
                  what);
          expect_stored_leaf(*table_of(target), what + " (as handed out)");
          ++checked;
        }
      }
    }
  }
  std::printf("stored leaves: %u relabels checked\n", checked);
  EXPECT_EQ(checked, 170u);
  // A relabel of a relabel reads through both; a copy of a table, or a
  // routed search map, is not a table and stores nothing.
  const auto once = RelabelEmbedding::onto(*direct_embedding(Shape{3, 5}),
                                           Shape{5, 1, 3});
  expect_stored_leaf(*RelabelEmbedding::onto(once, Shape{1, 3, 1, 5}),
                     "relabel of a relabel");
  ChainLeaf scratch;
  EXPECT_EQ(stored_chain_leaf(*ExplicitEmbedding::copy_of(
                                  **direct_embedding(Shape{3, 5})),
                              scratch),
            nullptr);
  auto searched = std::make_shared<ExplicitEmbedding>(
      Mesh(Shape{5, 5, 5}), 7, *search_table_map(Shape{5, 5, 5}));
  route_minimize_congestion(*searched);
  EXPECT_EQ(stored_chain_leaf(*searched, scratch), nullptr);
}

// --- Node-map mutants ------------------------------------------------------

enum class NodeFault {
  SwapImages,
  DuplicateImage,
  ImageOnFailedNode,
  PathThroughFaultedLink,
  HopOffHost,
  WrongRelabelAxis,
};

/// A certified table leaf with its node map replaced and at most one edge
/// path overridden; every other path is the base's, so a changed image
/// leaves the paths around it pointing at the old one.
class NodeMapMutant final : public Embedding {
 public:
  NodeMapMutant(EmbeddingPtr base, std::vector<CubeNode> map, MeshEdge e = {},
                CubePath path = {})
      : Embedding(base->guest(), base->host_dim()),
        base_(std::move(base)),
        map_(std::move(map)),
        e_(e),
        path_(std::move(path)) {}

  CubeNode map(MeshIndex i) const override { return map_[i]; }
  void map_all(std::vector<CubeNode>& out) const override { out = map_; }
  CubePath edge_path(const MeshEdge& e) const override {
    return overridden(e) ? path_ : base_->edge_path(e);
  }
  void walk_edge_paths(EdgeWalkFn fn) const override {
    base_->walk_edge_paths(
        [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
          fn(e, c, overridden(e) ? path_ : p);
        });
  }

 private:
  bool overridden(const MeshEdge& e) const {
    return !path_.empty() && e.a == e_.a && e.axis == e_.axis;
  }

  EmbeddingPtr base_;
  std::vector<CubeNode> map_;
  MeshEdge e_;
  CubePath path_;
};

/// `table` corrupted by `f`; null when `f` does not apply (a wrong relabel
/// axis needs two axes of equal length).
EmbeddingPtr node_map_mutant(const EmbeddingPtr& table, NodeFault f,
                             std::mt19937_64& rng) {
  const Shape& s = table->guest().shape();
  const u64 n = s.num_nodes();
  std::vector<CubeNode> map;
  table->map_all(map);
  const MeshIndex u = rng() % n;
  MeshIndex w = rng() % n;
  while (w == u) w = rng() % n;
  const std::vector<MeshEdge> edges = table->guest().edges();
  const MeshEdge e = edges[rng() % edges.size()];
  CubePath p = table->edge_path(e);
  switch (f) {
    case NodeFault::SwapImages:
      std::swap(map[u], map[w]);
      break;
    case NodeFault::DuplicateImage:
      map[u] = map[w];
      break;
    case NodeFault::ImageOnFailedNode: {
      // The first cube node no guest node uses.
      CubeNode spare = 0;
      while (std::find(map.begin(), map.end(), spare) != map.end()) ++spare;
      map[u] = spare;
      break;
    }
    case NodeFault::PathThroughFaultedLink: {
      // p0 -> p0^x -> p1^x -> p1 -> ...: a valid detour two hops longer.
      const u64 along = p[0] ^ p[1];
      u64 x = 1;
      while (x & along) x <<= 1;
      CubePath q;
      q.push_back(p[0]);
      q.push_back(p[0] ^ x);
      q.push_back(p[1] ^ x);
      for (std::size_t t = 1; t < p.size(); ++t) q.push_back(p[t]);
      return std::make_shared<NodeMapMutant>(table, map, e, q);
    }
    case NodeFault::HopOffHost: {
      const CubeNode out = p.back() ^ (CubeNode{1} << table->host_dim());
      p.push_back(out);
      p.push_back(out ^ (CubeNode{1} << table->host_dim()));
      return std::make_shared<NodeMapMutant>(table, map, e, p);
    }
    case NodeFault::WrongRelabelAxis: {
      // The paths of the honest table, the node map of a relabel of its
      // base table that takes the last free axis of each length where the
      // honest relabel takes the first.
      const EmbeddingPtr base = *direct_embedding(s.squeezed().sorted());
      const Shape& sb = base->guest().shape();
      SmallVec<u32, 4> axis_of_base;
      SmallVec<u8, 4> taken(s.dims(), 0);
      for (u32 b = 0; b < sb.dims(); ++b) {  // the last free axis of its length
        u32 t = s.dims();
        while (t-- > 0 && (taken[t] || s[t] != sb[b])) {
        }
        taken[t] = 1;
        axis_of_base.push_back(t);
      }
      const RelabelEmbedding wrong(base, s, axis_of_base);
      wrong.map_all(map);
      std::vector<CubeNode> honest;
      table->map_all(honest);
      if (map == honest) return nullptr;
      break;
    }
  }
  return std::make_shared<NodeMapMutant>(table, std::move(map));
}

/// The faults that expose `f` in `top`: the first image or path of `top`
/// that differs from `honest` put on failed hardware.
FaultSet exposing_faults(const Embedding& honest, const Embedding& top,
                         NodeFault f) {
  FaultSet faults;
  if (f == NodeFault::ImageOnFailedNode) {
    std::vector<CubeNode> a, b;
    honest.map_all(a);
    top.map_all(b);
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] != b[i]) {
        faults.fail_node(b[i]);
        break;
      }
  } else if (f == NodeFault::PathThroughFaultedLink) {
    bool done = false;
    top.guest().for_each_edge([&](const MeshEdge& e) {
      const CubePath q = top.edge_path(e);
      if (done || q == honest.edge_path(e)) return;
      faults.fail_link(q[1], q[2]);  // the detour's middle hop
      done = true;
    });
  }
  return faults;
}

TEST(ReferenceVerify, NodeMapMutantsAreKilled) {
  // Table leaves with a corrupted node map or path, alone, as the outer
  // leaf of a product with a Gray mesh (where the planner puts its
  // tables) and in a submesh of that product. verify() and the reference
  // must flag each (invalid, or not fault-free against the faults that
  // expose it) and agree field by field; certify() must give verify()'s
  // report, composed only where the corrupted leaf is still valid.
  struct Case {
    Shape table, gray, sub;
  };
  const std::vector<Case> cases = {
      {Shape{3, 5}, Shape{2, 2}, Shape{5, 10}},
      {Shape{3, 7, 3}, Shape{2, 1, 2}, Shape{5, 7, 6}},
      {Shape{11, 11}, Shape{2, 2}, Shape{21, 22}},
  };
  std::mt19937_64 rng(0xA0DE);
  u32 mutants = 0, killed = 0, structural = 0, certify_killed = 0;
  for (const Case& c : cases) {
    const std::optional<EmbeddingPtr> table = direct_embedding(c.table);
    ASSERT_TRUE(table.has_value()) << c.table.to_string();
    const EmbeddingPtr gray = std::make_shared<GrayEmbedding>(Mesh(c.gray));
    for (NodeFault f :
         {NodeFault::SwapImages, NodeFault::DuplicateImage,
          NodeFault::ImageOnFailedNode, NodeFault::PathThroughFaultedLink,
          NodeFault::HopOffHost, NodeFault::WrongRelabelAxis}) {
      const EmbeddingPtr leaf = node_map_mutant(*table, f, rng);
      if (!leaf) continue;
      const EmbeddingPtr honest_product = product_chain({gray, *table});
      const EmbeddingPtr product = product_chain({gray, leaf});
      const std::vector<std::pair<EmbeddingPtr, EmbeddingPtr>> placements = {
          {*table, leaf},
          {honest_product, product},
          {std::make_shared<SubmeshEmbedding>(honest_product, c.sub),
           std::make_shared<SubmeshEmbedding>(product, c.sub)}};
      for (const auto& [honest, top] : placements) {
        const std::string what = top->guest().shape().to_string() +
                                 " node fault " +
                                 std::to_string(static_cast<int>(f));
        const FaultSet faults = exposing_faults(*honest, *top, f);
        const VerifyReport v = verify(*top, faults);
        const RefReport r = reference_verify(*top, &faults);
        ++mutants;
        const bool v_kill = !v.valid || !v.fault_free;
        const bool r_kill = !r.valid || !r.fault_free;
        killed += v_kill && r_kill;
        EXPECT_TRUE(v_kill) << what;
        EXPECT_TRUE(r_kill) << what;
        compare(v, r, what);
        // certify() takes no fault set: it must be verify() without one.
        const VerifyReport plain = verify(*top);
        const VerifyReport cert = certify(*top);
        expect_same_report(cert, plain, "certify() of " + what);
        if (f != NodeFault::PathThroughFaultedLink) {
          ++structural;
          certify_killed += !cert.valid;
          EXPECT_FALSE(cert.valid) << what;
        }
      }
    }
  }
  std::printf("node-map mutants: %u/%u killed by verify() and the reference; "
              "certify() agrees with verify() on all and rejects %u/%u "
              "structural ones\n",
              killed, mutants, certify_killed, structural);
  EXPECT_EQ(killed, mutants);
  EXPECT_EQ(certify_killed, structural);
  EXPECT_EQ(mutants, 51u);
}

}  // namespace
}  // namespace hj
