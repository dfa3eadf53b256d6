// walk_edge_paths() must visit every guest edge exactly once, oriented as
// Mesh::for_each_edge orients it, with the coordinate of its `a` end and
// exactly the path edge_path() assigns, for every Embedding subclass:
// verify() reads the bulk walk, while the per-edge edge_path() stays the
// reference definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "core/planner.hpp"
#include "core/product.hpp"
#include "manytoone/manytoone.hpp"
#include "search/provider.hpp"
#include "torus/torus.hpp"

namespace hj {
namespace {

void expect_walk_agrees(const Embedding& emb, const std::string& what) {
  const Mesh& g = emb.guest();
  const u64 n = g.num_nodes();
  // Expected edges keyed by slot axis * n + a (a is the for_each_edge end).
  std::vector<MeshEdge> expected(n * g.dims());
  std::vector<u8> state(n * g.dims(), 0);  // 0 none, 1 expected, 2 visited
  g.for_each_edge([&](const MeshEdge& e) {
    expected[e.axis * n + e.a] = e;
    state[e.axis * n + e.a] = 1;
  });
  u64 visits = 0, bad = 0;
  std::string first;
  const auto fail = [&](const MeshEdge& e, const char* why) {
    if (bad++ == 0)
      first = std::string(why) + " at edge (" + std::to_string(e.a) + "," +
              std::to_string(e.b) + ") axis " + std::to_string(e.axis);
  };
  emb.walk_edge_paths([&](const MeshEdge& e, const Coord& c,
                           const CubePath& p) {
    ++visits;
    const u64 slot = u64{e.axis} * n + e.a;
    if (e.axis >= g.dims() || e.a >= n || state[slot] == 0)
      return fail(e, "not a guest edge (or misoriented)");
    if (state[slot] == 2) return fail(e, "visited twice");
    state[slot] = 2;
    const MeshEdge& want = expected[slot];
    if (e.b != want.b || e.wrap != want.wrap) return fail(e, "wrong far end");
    if (c != g.shape().coord(e.a)) return fail(e, "wrong coordinate");
    if (!(p == emb.edge_path(want))) return fail(e, "path differs");
  });
  EXPECT_EQ(bad, 0u) << what << ": " << first;
  EXPECT_EQ(visits, g.num_edges()) << what;
  EXPECT_EQ(std::count(state.begin(), state.end(), u8{1}), 0) << what;
}

class EdgePathWalk : public ::testing::Test {
 protected:
  /// A random shape of rank `k`, axes in [1, max_len].
  Shape shape(u32 k, u64 max_len) {
    SmallVec<u64, 4> ext;
    for (u32 i = 0; i < k; ++i) ext.push_back(1 + rng_() % max_len);
    return Shape{ext};
  }
  EmbeddingPtr gray(const Shape& s) {
    return std::make_shared<GrayEmbedding>(Mesh(s));
  }
  /// A random injective node map of `mesh` into its minimal cube plus
  /// two, with a detour path prescribed for about a third of the edges.
  EmbeddingPtr explicit_of(const Mesh& mesh) {
    const u32 n = mesh.shape().minimal_cube_dim() + 2;
    std::vector<CubeNode> all(u64{1} << n);
    for (CubeNode v = 0; v < all.size(); ++v) all[v] = v;
    std::shuffle(all.begin(), all.end(), rng_);
    all.resize(mesh.num_nodes());
    auto emb = std::make_shared<ExplicitEmbedding>(mesh, n, std::move(all));
    mesh.for_each_edge([&](const MeshEdge& e) {
      if (rng_() % 3 != 0) return;
      // Step out along a spare bit d, e-cube across, step back.
      const CubeNode u = emb->map(e.a), v = emb->map(e.b);
      const CubeNode d = CubeNode{1} << (rng_() % n);
      if ((u ^ v) & d) return;
      CubePath p = Hypercube::ecube_path(u ^ d, v ^ d);
      CubePath path;
      path.push_back(u);
      for (CubeNode w : p) path.push_back(w);
      path.push_back(v);
      emb->set_edge_path(e, std::move(path));
    });
    return emb;
  }
  EmbeddingPtr explicit_of(const Shape& s) { return explicit_of(Mesh(s)); }
  /// Gray, explicit or a product of the two, over rank `k`.
  EmbeddingPtr base(u32 k) {
    switch (rng_() % 3) {
      case 0: return gray(shape(k, 6));
      case 1: return explicit_of(shape(k, 5));
      default:
        return std::make_shared<MeshProductEmbedding>(explicit_of(shape(k, 3)),
                                                      gray(shape(k, 3)));
    }
  }

  std::mt19937_64 rng_{0xED6E9A7u};
};

TEST_F(EdgePathWalk, AgreesWithEdgePathForEverySubclass) {
  for (int trial = 0; trial < 40; ++trial) {
    const u32 k = 1 + static_cast<u32>(rng_() % 3);
    const std::string tag = "trial " + std::to_string(trial);

    expect_walk_agrees(*gray(shape(k, 9)), tag + " gray");
    expect_walk_agrees(*explicit_of(shape(k, 6)), tag + " explicit");
    // Wrapped axes exercise the wrap edges of the node-major merge.
    SmallVec<u8, 4> wrap;
    for (u32 i = 0; i < k; ++i) wrap.push_back(static_cast<u8>(rng_() & 1));
    expect_walk_agrees(*explicit_of(Mesh(shape(k, 6), wrap)),
                       tag + " explicit wrapped");

    // Products, nested once more on each side.
    const EmbeddingPtr p =
        std::make_shared<MeshProductEmbedding>(base(k), base(k));
    expect_walk_agrees(*p, tag + " product");
    if (p->guest().num_nodes() <= 20000) {
      expect_walk_agrees(MeshProductEmbedding(explicit_of(shape(k, 3)), p),
                         tag + " nested outer");
      expect_walk_agrees(MeshProductEmbedding(p, explicit_of(shape(k, 3))),
                         tag + " nested inner");
    }

    // Relabel: insert a length-1 axis in the middle, or swap the axes.
    const EmbeddingPtr b2 = base(2);
    const Shape& s2 = b2->guest().shape();
    expect_walk_agrees(RelabelEmbedding(b2, Shape{s2[0], 1, s2[1]}, {0, 2}),
                       tag + " relabel lifted");
    expect_walk_agrees(RelabelEmbedding(b2, Shape{s2[1], s2[0]}, {1, 0}),
                       tag + " relabel permuted");

    // Submesh of a product, and a relabel of a submesh.
    SmallVec<u64, 4> sub;
    for (u32 i = 0; i < k; ++i) {
      const u64 l = p->guest().shape()[i];
      sub.push_back(l - rng_() % l);
    }
    const auto sm = std::make_shared<SubmeshEmbedding>(p, Shape{sub});
    expect_walk_agrees(*sm, tag + " submesh of product");
    SmallVec<u32, 4> rev;
    for (u32 i = 0; i < k; ++i) rev.push_back(k - 1 - i);
    SmallVec<u64, 4> rev_ext;
    for (u32 i = 0; i < k; ++i) rev_ext.push_back(sub[k - 1 - i]);
    expect_walk_agrees(RelabelEmbedding(sm, Shape{rev_ext}, rev),
                       tag + " relabel of submesh");

    // A contraction walks as the product it is; a fold or a placement
    // keeps the default walk.
    expect_walk_agrees(*m2o::contract(p, shape(k, 4)), tag + " contraction");
    const u32 folded = static_cast<u32>(rng_() % (p->host_dim() + 1));
    expect_walk_agrees(m2o::SubcubeEmbedding(p, folded, 0, 0), tag + " fold");
    const u32 pinned = 1 + static_cast<u32>(rng_() % 3);
    const u32 host = p->host_dim() + pinned;
    u64 mask = 0;
    while (static_cast<u32>(std::popcount(mask)) < pinned)
      mask |= u64{1} << (rng_() % host);
    expect_walk_agrees(m2o::SubcubeEmbedding(p, host, mask, rng_() & mask),
                       tag + " subcube");
  }
}

/// One visit of a walk: the edge, its `a` end's coordinate and its path.
struct Visit {
  MeshEdge e;
  Coord c;
  CubePath p;
  friend bool operator==(const Visit& x, const Visit& y) {
    return x.e.a == y.e.a && x.e.b == y.e.b && x.e.axis == y.e.axis &&
           x.e.wrap == y.e.wrap && x.c == y.c && x.p == y.p;
  }
};

std::vector<Visit> walk(const Embedding& emb) {
  std::vector<Visit> out;
  emb.walk_edge_paths(
      [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
        out.push_back({e, c, p});
      });
  return out;
}

TEST_F(EdgePathWalk, WholeWalkCarriesTrueCoordinates) {
  // Every visit must carry the true coordinate of its `a` end, which
  // composites read instead of dividing e.a. A submesh keeps its base's
  // visits whose high end lies inside its extents, in the base's order,
  // re-indexed to its own guest.
  for (int trial = 0; trial < 60; ++trial) {
    const u32 k = 1 + static_cast<u32>(rng_() % 3);
    const std::string tag = "trial " + std::to_string(trial);
    const EmbeddingPtr p =
        std::make_shared<MeshProductEmbedding>(base(k), base(k));
    const EmbeddingPtr b2 = base(2);
    const Shape& s2 = b2->guest().shape();
    const std::vector<std::pair<EmbeddingPtr, std::string>> embs = {
        {gray(shape(k, 9)), "gray"},
        {explicit_of(shape(k, 6)), "explicit"},
        {p, "product"},
        {std::make_shared<MeshProductEmbedding>(explicit_of(shape(k, 3)), p),
         "nested product"},
        {std::make_shared<RelabelEmbedding>(
             b2, Shape{s2[1], 1, s2[0]}, SmallVec<u32, 4>{2, 0}),
         "relabel"},
        {m2o::contract(base(k), shape(k, 3)), "contraction"},
        {std::make_shared<m2o::SubcubeEmbedding>(base(k), 0, 0, 0),
         "default walk"}};
    for (const auto& [emb, what] : embs) {
      const Shape& s = emb->guest().shape();
      const std::vector<Visit> full = walk(*emb);
      for (const Visit& v : full)
        EXPECT_EQ(v.c, s.coord(v.e.a)) << tag << " " << what;
      SmallVec<u64, 4> ext;
      for (u32 i = 0; i < s.dims(); ++i) ext.push_back(1 + rng_() % s[i]);
      const Shape sub{ext};
      std::vector<Visit> kept;
      for (const Visit& v : full) {
        bool inside = true;
        for (u32 i = 0; i < s.dims(); ++i)
          inside &= v.c[i] + (i == v.e.axis) < sub[i];
        if (!inside) continue;
        const MeshIndex a = sub.index(v.c);
        kept.push_back(
            {MeshEdge{a, a + sub.stride(v.e.axis), v.e.axis, false}, v.c,
             v.p});
      }
      const SubmeshEmbedding sm(emb, sub);
      EXPECT_TRUE(walk(sm) == kept) << tag << " submesh of " << what;
      expect_walk_agrees(sm, tag + " submesh of " + what);
      if (HasFailure()) return;
    }
  }
}

TEST_F(EdgePathWalk, AgreesWithEdgePathForTorusEmbeddings) {
  torus::TorusPlanner planner;
  for (const Shape& s : {Shape{6}, Shape{10, 6}, Shape{5, 7, 4},
                         Shape{12, 3, 5}, Shape{9, 9}}) {
    const PlanResult r = planner.plan(s);
    expect_walk_agrees(*r.embedding, "torus " + s.to_string());
  }
}

TEST_F(EdgePathWalk, AgreesOnAFullE17Batch) {
  // The E17 distribution (bench/perf_parallel): rank 1-3, axes 2..32.
  std::mt19937_64 rng(0xE17);
  std::uniform_int_distribution<u64> axis(2, 32);
  std::uniform_int_distribution<u32> rank(1, 3);
  std::vector<Shape> shapes;
  for (int i = 0; i < 2000; ++i) {
    SmallVec<u64, 4> ext;
    const u32 k = rank(rng);
    for (u32 d = 0; d < k; ++d) ext.push_back(axis(rng));
    shapes.push_back(Shape{ext});
  }
  const std::vector<PlanResult> plans = plan_batch(shapes);
  u64 non_unit = 0;
  for (const PlanResult& p : plans) {
    non_unit += !p.embedding->unit_paths();
    expect_walk_agrees(*p.embedding, p.plan);
    if (HasFailure()) return;
  }
  EXPECT_GT(non_unit, 400u);  // the walk is what verify() reads for these
}

TEST_F(EdgePathWalk, CopyOfKeepsEveryNodeAndPath) {
  // ExplicitEmbedding::copy_of reads the walk once and sorts what it
  // kept; the copy must map every node and route every edge as the
  // original does, through edge_path() and through its own walk.
  std::vector<Shape> shapes = {Shape{7, 9, 15}, Shape{3, 3, 7},
                               Shape{21, 9, 5}, Shape{11, 13, 23}};
  for (u32 i = 0; i < 40; ++i) shapes.push_back(shape(1 + i % 3, 24));
  for (const PlanResult& p : plan_batch(shapes)) {
    const Embedding& emb = *p.embedding;
    const auto copy = ExplicitEmbedding::copy_of(emb);
    std::vector<CubeNode> want;
    emb.map_all(want);
    EXPECT_EQ(copy->node_map(), want) << p.plan;
    u64 differ = 0;
    emb.guest().for_each_edge([&](const MeshEdge& e) {
      const CubePath path = emb.edge_path(e);
      if (!(copy->edge_path(e) == path)) ++differ;
    });
    EXPECT_EQ(differ, 0u) << p.plan;
    expect_walk_agrees(*copy, "copy of " + p.plan);
    if (HasFailure()) return;
  }
}

/// An order-sensitive digest of walk sequences: every visit's edge,
/// coordinate and path, one 64-bit word at a time.
struct WalkDigest {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 w) {
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 32;
  }
  void walk(const Embedding& emb) {
    emb.walk_edge_paths(
        [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
          add(e.a);
          add(e.b);
          add(e.axis);
          add(e.wrap);
          add(c.size());
          for (const u64 x : c) add(x);
          add(p.size());
          for (const CubeNode v : p) add(v);
        });
  }
};

TEST_F(EdgePathWalk, WalkSequenceDigestIsPinned) {
  // The walk order is the embedding's own, and verify(), certify() and
  // copy_of all read it: pin the exact visit sequence (edges, coordinates
  // and paths) of 605 plans and their copies. The plans are the first 600
  // shapes of the E17 distribution, planned as perfbench's plan_batch
  // plans them (no provider), and five shapes planned with the search
  // provider, among them both storm_recover bases. A change that moves
  // any visit, its order, or a plan changes the digest.
  std::mt19937_64 rng(0xE17);
  std::uniform_int_distribution<u64> axis(2, 32);
  std::uniform_int_distribution<u32> rank(1, 3);
  std::vector<Shape> shapes;
  for (int i = 0; i < 600; ++i) {
    SmallVec<u64, 4> ext;
    const u32 k = rank(rng);
    for (u32 d = 0; d < k; ++d) ext.push_back(axis(rng));
    shapes.push_back(Shape{ext});
  }
  std::vector<PlanResult> plans = plan_batch(shapes);
  Planner planner;
  planner.set_direct_provider(search::make_search_provider());
  for (const Shape& s : {Shape{7, 9, 15}, Shape{11, 13, 23},
                         Shape{13, 25, 41}, Shape{3, 3, 23},
                         Shape{10, 10, 17}})
    plans.push_back(planner.plan(s));
  EXPECT_EQ(plans[602].plan, "sub<13x25x41>((search 3x1x41 * search 5x25x1))");
  WalkDigest d;
  for (const PlanResult& p : plans) {
    d.walk(*p.embedding);
    d.walk(*ExplicitEmbedding::copy_of(*p.embedding));
  }
  std::printf("walk digest of %zu plans: 0x%016llx\n", plans.size(),
              static_cast<unsigned long long>(d.h));
  EXPECT_EQ(d.h, 0x6f068cb00590bcf8ull);
}

}  // namespace
}  // namespace hj
