// map_all() must materialize exactly map(i) for every guest node, for every
// Embedding subclass: the verifier, the planner's fault remap and the
// recovery ladder read the bulk map, while the per-node map() stays the
// reference definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/direct.hpp"
#include "core/product.hpp"
#include "manytoone/manytoone.hpp"
#include "torus/torus.hpp"

namespace hj::m2o {
namespace {

void expect_map_all_agrees(const Embedding& emb, const std::string& what) {
  // Start from a stale buffer of the wrong size: map_all must resize it.
  std::vector<CubeNode> out(emb.guest().num_nodes() + 3, ~CubeNode{0});
  emb.map_all(out);
  ASSERT_EQ(out.size(), emb.guest().num_nodes()) << what;
  for (MeshIndex i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], emb.map(i)) << what << " node " << i;
}

class MapAll : public ::testing::Test {
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
  /// A random injective node map of `s` into its minimal cube plus one.
  EmbeddingPtr explicit_of(const Shape& s) {
    const u32 n = s.minimal_cube_dim() + 1;
    std::vector<CubeNode> all(u64{1} << n);
    for (CubeNode v = 0; v < all.size(); ++v) all[v] = v;
    std::shuffle(all.begin(), all.end(), rng_);
    all.resize(s.num_nodes());
    return std::make_shared<ExplicitEmbedding>(Mesh(s), n, std::move(all));
  }
  /// Gray, explicit or a product of the two, over rank `k`.
  EmbeddingPtr base(u32 k) {
    switch (rng_() % 3) {
      case 0: return gray(shape(k, 6));
      case 1: return explicit_of(shape(k, 5));
      default:
        return std::make_shared<MeshProductEmbedding>(explicit_of(shape(k, 2)),
                                                      gray(shape(k, 3)));
    }
  }

  std::mt19937_64 rng_{0x3A9A11u};
};

TEST_F(MapAll, AgreesWithMapForEverySubclass) {
  for (int trial = 0; trial < 40; ++trial) {
    const u32 k = 1 + static_cast<u32>(rng_() % 3);
    const std::string tag = "trial " + std::to_string(trial);

    const EmbeddingPtr g = gray(shape(k, 9));
    expect_map_all_agrees(*g, tag + " gray " + g->guest().shape().to_string());
    const EmbeddingPtr x = explicit_of(shape(k, 6));
    expect_map_all_agrees(*x, tag + " explicit");

    // Products, nested once more on the outer side.
    const EmbeddingPtr p =
        std::make_shared<MeshProductEmbedding>(base(k), base(k));
    expect_map_all_agrees(*p, tag + " product");
    if (p->guest().num_nodes() <= 20000)
      expect_map_all_agrees(
          MeshProductEmbedding(explicit_of(shape(k, 2)), p), tag + " nested");

    // Relabel: insert a length-1 axis in the middle, or swap the axes.
    const EmbeddingPtr b2 = base(2);
    const Shape& s2 = b2->guest().shape();
    expect_map_all_agrees(RelabelEmbedding(b2, Shape{s2[0], 1, s2[1]}, {0, 2}),
                          tag + " relabel lifted");
    expect_map_all_agrees(RelabelEmbedding(b2, Shape{s2[1], s2[0]}, {1, 0}),
                          tag + " relabel swapped");

    // Submesh: shrink every axis of a base by a random amount.
    const EmbeddingPtr b = base(k);
    SmallVec<u64, 4> sub;
    for (u32 i = 0; i < k; ++i) {
      const u64 l = b->guest().shape()[i];
      sub.push_back(l - rng_() % l);
    }
    expect_map_all_agrees(SubmeshEmbedding(b, Shape{sub}), tag + " submesh");

    // Contraction over any base, including a submesh and a product.
    const Shape factors = shape(k, 4);
    expect_map_all_agrees(*contract(b, factors),
                          tag + " contraction " + factors.to_string());
    expect_map_all_agrees(
        *contract(std::make_shared<SubmeshEmbedding>(b, Shape{sub}), factors),
        tag + " contraction of submesh");

    // Cube fold onto any smaller cube.
    const u32 folded = static_cast<u32>(rng_() % (p->host_dim() + 1));
    expect_map_all_agrees(SubcubeEmbedding(p, folded, 0, 0),
                          tag + " fold to Q" + std::to_string(folded));

    // Subcube: pin 1-3 random bits of a larger host.
    const u32 pinned = 1 + static_cast<u32>(rng_() % 3);
    const u32 host = p->host_dim() + pinned;
    u64 mask = 0;
    while (static_cast<u32>(std::popcount(mask)) < pinned)
      mask |= u64{1} << (rng_() % host);
    const u64 value = rng_() & mask;
    expect_map_all_agrees(SubcubeEmbedding(p, host, mask, value),
                          tag + " subcube");
  }
}

TEST_F(MapAll, AgreesWithMapForTorusEmbeddings) {
  torus::TorusPlanner planner;
  u32 tori = 0;
  for (const Shape& s : {Shape{6}, Shape{10, 6}, Shape{5, 7, 4},
                         Shape{12, 3, 5}, Shape{9, 9}}) {
    const PlanResult r = planner.plan(s);
    tori += dynamic_cast<const torus::TorusEmbedding*>(r.embedding.get()) !=
            nullptr;
    expect_map_all_agrees(*r.embedding, "torus " + s.to_string());
  }
  EXPECT_GT(tori, 0u);
}

}  // namespace
}  // namespace hj::m2o
