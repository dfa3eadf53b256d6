// Tests for the graph decomposition engine (Theorem 3 / Corollary 2).
#include "core/product.hpp"

#include <gtest/gtest.h>

#include "core/verify.hpp"

namespace hj {
namespace {

EmbeddingPtr gray_of(Shape s) {
  return std::make_shared<GrayEmbedding>(Mesh(std::move(s)));
}

/// A 3-node line in Q2 with dilation 2: 0 -> 00, 1 -> 11, 2 -> 01.
EmbeddingPtr dil2_line3() {
  return std::make_shared<ExplicitEmbedding>(Mesh(Shape{3}), 2,
                                             std::vector<CubeNode>{0, 3, 1});
}

TEST(Product, GrayTimesGrayIsDilationOne) {
  MeshProductEmbedding emb(gray_of(Shape{4}), gray_of(Shape{3}));
  EXPECT_EQ(emb.guest().shape(), (Shape{12}));
  EXPECT_EQ(emb.host_dim(), 4u);
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.dilation, 1u);
  EXPECT_EQ(r.congestion, 1u);
  EXPECT_TRUE(r.minimal_expansion);
}

TEST(Product, ExpansionMultiplies) {
  // e = e1 * e2 (Theorem 3).
  auto f1 = gray_of(Shape{3});   // 4/3
  auto f2 = gray_of(Shape{5});   // 8/5
  MeshProductEmbedding emb(f1, f2);
  EXPECT_DOUBLE_EQ(emb.expansion(), (4.0 / 3.0) * (8.0 / 5.0));
}

TEST(Product, DilationIsMaxOfFactors) {
  MeshProductEmbedding emb(gray_of(Shape{4}), dil2_line3());
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.dilation, 2u);  // max(1, 2)
  EXPECT_TRUE(r.minimal_expansion);  // 12 nodes in Q4
}

TEST(Product, CongestionBoundedByMaxOfFactors) {
  MeshProductEmbedding emb(gray_of(Shape{4}), dil2_line3());
  VerifyReport r = verify(emb);
  // Factor congestions are 1 (Gray) and <= 2 (one dilation-2 path).
  EXPECT_LE(r.congestion, 2u);
}

TEST(Product, SeamEdgesAreCarriedByOuterFactor) {
  // At a copy boundary the inner images must coincide, so the cube nodes
  // differ only in the outer bit field (Corollary 2's reflection at work).
  MeshProductEmbedding emb(gray_of(Shape{4}), dil2_line3());
  const u32 n1 = 2;
  // Line node 3 is the end of copy 0; node 4 the (reflected) end of copy 1.
  EXPECT_EQ(emb.map(3) & ((1u << n1) - 1), emb.map(4) & ((1u << n1) - 1));
  // And within a copy, consecutive nodes differ in the inner field only.
  EXPECT_EQ(emb.map(1) >> n1, emb.map(2) >> n1);
}

TEST(Product, ReflectionMakesEveryCopyBoundaryCheap) {
  // Without reflection copy boundaries would pay dilation d1 + d2; with it
  // every boundary edge's dilation equals the outer edge's dilation alone.
  MeshProductEmbedding emb(gray_of(Shape{4}), dil2_line3());
  // Seam 3 -> 4 rides outer edge (0,1), which has dilation 2.
  EXPECT_EQ(emb.edge_path(MeshEdge{3, 4, 0, false}).size(), 3u);
  // Seam 7 -> 8 rides outer edge (1,2), which has dilation 1.
  EXPECT_EQ(emb.edge_path(MeshEdge{7, 8, 0, false}).size(), 2u);
}

TEST(Product, AverageDilationExactOnLine12) {
  // Inner Gray(4), outer dilation-2 line(3): 9 intra-copy edges of dilation
  // 1 plus seams of dilation 2 and 1 -> avg = 12/11.
  MeshProductEmbedding emb(gray_of(Shape{4}), dil2_line3());
  VerifyReport r = verify(emb);
  EXPECT_DOUBLE_EQ(r.avg_dilation, 12.0 / 11.0);
}

TEST(Product, FactorOrderTradesAverageDilation) {
  // Section 4.1: traversing the dilation-1 factor fastest minimizes the
  // average dilation; the max dilation is order-independent.
  MeshProductEmbedding good(gray_of(Shape{4}), dil2_line3());
  MeshProductEmbedding bad(dil2_line3(), gray_of(Shape{4}));
  VerifyReport rg = verify(good), rb = verify(bad);
  EXPECT_TRUE(rg.valid);
  EXPECT_TRUE(rb.valid);
  EXPECT_EQ(rg.dilation, rb.dilation);
  EXPECT_DOUBLE_EQ(rg.avg_dilation, 12.0 / 11.0);
  EXPECT_DOUBLE_EQ(rb.avg_dilation, 15.0 / 11.0);
  EXPECT_LT(rg.avg_dilation, rb.avg_dilation);
}

TEST(Product, MultiAxisProductOfGrayFactors) {
  // 15 x 10 = (3 x 5) * (5 x 2), both factors Gray: a dilation-one
  // minimal-expansion embedding of a mesh Gray alone cannot do minimally
  // (Gray on 15 x 10 directly needs 4 + 4 = 8 bits = 256 = minimal too,
  // but the decomposition exercises the multi-axis path).
  MeshProductEmbedding emb(gray_of(Shape{3, 5}), gray_of(Shape{5, 2}));
  EXPECT_EQ(emb.guest().shape(), (Shape{15, 10}));
  EXPECT_EQ(emb.host_dim(), 9u);
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.dilation, 1u);
  EXPECT_EQ(r.congestion, 1u);
}

TEST(Product, PaperExample21x9x5ViaRelabel) {
  // Section 4.2: embedding a 21x9x5 mesh from a 7x9 and a 3x5 embedding:
  // (7x9x1) x (3x1x5). Using Gray factors here; the direct-table version
  // with minimal expansion lives in the planner tests.
  auto f79 = RelabelEmbedding::onto(gray_of(Shape{7, 9}), Shape{7, 9, 1});
  auto f35 = RelabelEmbedding::onto(gray_of(Shape{3, 5}), Shape{3, 1, 5});
  MeshProductEmbedding emb(f79, f35);
  EXPECT_EQ(emb.guest().shape(), (Shape{21, 9, 5}));
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.dilation, 1u);
  EXPECT_EQ(r.host_dim, 12u);
}

TEST(Product, RelabelPreservesMetrics) {
  auto base = dil2_line3();
  auto lifted = RelabelEmbedding::onto(base, Shape{1, 3, 1});
  VerifyReport r0 = verify(*base), r1 = verify(*lifted);
  EXPECT_TRUE(r1.valid);
  EXPECT_EQ(r0.dilation, r1.dilation);
  EXPECT_DOUBLE_EQ(r0.avg_dilation, r1.avg_dilation);
  EXPECT_EQ(r0.congestion, r1.congestion);
}

TEST(Product, RelabelRejectsBadLift) {
  // A left-over target axis longer than 1 has no base axis to carry it.
  EXPECT_THROW(RelabelEmbedding::onto(gray_of(Shape{3, 5}), Shape{3, 2, 5}),
               std::invalid_argument);
  EXPECT_THROW(RelabelEmbedding::onto(gray_of(Shape{3, 5}), Shape{3, 7}),
               std::invalid_argument);
}

TEST(Product, RelabelConstructorAcceptsOnlyIsomorphisms) {
  // A relabel inherits its base's certificate, so these checks are what
  // the certificate of every permuted plan rests on.
  const auto base = gray_of(Shape{3, 5});
  EXPECT_NO_THROW(RelabelEmbedding(base, Shape{5, 3}, {1, 0}));
  // Axis length mismatch: base axis 0 (length 3) onto a length-5 axis.
  EXPECT_THROW(RelabelEmbedding(base, Shape{5, 3}, {0, 1}),
               std::invalid_argument);
  // Duplicate target axis: both base axes onto target axis 0.
  EXPECT_THROW(RelabelEmbedding(gray_of(Shape{3, 3}), Shape{3, 3}, {0, 0}),
               std::invalid_argument);
  // Left-over target axis longer than 1 (RelabelRejectsBadLift reaches
  // the same check through onto()): nothing carries its edges.
  EXPECT_THROW(RelabelEmbedding(base, Shape{3, 5, 2}, {0, 1}),
               std::invalid_argument);
  // Wrapped base: its wraparound edges have no counterpart in the
  // (unwrapped) relabelled mesh.
  const auto ring = std::make_shared<ExplicitEmbedding>(
      Mesh(Shape{4}, SmallVec<u8, 4>{1}), 2, std::vector<CubeNode>{0, 1, 3, 2});
  ASSERT_TRUE(verify(*ring).valid);
  EXPECT_THROW(RelabelEmbedding(ring, Shape{4}, {0}), std::invalid_argument);
}

TEST(Product, RelabelOntoPermutesAxes) {
  // Each base axis takes the first free target axis of its length, so
  // 3x5 onto 5x3x1 swaps the axes: target node (x, y, 0) is base (y, x).
  const auto base = gray_of(Shape{3, 5});
  const auto swapped = RelabelEmbedding::onto(base, Shape{5, 3, 1});
  const VerifyReport r = verify(*swapped);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.dilation, verify(*base).dilation);
  for (u64 x = 0; x < 5; ++x)
    for (u64 y = 0; y < 3; ++y)
      EXPECT_EQ(swapped->map(Shape{5, 3, 1}.index(Coord{x, y, 0})),
                base->map(Shape{3, 5}.index(Coord{y, x})));
}

TEST(Product, SubmeshExtension) {
  // Strategy 3 of Section 4.2: a 3x3x23 mesh rides in a 3x3x25 embedding.
  auto big = std::make_shared<MeshProductEmbedding>(
      RelabelEmbedding::onto(gray_of(Shape{3, 3, 5}), Shape{3, 3, 5}),
      RelabelEmbedding::onto(gray_of(Shape{5}), Shape{1, 1, 5}));
  EXPECT_EQ(big->guest().shape(), (Shape{3, 3, 25}));
  SubmeshEmbedding emb(big, Shape{3, 3, 23});
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.dilation, 1u);
  EXPECT_EQ(r.guest_nodes, 207u);
}

TEST(Product, SubmeshRejectsOversizedGuest) {
  EXPECT_THROW(SubmeshEmbedding(gray_of(Shape{3, 5}), Shape{4, 5}),
               std::invalid_argument);
}

TEST(Product, ChainFoldsLeft) {
  auto e = product_chain({gray_of(Shape{2}), gray_of(Shape{3}),
                          gray_of(Shape{5})});
  EXPECT_EQ(e->guest().shape(), (Shape{30}));
  EXPECT_EQ(e->host_dim(), 1u + 2u + 3u);
  VerifyReport r = verify(*e);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.dilation, 1u);
}

TEST(Product, RejectsWrappedFactors) {
  auto t = std::make_shared<GrayEmbedding>(Mesh::torus(Shape{4}));
  EXPECT_THROW(MeshProductEmbedding(t, gray_of(Shape{3})),
               std::invalid_argument);
}

TEST(Product, TheoremThreeOnThreeFactors) {
  // Corollary 1: iterated products keep dilation = max over factors.
  auto e = product_chain(
      {gray_of(Shape{4}), dil2_line3(), gray_of(Shape{2})});
  EXPECT_EQ(e->guest().shape(), (Shape{24}));
  VerifyReport r = verify(*e);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.dilation, 2u);
  EXPECT_LE(r.congestion, 2u);
}

}  // namespace
}  // namespace hj
