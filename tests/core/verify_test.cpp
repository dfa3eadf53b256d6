#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace hj {
namespace {

TEST(Verify, FlagsNonInjectiveOneToOne) {
  ExplicitEmbedding emb{Mesh(Shape{3}), 2, {0, 1, 1}};
  VerifyReport r = verify(emb);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.load_factor, 2u);
}

TEST(Verify, FlagsBrokenPath) {
  // An embedding whose edge_path lies about its endpoints.
  class Liar final : public Embedding {
   public:
    Liar() : Embedding(Mesh(Shape{2}), 1) {}
    CubeNode map(MeshIndex i) const override { return i; }
    CubePath edge_path(const MeshEdge&) const override {
      return CubePath{0, 0};  // not a cube edge
    }
  } emb;
  VerifyReport r = verify(emb);
  EXPECT_FALSE(r.valid);
}

TEST(Verify, GrayMetricsExact) {
  GrayEmbedding emb{Mesh(Shape{4, 4})};
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.guest_nodes, 16u);
  EXPECT_EQ(r.guest_edges, 24u);
  EXPECT_EQ(r.host_dim, 4u);
  EXPECT_DOUBLE_EQ(r.expansion, 1.0);
  EXPECT_TRUE(r.minimal_expansion);
  EXPECT_EQ(r.dilation, 1u);
  EXPECT_DOUBLE_EQ(r.avg_dilation, 1.0);
  EXPECT_EQ(r.congestion, 1u);
  // 24 of Q4's 32 edges carry exactly one guest edge.
  EXPECT_DOUBLE_EQ(r.avg_congestion, 24.0 / 32.0);
  ASSERT_GE(r.congestion_histogram.size(), 2u);
  EXPECT_EQ(r.congestion_histogram[0], 8u);
  EXPECT_EQ(r.congestion_histogram[1], 24u);
}

TEST(Verify, DilationHistogramSumsToEdges) {
  ExplicitEmbedding emb{Mesh(Shape{3, 3}), 4,
                        {0, 1, 3, 4, 5, 7, 12, 13, 15}};
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid);
  const u64 total = std::accumulate(r.dilation_histogram.begin(),
                                    r.dilation_histogram.end(), u64{0});
  EXPECT_EQ(total, r.guest_edges);
}

TEST(Verify, CongestionHistogramCoversAllHostEdges) {
  GrayEmbedding emb{Mesh(Shape{3, 5})};
  VerifyReport r = verify(emb);
  const u64 total = std::accumulate(r.congestion_histogram.begin(),
                                    r.congestion_histogram.end(), u64{0});
  EXPECT_EQ(total, Hypercube(r.host_dim).num_edges());
}

TEST(Verify, SharedCubeEdgeCountedTwice) {
  // Two guest edges forced through the same cube edge.
  ExplicitEmbedding emb{Mesh(Shape{3}), 2, {0b01, 0b00, 0b10}};
  // Default e-cube routing: (01 -> 00) and (00 -> 10): no shared edge, both
  // dilation 1. Now reroute edge 0 via a detour that reuses (00,10).
  emb.set_edge_path(MeshEdge{0, 1, 0, false},
                    CubePath{0b01, 0b11, 0b10, 0b00});
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.congestion, 2u);  // edge (00,10) carries both paths
  EXPECT_EQ(r.dilation, 3u);
}

TEST(Verify, LoadFactorForManyToOne) {
  class Contract final : public Embedding {
   public:
    Contract() : Embedding(Mesh(Shape{6}), 1) {}
    CubeNode map(MeshIndex i) const override { return i / 3; }
    CubePath edge_path(const MeshEdge& e) const override {
      return Hypercube::ecube_path(map(e.a), map(e.b));
    }
    bool one_to_one() const noexcept override { return false; }
  } emb;
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.load_factor, 3u);
  EXPECT_EQ(r.dilation, 1u);    // the block-boundary edge
  ASSERT_GE(r.dilation_histogram.size(), 1u);
  EXPECT_EQ(r.dilation_histogram[0], 4u);  // intra-block edges collapse
}

TEST(Verify, CertifiedConditions) {
  // Certified: valid, dilation within the bound, minimal expansion.
  GrayEmbedding good{Mesh(Shape{4, 8})};
  const VerifyReport g = verify(good);
  EXPECT_TRUE(g.valid);
  EXPECT_LE(g.dilation, 1u);
  EXPECT_TRUE(g.minimal_expansion);
  GrayEmbedding fat{Mesh(Shape{5, 6, 7})};  // expansion 512/210, not minimal
  const VerifyReport r = verify(fat);
  EXPECT_FALSE(r.valid && r.dilation <= 2 && r.minimal_expansion);
  EXPECT_TRUE(r.valid);  // structurally fine, just not minimal
  EXPECT_FALSE(r.minimal_expansion);
}

TEST(Verify, SummaryMentionsShapeAndCube) {
  GrayEmbedding emb{Mesh(Shape{4, 4})};
  VerifyReport r = verify(emb);
  std::string s = summary(r, emb);
  EXPECT_NE(s.find("4x4"), std::string::npos);
  EXPECT_NE(s.find("Q4"), std::string::npos);
  EXPECT_NE(s.find("minimal"), std::string::npos);
}

}  // namespace
}  // namespace hj
