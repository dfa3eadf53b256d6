// Tests for the direct embedding tables (Section 3.3 of the paper).
#include "core/direct.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/product.hpp"
#include "core/verify.hpp"
#include "plan_digest.hpp"

namespace hj {
namespace {

class DirectTables : public ::testing::TestWithParam<Shape> {};

TEST_P(DirectTables, Dilation2Congestion2Minimal) {
  auto emb = direct_embedding(GetParam());
  ASSERT_TRUE(emb.has_value());
  VerifyReport r = verify(**emb);
  EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_TRUE(r.minimal_expansion);
  EXPECT_LE(r.dilation, 2u);
  EXPECT_LE(r.congestion, 2u);
}

INSTANTIATE_TEST_SUITE_P(PaperShapes, DirectTables,
                         ::testing::Values(Shape{3, 5}, Shape{7, 9},
                                           Shape{11, 11}, Shape{3, 3, 3},
                                           Shape{3, 3, 7}));

INSTANTIATE_TEST_SUITE_P(PermutedShapes, DirectTables,
                         ::testing::Values(Shape{5, 3}, Shape{9, 7},
                                           Shape{3, 7, 3}, Shape{7, 3, 3},
                                           Shape{3, 3, 3, 1}));

INSTANTIATE_TEST_SUITE_P(WithUnitAxes, DirectTables,
                         ::testing::Values(Shape{3, 1, 5}, Shape{1, 7, 9},
                                           Shape{5, 1, 3}, Shape{11, 1, 11}));

TEST(DirectTables, RegistryContents) {
  const auto& shapes = direct_table_shapes();
  EXPECT_EQ(shapes.size(), 5u);
  EXPECT_TRUE(direct_embedding(Shape{3, 5}).has_value());
  EXPECT_TRUE(direct_embedding(Shape{5, 3}).has_value());
  EXPECT_TRUE(direct_embedding(Shape{1, 11, 11}).has_value());
  EXPECT_FALSE(direct_embedding(Shape{5, 5}).has_value());
  EXPECT_FALSE(direct_embedding(Shape{3, 15}).has_value());  // merged axis
  EXPECT_FALSE(direct_embedding(Shape{3, 5, 3}).has_value());
}

TEST(DirectTables, ExactCubeDims) {
  EXPECT_EQ((*direct_embedding(Shape{3, 5}))->host_dim(), 4u);
  EXPECT_EQ((*direct_embedding(Shape{7, 9}))->host_dim(), 6u);
  EXPECT_EQ((*direct_embedding(Shape{11, 11}))->host_dim(), 7u);
  EXPECT_EQ((*direct_embedding(Shape{3, 3, 3}))->host_dim(), 5u);
  EXPECT_EQ((*direct_embedding(Shape{3, 3, 7}))->host_dim(), 6u);
}

TEST(DirectTables, AverageDilationBeatsWorstCase) {
  // Section 3.3 notes the direct embeddings' average dilation approaches 1;
  // each table's average must sit well below the worst case of 2.
  for (const Shape& s : direct_table_shapes()) {
    VerifyReport r = verify(**direct_embedding(s));
    EXPECT_LT(r.avg_dilation, 1.6) << s.to_string();
    EXPECT_GE(r.avg_dilation, 1.0) << s.to_string();
  }
}

TEST(DirectTables, CachedInstancesAreShared) {
  auto a = direct_embedding(Shape{7, 9});
  auto b = direct_embedding(Shape{7, 9});
  EXPECT_EQ(a->get(), b->get());
}

TEST(DirectTables, ProductWithGrayMatchesCorollary2) {
  // 21x9x5 with minimal expansion: (7x9x1 direct) x (3x1x5 direct) —
  // the Section 4.2 example, now with real tables.
  auto f1 = direct_embedding(Shape{7, 9, 1});
  auto f2 = direct_embedding(Shape{3, 1, 5});
  ASSERT_TRUE(f1 && f2);
  MeshProductEmbedding emb(*f1, *f2);
  EXPECT_EQ(emb.guest().shape(), (Shape{21, 9, 5}));
  VerifyReport r = verify(emb);
  EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_TRUE(r.minimal_expansion);  // 945 nodes in Q10
  EXPECT_LE(r.dilation, 2u);
  EXPECT_LE(r.congestion, 2u);
}

TEST(ExtraTables, CachedInstancesAreShared) {
  auto a = extra_embedding(Shape{5, 5, 5});
  auto b = extra_embedding(Shape{5, 5, 5});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->get(), b->get());
  EXPECT_FALSE(extra_embedding(Shape{3, 5}).has_value());
}

TEST(SearchTables, EveryAxisOrderIsAMinimalDilationTwoMap) {
  // Each table answers its shape in any axis order, with or without
  // interspersed length-1 axes, as a node map of the requested order.
  // The maps are pinned by a digest of every one, in order; it was
  // recorded when the maps were read from routed table embeddings
  // relabelled to the target, so it also pins the axis assignment of
  // equal extents.
  ASSERT_EQ(search_table_shapes().size(), 20u);
  PlanDigest d;
  for (const Shape& s : search_table_shapes()) {
    SmallVec<u64, 4> reversed = s.extents();
    std::reverse(reversed.begin(), reversed.end());
    reversed.push_back(1);
    SmallVec<u64, 4> rotated;
    for (u32 i = 1; i <= s.dims(); ++i) {
      rotated.push_back(s[i % s.dims()]);
      if (i == 1) rotated.push_back(1);
    }
    for (const Shape& target : {s, Shape{reversed}, Shape{rotated}}) {
      SCOPED_TRACE(target.to_string());
      const auto map = search_table_map(target);
      ASSERT_TRUE(map.has_value());
      d.add(*map);
      const ExplicitEmbedding emb(Mesh(target), s.minimal_cube_dim(), *map);
      const VerifyReport r = verify(emb);
      EXPECT_TRUE(r.valid) << (r.errors.empty() ? "" : r.errors[0]);
      EXPECT_TRUE(r.minimal_expansion);
      EXPECT_EQ(r.dilation, 2u);
    }
  }
  EXPECT_EQ(d.h, 0x517537d8ee5b81b2ull);
}

TEST(SearchTables, OnlyTheirShapesMatch) {
  EXPECT_FALSE(search_table_map(Shape{3, 5}).has_value());   // a paper table
  EXPECT_FALSE(search_table_map(Shape{3, 27}).has_value());  // 3x9 * 1x3
  EXPECT_FALSE(search_table_map(Shape{5, 5, 2}).has_value());
  EXPECT_TRUE(search_table_map(Shape{1, 5, 1, 5}).has_value());
}

}  // namespace
}  // namespace hj
