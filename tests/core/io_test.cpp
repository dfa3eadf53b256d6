// Tests for embedding serialization.
#include "core/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/direct.hpp"
#include "core/product.hpp"
#include "core/verify.hpp"
#include "torus/torus.hpp"

namespace hj::io {
namespace {

void expect_same_metrics(const Embedding& a, const Embedding& b) {
  const VerifyReport ra = verify(a), rb = verify(b);
  EXPECT_TRUE(rb.valid) << (rb.errors.empty() ? "" : rb.errors[0]);
  EXPECT_EQ(ra.dilation, rb.dilation);
  EXPECT_DOUBLE_EQ(ra.avg_dilation, rb.avg_dilation);
  EXPECT_EQ(ra.congestion, rb.congestion);
  EXPECT_DOUBLE_EQ(ra.avg_congestion, rb.avg_congestion);
  EXPECT_EQ(ra.host_dim, rb.host_dim);
  for (MeshIndex i = 0; i < a.guest().num_nodes(); ++i)
    ASSERT_EQ(a.map(i), b.map(i)) << "node " << i;
}

TEST(Io, RoundTripGray) {
  GrayEmbedding emb{Mesh(Shape{3, 5})};
  auto back = from_text(to_text(emb));
  expect_same_metrics(emb, *back);
}

TEST(Io, RoundTripDirectTableWithPaths) {
  // Direct tables carry congestion-routed paths; the round trip must
  // preserve the congestion exactly (not just the node map).
  auto emb = direct_embedding(Shape{7, 9});
  ASSERT_TRUE(emb.has_value());
  auto back = from_text(to_text(**emb));
  expect_same_metrics(**emb, *back);
}

TEST(Io, RoundTripProduct) {
  auto d = *direct_embedding(Shape{3, 5});
  auto g = std::make_shared<GrayEmbedding>(Mesh(Shape{4, 2}));
  MeshProductEmbedding prod(g, d);
  auto back = from_text(to_text(prod));
  expect_same_metrics(prod, *back);
}

TEST(Io, RoundTripTorus) {
  torus::TorusPlanner planner;
  PlanResult r = planner.plan(Shape{6, 10});
  auto back = from_text(to_text(*r.embedding));
  expect_same_metrics(*r.embedding, *back);
  EXPECT_TRUE(back->guest().wraps(0));
  EXPECT_TRUE(back->guest().wraps(1));
}

TEST(Io, FormatIsStable) {
  GrayEmbedding emb{Mesh(Shape{2, 2})};
  const std::string text = to_text(emb);
  EXPECT_NE(text.find("hjembed 1\n"), std::string::npos);
  EXPECT_NE(text.find("shape 2 2\n"), std::string::npos);
  EXPECT_NE(text.find("cube 2\n"), std::string::npos);
  EXPECT_NE(text.find("map 0 1 2 3\n"), std::string::npos);
  EXPECT_NE(text.find("end\n"), std::string::npos);
}

TEST(Io, RejectsMalformedInput) {
  EXPECT_THROW((void)from_text(""), std::invalid_argument);
  EXPECT_THROW((void)from_text("hjembed 2\n"), std::invalid_argument);
  EXPECT_THROW((void)from_text("hjembed 1\nshape 3 5\nwrap 0 0\ncube 4\n"
                               "map 0 1\nend\n"),
               std::invalid_argument);  // short map
  EXPECT_THROW((void)from_text("hjembed 1\nshape 2\nwrap 0\ncube 1\n"
                               "map 0 1\nbogus\n"),
               std::invalid_argument);
  // A path that does not follow cube links.
  EXPECT_THROW((void)from_text("hjembed 1\nshape 2\nwrap 0\ncube 2\n"
                               "map 0 3\npath 0 0 0 0 3\nend\n"),
               std::invalid_argument);
}

TEST(Io, RejectsOutOfCubeMap) {
  EXPECT_THROW((void)from_text("hjembed 1\nshape 2\nwrap 0\ncube 1\n"
                               "map 0 2\nend\n"),
               std::invalid_argument);
}

TEST(Io, TruncatedMidPathNamesTheLine) {
  // The document ends mid-way through a path header — the torn-write
  // artifact the plan store's serve path must reject loudly.
  const std::string text =
      "hjembed 1\nshape 2\nwrap 0\ncube 1\nmap 0 1\npath 0 0\n";
  try {
    (void)from_text(text);
    FAIL() << "truncated path header accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("truncated mid-path"), std::string::npos) << msg;
  }
}

TEST(Io, MissingEndMarkerNamesTheLine) {
  const std::string text = "hjembed 1\nshape 2\nwrap 0\ncube 1\nmap 0 1\n";
  try {
    (void)from_text(text);
    FAIL() << "document without end sentinel accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("missing end marker"), std::string::npos) << msg;
  }
}

TEST(Io, SectionErrorsNameTheirLine) {
  try {
    (void)from_text("hjembed 1\nshape 3 x\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  try {
    (void)from_text("hjembed 1\nshape 2\nwrap 0\ncube 1\n");
    FAIL();
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("expected map"), std::string::npos) << msg;
  }
}

TEST(Io, EveryBytePrefixThrowsWithALineOrParses) {
  // Byte-level truncation fuzz: any prefix of a real document (this one
  // carries explicit path lines) either parses — only possible for
  // near-complete prefixes — or throws an error naming a line.
  auto emb = direct_embedding(Shape{3, 5});
  ASSERT_TRUE(emb.has_value());
  const std::string text = to_text(**emb);
  u64 parsed = 0, rejected = 0;
  for (std::size_t n = 0; n < text.size(); ++n) {
    try {
      (void)from_text(text.substr(0, n));
      ++parsed;
    } catch (const std::invalid_argument& e) {
      ++rejected;
      ASSERT_NE(std::string(e.what()).find("line "), std::string::npos)
          << "prefix " << n << ": " << e.what();
    }
  }
  EXPECT_GT(rejected, 0u);
  // Everything short of the end sentinel must have been rejected.
  EXPECT_LE(parsed, 1u);
}

TEST(Io, SaveLoadFile) {
  auto emb = direct_embedding(Shape{3, 3, 3});
  ASSERT_TRUE(emb.has_value());
  const std::string file = ::testing::TempDir() + "/hj_io_test.hje";
  save(**emb, file);
  auto back = load(file);
  expect_same_metrics(**emb, *back);
  std::remove(file.c_str());
}

TEST(Io, LoadMissingFileThrows) {
  EXPECT_THROW((void)load("/nonexistent/definitely/missing.hje"),
               std::invalid_argument);
}

// Strict parsing: each form below used to decode (and verify as valid).
// The message must name the offending line.
void expect_rejected_at(const std::string& text, int line) {
  try {
    (void)from_text(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << e.what();
  }
}

const std::string kSquare = "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\n";

TEST(Io, RejectsWrapPathOnAxisWithoutWrapEdges) {
  // The stored path belongs to no edge of the guest.
  expect_rejected_at(kSquare + "map 0 1 3 2\npath 1 1 1 1 0\nend\n", 6);
  // A wrapped axis of length 2 has no wrap edge either.
  expect_rejected_at("hjembed 1\nshape 2 2\nwrap 0 1\ncube 2\n"
                     "map 0 1 3 2\npath 1 1 1 1 0\nend\n",
                     6);
}

TEST(Io, RejectsWrapFlagsOtherThanZeroOrOne) {
  expect_rejected_at("hjembed 1\nshape 2 2\nwrap 0 7\ncube 2\n"
                     "map 0 1 3 2\nend\n",
                     3);
  expect_rejected_at(kSquare + "map 0 1 3 2\npath 0 1 2 0 1\nend\n", 6);
}

TEST(Io, RejectsExtraMapEntry) {
  expect_rejected_at(kSquare + "map 0 1 3 2 0\nend\n", 5);
}

TEST(Io, RejectsExtraTokensOnHeaderWrapAndCubeLines) {
  const std::string tail = "map 0 1 3 2\nend\n";
  expect_rejected_at("hjembed 1 1\nshape 2 2\nwrap 0 0\ncube 2\n" + tail,
                     1);
  expect_rejected_at("hjembed 1\nshape 2 2\nwrap 0 0 0\ncube 2\n" + tail,
                     3);
  expect_rejected_at("hjembed 1\nshape 2 2\nwrap 0 0\ncube 2 2\n" + tail,
                     4);
  expect_rejected_at(kSquare + "map 0 1 3 2\nend end\n", 6);
}

TEST(Io, RejectsContentAfterEnd) {
  expect_rejected_at(kSquare + "map 0 1 3 2\nend\npath 0 0 0 0 1\n", 7);
  expect_rejected_at(kSquare + "map 0 1 3 2\nend\n\nend\n", 8);
  // Trailing blank lines are still fine.
  EXPECT_NO_THROW((void)from_text(kSquare + "map 0 1 3 2\nend\n\n \n"));
}

TEST(Io, RejectsNegativeNumbers) {
  // An istream read "-1" as 2^64-1; from_chars refuses the sign.
  expect_rejected_at("hjembed 1\nshape 2 -1\nwrap 0 0\ncube 2\n"
                     "map 0 1 3 2\nend\n",
                     2);
  expect_rejected_at("hjembed 1\nshape 2 2\nwrap 0 -1\ncube 2\n"
                     "map 0 1 3 2\nend\n",
                     3);
  expect_rejected_at("hjembed 1\nshape 2 2\nwrap 0 0\ncube -1\n"
                     "map 0 1 3 2\nend\n",
                     4);
  expect_rejected_at(kSquare + "map 0 1 3 -1\nend\n", 5);
  expect_rejected_at(kSquare + "map 0 1 3 2\npath -1 0 0 0 1\nend\n", 6);
  expect_rejected_at(kSquare + "map 0 1 3 2\npath 0 0 0 0 -1\nend\n", 6);
}

TEST(Io, WriteTextOutputsStillDecodeByteForByte) {
  // Every writer output must pass the strict parser and re-encode to the
  // same bytes: Gray, a direct table with paths, a product and a torus
  // (wrap paths on wrapping axes of length > 2).
  torus::TorusPlanner planner;
  const std::vector<EmbeddingPtr> embs = {
      std::make_shared<GrayEmbedding>(Mesh(Shape{3, 5})),
      *direct_embedding(Shape{7, 9}),
      std::make_shared<MeshProductEmbedding>(
          std::make_shared<GrayEmbedding>(Mesh(Shape{4, 2})),
          *direct_embedding(Shape{3, 5})),
      planner.plan(Shape{6, 10}).embedding,
      planner.plan(Shape{5, 7, 4}).embedding,
  };
  for (const EmbeddingPtr& e : embs) {
    const std::string text = to_text(*e);
    EXPECT_EQ(to_text(*from_text(text)), text);
  }
}

}  // namespace
}  // namespace hj::io
