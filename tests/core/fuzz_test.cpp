// Property and failure-injection tests: the verifier must catch every
// corruption, and the planner must hold its invariants on random shapes.
#include <gtest/gtest.h>

#include <random>

#include "core/io.hpp"
#include "core/planner.hpp"
#include "core/verify.hpp"
#include "hypersim/fault.hpp"
#include "torus/torus.hpp"

namespace hj {
namespace {

// --- Failure injection: corrupt a known-good embedding, expect detection.

std::shared_ptr<ExplicitEmbedding> good_embedding() {
  // Materialize a planner result (12x20, dil 2, routed paths) via io.
  static const std::string text = [] {
    Planner p;
    return io::to_text(*p.plan(Shape{12, 20}).embedding);
  }();
  return io::from_text(text);
}

TEST(FailureInjection, BaselineIsValid) {
  auto emb = good_embedding();
  VerifyReport r = verify(*emb);
  EXPECT_TRUE(r.valid);
  EXPECT_LE(r.dilation, 2u);
}

TEST(FailureInjection, DuplicatedNodeIsCaught) {
  auto emb = good_embedding();
  std::vector<CubeNode> map = emb->node_map();
  map[7] = map[3];  // collide two nodes
  ExplicitEmbedding bad(emb->guest(), emb->host_dim(), map);
  VerifyReport r = verify(bad);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.load_factor, 2u);
}

TEST(FailureInjection, SwappedNodesRaiseDilationNotValidity) {
  // Swapping two images keeps the embedding structurally valid (with
  // default routing) but typically wrecks the dilation — the verifier
  // must report the true numbers, not the advertised ones.
  auto emb = good_embedding();
  std::vector<CubeNode> map = emb->node_map();
  std::swap(map.front(), map.back());
  ExplicitEmbedding bad(emb->guest(), emb->host_dim(), map);
  VerifyReport r = verify(bad);
  EXPECT_TRUE(r.valid);
  EXPECT_GT(r.dilation, 2u);
}

TEST(FailureInjection, StalePathAfterMapChangeIsCaught) {
  auto emb = good_embedding();
  // Corrupt the map entry of a node that owns a stored path: the loader's
  // endpoint check must reject the stale path.
  std::string text = io::to_text(*emb);
  const auto ppos = text.find("\npath ");
  ASSERT_NE(ppos, std::string::npos);
  std::istringstream ph(text.substr(ppos + 6));
  u64 src = 0;
  ph >> src;
  // Rewrite that node's map entry to a guaranteed-different address.
  const auto mpos = text.find("map ");
  ASSERT_NE(mpos, std::string::npos);
  std::istringstream ms(text.substr(mpos + 4));
  std::vector<u64> map_vals(emb->guest().num_nodes());
  for (u64& v : map_vals) ms >> v;
  map_vals[src] ^= 1;  // move the node one cube link away
  std::swap(map_vals[src],
            map_vals[src == 0 ? 1 : 0]);  // keep it a permutation-ish change
  std::string rebuilt = text.substr(0, mpos) + "map";
  for (u64 v : map_vals) rebuilt += " " + std::to_string(v);
  rebuilt += text.substr(text.find('\n', mpos));
  EXPECT_THROW((void)io::from_text(rebuilt), std::invalid_argument);
}

TEST(FailureInjection, OutOfCubeNodeRejectedAtConstruction) {
  auto emb = good_embedding();
  std::vector<CubeNode> map = emb->node_map();
  map[0] = u64{1} << emb->host_dim();
  EXPECT_THROW(ExplicitEmbedding(emb->guest(), emb->host_dim(), map),
               std::invalid_argument);
}

// --- Malformed io::from_text inputs: always throw, never crash. ---

TEST(IoFuzz, TruncatedInputsThrowOrParse) {
  const std::string text = io::to_text(*good_embedding());
  // Every prefix must either parse cleanly (if it happens to contain a
  // complete document) or throw std::invalid_argument — never crash or
  // return a torn object.
  for (std::size_t len = 0; len < text.size(); len += 3) {
    try {
      auto emb = io::from_text(text.substr(0, len));
      ASSERT_NE(emb, nullptr);
    } catch (const std::invalid_argument&) {
      // expected for most prefixes
    }
  }
}

TEST(IoFuzz, MalformedInputsThrow) {
  const char* cases[] = {
      "",                                             // empty
      "hjembed",                                      // header cut short
      "hjembed 2\nshape 2 2\n",                       // unknown version
      "bogus 1\nshape 2 2\n",                         // wrong magic
      "hjembed 1\nshape\nwrap 0\ncube 2\nmap 0\nend",  // empty shape
      "hjembed 1\nshape 2 0\nwrap 0 0\ncube 2\nmap 0 1 2 3\nend",  // zero extent
      "hjembed 1\nshape 2 2\nwrap 0\ncube 2\nmap 0 1 2 3\nend",    // short wrap
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2\nend",    // short map
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 x\nend",  // bad number
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 99\nmap 0 1 2 3\nend",  // cube > 63
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 7\nend",  // out of cube
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 3\n",     // missing end
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 3\njunk\nend",
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 3\n"
      "path 9 0 0 0 1\nend",                          // path node out of range
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 3\n"
      "path 0 7 0 0 1\nend",                          // path axis out of range
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 3\n"
      "path 0 0 1 0 1\nend",                          // wrap path, unwrapped mesh
  };
  for (const char* c : cases)
    EXPECT_THROW((void)io::from_text(c), std::invalid_argument) << c;
}

TEST(IoFuzz, HugeShapeHeaderThrowsInsteadOfAllocating) {
  // An absurd shape header must be rejected before the node map is
  // allocated (no bad_alloc, no u64 overflow wrapping to a small product).
  const char* cases[] = {
      "hjembed 1\nshape 18446744073709551615 2\nwrap 0 0\ncube 2\nmap 0\nend",
      "hjembed 1\nshape 4294967296 4294967296\nwrap 0 0\ncube 2\nmap 0\nend",
      "hjembed 1\nshape 99999999999\nwrap 0\ncube 2\nmap 0\nend",
  };
  for (const char* c : cases)
    EXPECT_THROW((void)io::from_text(c), std::invalid_argument) << c;
}

TEST(IoFuzz, DuplicatePathKeyThrows) {
  std::string text =
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 3\n"
      "path 0 1 0 0 1\n"
      "path 0 1 0 0 1\nend";
  EXPECT_THROW((void)io::from_text(text), std::invalid_argument);
  // The same path given once is fine.
  std::string once =
      "hjembed 1\nshape 2 2\nwrap 0 0\ncube 2\nmap 0 1 2 3\n"
      "path 0 1 0 0 1\nend";
  EXPECT_TRUE(verify(*io::from_text(once)).valid);
}

// --- Random-shape property sweeps. ---

Shape random_shape(std::mt19937_64& rng, u32 max_dims, u64 max_nodes) {
  std::uniform_int_distribution<u32> kdist(1, max_dims);
  const u32 k = kdist(rng);
  SmallVec<u64, 4> ext;
  u64 nodes = 1;
  for (u32 i = 0; i < k; ++i) {
    const u64 cap = std::max<u64>(1, max_nodes / nodes);
    std::uniform_int_distribution<u64> ldist(1, std::min<u64>(cap, 40));
    ext.push_back(ldist(rng));
    nodes *= ext.back();
  }
  return Shape{ext};
}

TEST(PlannerProperty, RandomShapesAlwaysCertifiable) {
  std::mt19937_64 rng(20260707);
  Planner planner;  // shared memo makes 150 shapes cheap
  for (int t = 0; t < 150; ++t) {
    const Shape s = random_shape(rng, 4, 3000);
    PlanResult r = planner.plan(s);
    ASSERT_TRUE(r.report.valid) << s.to_string() << " " << r.plan;
    EXPECT_LE(r.report.dilation, 2u) << s.to_string() << " " << r.plan;
    EXPECT_EQ(r.report.load_factor, 1u) << s.to_string();
    // Never worse than Gray.
    EXPECT_LE(r.report.host_dim, s.gray_cube_dim()) << s.to_string();
    EXPECT_GE(r.report.host_dim, s.minimal_cube_dim()) << s.to_string();
  }
}

TEST(PlannerProperty, RoundTripThroughIoPreservesEverything) {
  std::mt19937_64 rng(424242);
  Planner planner;
  for (int t = 0; t < 25; ++t) {
    const Shape s = random_shape(rng, 3, 600);
    PlanResult r = planner.plan(s);
    auto back = io::from_text(io::to_text(*r.embedding));
    VerifyReport rb = verify(*back);
    EXPECT_EQ(r.report.dilation, rb.dilation) << s.to_string();
    EXPECT_EQ(r.report.congestion, rb.congestion) << s.to_string();
    EXPECT_DOUBLE_EQ(r.report.avg_dilation, rb.avg_dilation) << s.to_string();
  }
}

TEST(TorusProperty, RandomToriAlwaysValid) {
  std::mt19937_64 rng(777);
  torus::TorusPlanner planner;
  for (int t = 0; t < 40; ++t) {
    const Shape s = random_shape(rng, 3, 800);
    PlanResult r = planner.plan(s);
    ASSERT_TRUE(r.report.valid) << s.to_string() << " " << r.plan;
    EXPECT_LE(r.report.dilation, 3u) << s.to_string() << " " << r.plan;
  }
}

TEST(FaultScheduleFuzz, MalformedInputsAreRejectedWithContext) {
  // Every malformed line must throw (never crash or silently skip), and
  // the message must carry the offending line number for the CLI user.
  const char* bad[] = {
      "x node 3\n",           // non-numeric cycle
      "5\n",                  // missing kind
      "5 nodule 3\n",         // unknown kind
      "5 node\n",             // missing address
      "5 link 3\n",           // missing second address
      "5 link 3 4\n",         // addresses are not cube-adjacent
      "5 node 3 junk\n",      // trailing junk
      "1 node 1\nbroken\n",   // good line followed by bad one
      "-5 node 3\n",          // signed cycle (would wrap to 2^64 - 5)
      "+5 node 3\n",          // signed cycle
      "5 node -3\n",          // signed address
      "5 node 3x\n",          // address with a suffix
      "5 link 0 +1\n",        // signed second address
      "99999999999999999999 node 3\n",  // cycle overflows u64
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)sim::FaultSchedule::parse(text),
                 std::invalid_argument)
        << text;
    try {
      (void)sim::FaultSchedule::parse(text);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
          << text;
    }
  }
  EXPECT_THROW((void)sim::FaultSchedule::load("/nonexistent/sched.txt"),
               std::invalid_argument);
}

TEST(FaultScheduleFuzz, RandomTextNeverCrashesTheParser) {
  std::mt19937_64 rng(4242);
  const char alphabet[] = "0123456789 nodelink#\n\t-";
  for (int t = 0; t < 200; ++t) {
    std::string text;
    const std::size_t len = rng() % 64;
    for (std::size_t i = 0; i < len; ++i)
      text += alphabet[rng() % (sizeof(alphabet) - 1)];
    try {
      const sim::FaultSchedule s = sim::FaultSchedule::parse(text);
      // Anything accepted must be canonically ordered.
      for (std::size_t i = 1; i < s.events().size(); ++i)
        EXPECT_LE(s.events()[i - 1].cycle, s.events()[i].cycle);
    } catch (const std::invalid_argument&) {
      // Rejection is fine; crashing is not.
    }
  }
}

TEST(DetailedSummary, ContainsHistograms) {
  GrayEmbedding emb{Mesh(Shape{4, 4})};
  VerifyReport r = verify(emb);
  const std::string s = detailed_summary(r, emb);
  EXPECT_NE(s.find("dilation histogram"), std::string::npos);
  EXPECT_NE(s.find("d1:24"), std::string::npos);
  EXPECT_NE(s.find("c1:24"), std::string::npos);
}

}  // namespace
}  // namespace hj
