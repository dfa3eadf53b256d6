// Tests for the search provider's process-wide memo: every answer equals
// an uncached search of the same question, the key separates every input
// the search reads (wrap flags, dilation bound, host dimension, budgets),
// "none found" answers are kept too, and concurrent callers agree.
#include "search/provider.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "search/anneal.hpp"
#include "search/backtrack.hpp"

namespace hj::search {
namespace {

using Answer = std::optional<std::vector<CubeNode>>;

/// The provider's documented answer, computed without the memo.
Answer uncached(const Mesh& guest, u32 host_dim, u64 budget, u64 anneal,
                u32 max_dilation) {
  BacktrackOptions bo;
  bo.max_dilation = max_dilation;
  bo.node_budget = budget;
  BacktrackResult br = backtrack_search(guest, host_dim, bo);
  if (br.map) return br.map;
  if (br.exhausted || anneal == 0) return std::nullopt;
  AnnealOptions ao;
  ao.max_dilation = max_dilation;
  ao.iterations = anneal;
  ao.restarts = 2;
  return anneal_search(guest, host_dim, ao).map;
}

/// Ask `provider` twice: both answers must equal the uncached search.
void expect_memoized(const DirectProvider& provider, const Mesh& guest,
                     u32 host_dim, u64 budget, u64 anneal, u32 max_dilation) {
  const Answer want = uncached(guest, host_dim, budget, anneal, max_dilation);
  const Answer first = provider(guest, host_dim);
  const Answer again = provider(guest, host_dim);
  EXPECT_EQ(first, want) << guest.shape().to_string() << " -> Q" << host_dim;
  EXPECT_EQ(again, first) << guest.shape().to_string() << " -> Q"
                          << host_dim << " (repeat)";
}

TEST(SearchMemo, WrapFlagsAreInTheKey) {
  // At dilation 1 the open 3x3 mesh fits Q4 but the 3x3 torus (odd
  // cycles) fits no cube: same extents, opposite answers. Asking the
  // torus first means a key without wrap flags would hand the open mesh
  // the torus's "none found".
  const DirectProvider p = make_search_provider(100'000, 0, 1);
  const Mesh torus = Mesh::torus(Shape{3, 3});
  const Mesh open(Shape{3, 3});
  expect_memoized(p, torus, 4, 100'000, 0, 1);
  expect_memoized(p, open, 4, 100'000, 0, 1);
  EXPECT_FALSE(p(torus, 4).has_value());
  EXPECT_TRUE(p(open, 4).has_value());
}

TEST(SearchMemo, DilationBoundIsInTheKey) {
  const Mesh torus = Mesh::torus(Shape{3, 3});
  const DirectProvider d1 = make_search_provider(100'000, 0, 1);
  const DirectProvider d2 = make_search_provider(100'000, 0, 2);
  expect_memoized(d1, torus, 4, 100'000, 0, 1);
  expect_memoized(d2, torus, 4, 100'000, 0, 2);
  EXPECT_NE(d1(torus, 4), d2(torus, 4));
}

TEST(SearchMemo, HostDimensionIsInTheKey) {
  // Nine nodes do not fit Q3 but do fit Q4: ask the impossible cube
  // first, so a key without host_dim would refuse Q4 too.
  const DirectProvider p = make_search_provider(100'000);
  const Mesh guest(Shape{3, 3});
  expect_memoized(p, guest, 3, 100'000, 0, 2);
  expect_memoized(p, guest, 4, 100'000, 0, 2);
  EXPECT_FALSE(p(guest, 3).has_value());
  EXPECT_TRUE(p(guest, 4).has_value());
}

TEST(SearchMemo, BudgetLimitedNoneFoundIsKept) {
  // Five search-tree nodes cannot place 25 guest nodes: inconclusive, and
  // with no annealing the provider answers "none found" — a memoized
  // answer like any other, but only for this budget.
  const Mesh guest(Shape{5, 5});
  const DirectProvider tiny = make_search_provider(5);
  expect_memoized(tiny, guest, 5, 5, 0, 2);
  EXPECT_FALSE(tiny(guest, 5).has_value());
  const DirectProvider ample = make_search_provider(1'000'000);
  expect_memoized(ample, guest, 5, 1'000'000, 0, 2);
  EXPECT_TRUE(ample(guest, 5).has_value());
  // Annealing iterations are in the key as well: the same tiny budget
  // with an annealing pass is a different question.
  const DirectProvider annealed = make_search_provider(5, 200'000);
  expect_memoized(annealed, guest, 5, 5, 200'000, 2);
}

TEST(SearchMemo, ConcurrentCallersAgree) {
  // Four threads ask overlapping questions in different orders, four
  // rounds each; every thread must see the answers a serial uncached
  // search gives, on the first ask and on every repeat.
  const std::vector<Mesh> guests = {
      Mesh(Shape{3, 5}),          Mesh(Shape{3, 3, 3}),
      Mesh::torus(Shape{3, 3}),   Mesh(Shape{3, 3}),
      Mesh(Shape{5, 6}),          Mesh::torus(Shape{4, 6})};
  const u32 dims[] = {4, 5, 4, 4, 5, 5};
  std::vector<Answer> want;
  for (std::size_t i = 0; i < guests.size(); ++i)
    want.push_back(uncached(guests[i], dims[i], 100'000, 0, 2));

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Answer>> got(kThreads,
                                       std::vector<Answer>(guests.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const DirectProvider p = make_search_provider(100'000);
      for (std::size_t k = 0; k < 4 * guests.size(); ++k) {
        const std::size_t i = (k + t) % guests.size();
        Answer a = p(guests[i], dims[i]);
        if (k >= guests.size()) {
          EXPECT_EQ(a, got[t][i]) << "repeat " << k;
        }
        got[t][i] = std::move(a);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < guests.size(); ++i)
      EXPECT_EQ(got[t][i], want[i]) << "thread " << t << ", guest " << i;
}

}  // namespace
}  // namespace hj::search
