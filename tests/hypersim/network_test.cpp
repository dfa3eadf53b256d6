// Tests for the Boolean-cube network simulator substrate.
#include "hypersim/network.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <random>
#include <vector>

#include "core/direct.hpp"
#include "core/verify.hpp"
#include "hypersim/storm.hpp"

namespace hj::sim {
namespace {

TEST(Network, SingleMessageTakesPathLengthCycles) {
  CubeNetwork net(SimConfig{3});
  net.add_message(CubePath{0, 1, 3, 7});
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 3u);
  EXPECT_EQ(r.messages, 1u);
  EXPECT_EQ(r.total_hops, 3u);
  EXPECT_EQ(r.max_link_load, 1u);
  EXPECT_DOUBLE_EQ(r.slowdown_vs_bound, 1.0);
}

TEST(Network, ContendingMessagesSerialize) {
  CubeNetwork net(SimConfig{2});
  // Both messages need link 0 -> 1 on their first hop.
  net.add_message(CubePath{0, 1});
  net.add_message(CubePath{0, 1, 3});
  SimResult r = net.run();
  EXPECT_EQ(r.max_link_load, 2u);
  // Cycle 1: msg0 takes (0,1), msg1 stalls. Cycle 2: msg1 takes (0,1).
  // Cycle 3: msg1 takes (1,3).
  EXPECT_EQ(r.cycles, 3u);
}

TEST(Network, OppositeDirectionsDoNotContend) {
  CubeNetwork net(SimConfig{1});
  net.add_message(CubePath{0, 1});
  net.add_message(CubePath{1, 0});
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 1u);
  EXPECT_EQ(r.max_link_load, 1u);
}

TEST(Network, BandwidthTwoHalvesSerialization) {
  for (u32 bw : {1u, 2u}) {
    CubeNetwork net(SimConfig{2, bw});
    net.add_message(CubePath{0, 1});
    net.add_message(CubePath{0, 1});
    SimResult r = net.run();
    EXPECT_EQ(r.cycles, bw == 1 ? 2u : 1u) << "bw=" << bw;
  }
}

TEST(Network, ZeroLengthRoutesCompleteInstantly) {
  CubeNetwork net(SimConfig{2});
  net.add_message(CubePath{3});
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 0u);
}

TEST(Network, RejectsBrokenRoutes) {
  CubeNetwork net(SimConfig{2});
  EXPECT_THROW(net.add_message(CubePath{0, 3}), std::invalid_argument);
  EXPECT_THROW(net.add_message(CubePath{}), std::invalid_argument);
  // Every node must lie in the host, the last one included: 7 is adjacent
  // to 3 but outside Q2, and link 3->7 has no slot there.
  EXPECT_THROW(net.add_message(CubePath{3, 7}), std::invalid_argument);
  EXPECT_THROW(net.add_message(CubePath{0, 1, 5}), std::invalid_argument);
  EXPECT_THROW(net.add_message(CubePath{4}), std::invalid_argument);
  EXPECT_EQ(net.pending(), 0u);
}

TEST(Network, GrayStencilIsContentionLight) {
  // Dilation-1, congestion-1 routes: each directed link carries at most
  // one message; everything lands in one cycle.
  GrayEmbedding emb{Mesh(Shape{8, 8})};
  SimResult r = simulate_stencil(emb);
  EXPECT_TRUE(r.consistent());
  EXPECT_EQ(r.max_route_len, 1u);
  EXPECT_EQ(r.cycles, 1u);
  EXPECT_EQ(r.messages, 2u * emb.guest().num_edges());
}

TEST(Network, DirectTableStencilRespectsCongestionBound) {
  // Dilation-2 congestion-2 embedding: the exchange takes a handful of
  // cycles, bounded by a small multiple of the lower bound.
  auto emb = direct_embedding(Shape{7, 9});
  ASSERT_TRUE(emb.has_value());
  SimResult r = simulate_stencil(**emb);
  EXPECT_TRUE(r.consistent());
  EXPECT_EQ(r.max_route_len, 2u);
  EXPECT_GE(r.cycles, r.lower_bound());
  EXPECT_LE(r.cycles, 4 * r.lower_bound());
}

TEST(Network, DeterministicAcrossRuns) {
  auto emb = direct_embedding(Shape{3, 3, 7});
  ASSERT_TRUE(emb.has_value());
  SimResult a = simulate_stencil(**emb);
  SimResult b = simulate_stencil(**emb);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_hops, b.total_hops);
}

TEST(Network, AxisShiftSmallerThanFullExchange) {
  GrayEmbedding emb{Mesh(Shape{4, 4})};
  CubeNetwork net(SimConfig{emb.host_dim()});
  net.add_axis_shift(emb, 0);
  EXPECT_EQ(net.pending(), 12u);  // 3 * 4 edges on axis 0
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 1u);
}

TEST(Network, RunResetsState) {
  CubeNetwork net(SimConfig{2});
  net.add_message(CubePath{0, 1});
  (void)net.run();
  EXPECT_EQ(net.pending(), 0u);
  SimResult r = net.run();
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.cycles, 0u);
}

// --- Flit-level behaviour (message sizes, switching modes). ---

TEST(Flits, StoreAndForwardLatencyIsHopsTimesFlits) {
  CubeNetwork net(SimConfig{3, 1, 1'000'000, Switching::StoreAndForward, 4});
  net.add_message(CubePath{0, 1, 3, 7});
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 3u * 4u);
  EXPECT_DOUBLE_EQ(r.slowdown_vs_bound, 1.0);
}

TEST(Flits, CutThroughPipelinesTheTrain) {
  CubeNetwork net(SimConfig{3, 1, 1'000'000, Switching::CutThrough, 4});
  net.add_message(CubePath{0, 1, 3, 7});
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 3u + 4u - 1u);
  EXPECT_DOUBLE_EQ(r.slowdown_vs_bound, 1.0);
}

TEST(Flits, SingleFlitModesAgree) {
  for (auto sw : {Switching::StoreAndForward, Switching::CutThrough}) {
    auto emb = direct_embedding(Shape{3, 3, 3});
    ASSERT_TRUE(emb.has_value());
    SimResult r = simulate_stencil(**emb, 1, sw, 1);
    SimResult base = simulate_stencil(**emb);
    EXPECT_EQ(r.cycles, base.cycles);
  }
}

TEST(Flits, DilationPenaltyScalesWithMessageSizeOnlyForSAF) {
  // The dilation-2 route pays 2F under store-and-forward but only F+1
  // under cut-through: the motivating ablation for bench/exp_stencil_sim.
  for (u32 f : {1u, 8u, 32u}) {
    CubeNetwork saf(SimConfig{2, 1, 1'000'000, Switching::StoreAndForward, f});
    saf.add_message(CubePath{0, 1, 3});
    CubeNetwork ct(SimConfig{2, 1, 1'000'000, Switching::CutThrough, f});
    ct.add_message(CubePath{0, 1, 3});
    EXPECT_EQ(saf.run().cycles, 2u * f);
    EXPECT_EQ(ct.run().cycles, f + 1u);
  }
}

TEST(Flits, ContentionSerializesTrains) {
  // Two 4-flit messages over one shared link: 8 cycles of link time.
  CubeNetwork net(SimConfig{1, 1, 1'000'000, Switching::StoreAndForward, 4});
  net.add_message(CubePath{0, 1});
  net.add_message(CubePath{0, 1});
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 8u);
}

TEST(Flits, BandwidthSplitsFairlyAcrossTrains) {
  CubeNetwork net(SimConfig{1, 2, 1'000'000, Switching::StoreAndForward, 4});
  net.add_message(CubePath{0, 1});
  net.add_message(CubePath{0, 1});
  SimResult r = net.run();
  EXPECT_EQ(r.cycles, 4u);  // both trains stream in parallel
}

TEST(Broadcast, RootFansOutWithCongestion) {
  GrayEmbedding emb{Mesh(Shape{4, 4})};
  CubeNetwork net(SimConfig{emb.host_dim()});
  net.add_broadcast(emb, 0);
  EXPECT_EQ(net.pending(), 15u);
  SimResult r = net.run();
  // The root's outgoing links serialize: ~15 messages over 4 links.
  EXPECT_GE(r.max_link_load, 4u);
  EXPECT_GE(r.cycles, r.lower_bound());
  EXPECT_LE(r.cycles, 3 * r.lower_bound());
}

TEST(Broadcast, SkipsSelfAndColocated) {
  GrayEmbedding emb{Mesh(Shape{2, 2})};
  CubeNetwork net(SimConfig{2});
  net.add_broadcast(emb, 1);
  EXPECT_EQ(net.pending(), 3u);
}

TEST(Network, AccountingConsistentUnderE20StormDamage) {
  // Regression for run()'s failed-message bookkeeping: replay
  // the E20 storm generator's damage (every kind, flapping included) as
  // the fault model of a stencil run and re-assert the SimResult
  // accounting invariant — every message ends delivered or failed, and
  // `completed` means exactly "all delivered, none failed".
  GrayEmbedding emb{Mesh(Shape{8, 8, 4})};  // Q8, the E20 smoke host size
  for (StormKind kind : {StormKind::Regional, StormKind::Cascading,
                         StormKind::Bursty, StormKind::Mixed}) {
    SCOPED_TRACE(storm_kind_name(kind));
    StormSpec spec;
    spec.cube_dim = emb.host_dim();
    spec.kind = kind;
    spec.events = 50;
    spec.flapping_links = 2;
    spec.seed = 20;
    const Storm storm = StormGenerator(spec).generate();

    // run() has no arrival clock: land the whole schedule up front so
    // the permanent damage is maximal for the failed-message path.
    FaultModel model;
    std::size_t cursor = 0;
    storm.schedule.apply_until(~u64{0}, model.permanent(), cursor);
    storm.install_flapping(model);

    SimConfig config;
    config.cube_dim = emb.host_dim();
    config.faults = &model;
    SimResult r = simulate_stencil(emb, config);
    EXPECT_TRUE(r.consistent());
    // A non-truncated run leaves nothing in flight.
    EXPECT_EQ(r.delivered + r.failed_messages, r.messages);
    // The storm kills hardware, so some routes must actually fail (the
    // failed-bitword path is exercised, not vacuously green).
    EXPECT_GT(r.failed_messages, 0u);
    EXPECT_GT(r.delivered, 0u);
    EXPECT_FALSE(r.completed);
  }
}

TEST(Network, FaultedStencilResultsArePinned) {
  // A stencil exchange on the dilation-2 3x3x7 table under a dead link, a
  // flapping link and transient drops heavy enough to exhaust some retry
  // budgets. The simulator is deterministic, so every number is exact;
  // rows cover both switching modes and spare bandwidth.
  auto table = direct_embedding(Shape{3, 3, 7});
  ASSERT_TRUE(table.has_value());
  const Embedding& emb = **table;
  const CubeNode a = emb.map(0);
  FaultModel model;
  model.permanent().fail_link(a, emb.map(1));
  model.add_flapping(FlapSpec{a ^ 2, a ^ 6, 16, 5, 0});
  model.set_transient(0.15, 7);
  struct Row {
    Switching sw;
    u32 bandwidth;
    u64 cycles;
    u32 max_link_load;
    u64 dropped_flits;
    u64 failed_messages;
  };
  const Row rows[] = {
      {Switching::StoreAndForward, 1, 14, 2, 207, 5},
      {Switching::CutThrough, 1, 11, 2, 201, 4},
      {Switching::CutThrough, 2, 8, 2, 200, 4},
  };
  for (const Row& row : rows) {
    SimConfig config{emb.host_dim()};
    config.switching = row.sw;
    config.link_bandwidth = row.bandwidth;
    config.message_flits = 3;
    config.max_retries = 4;
    config.faults = &model;
    const SimResult r = simulate_stencil(emb, config);
    SCOPED_TRACE(std::to_string(static_cast<int>(row.sw)) + " bw " +
                 std::to_string(row.bandwidth));
    EXPECT_TRUE(r.consistent());
    EXPECT_EQ(r.cycles, row.cycles);
    EXPECT_EQ(r.max_link_load, row.max_link_load);
    EXPECT_EQ(r.dropped_flits, row.dropped_flits);
    EXPECT_EQ(r.failed_messages, row.failed_messages);
  }
}

TEST(Network, DenseAndSortedLinkSlotsAgree) {
  // Traffic numbers link slots through a dense table up to
  // kDenseLinkDimLimit and through the sorted distinct ids above it. The
  // same faulted message set — a Q12 stencil plus multi-hop e-cube routes
  // — run in Q12 and lifted unchanged into Q20 must give identical
  // results. No transient drops: those hash the link id, which depends on
  // the cube dimension.
  constexpr u32 kLow = 12, kHigh = 20;
  static_assert(kLow <= Hypercube::kDenseLinkDimLimit &&
                kHigh > Hypercube::kDenseLinkDimLimit);
  GrayEmbedding emb{Mesh(Shape{16, 16, 16})};
  ASSERT_EQ(emb.host_dim(), kLow);
  std::vector<CubePath> routes;
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    routes.push_back(emb.edge_path(e));
    routes.push_back(routes.back());
    routes.back().reverse();
  });
  std::mt19937_64 rng(0x51u);
  for (int i = 0; i < 400; ++i)
    routes.push_back(Hypercube::ecube_path(rng() % 4096, rng() % 4096));

  FaultModel model;
  FaultSchedule schedule;
  for (int i = 0; i < 24; ++i) {
    const CubeNode v = rng() % 4096;
    const CubeNode w = v ^ (CubeNode{1} << (rng() % kLow));
    if (i % 3 == 0) {
      model.permanent().fail_node(v);
      schedule.add_node_failure(2 + rng() % 16, v);
    } else if (!model.permanent().link_failed(v, w)) {
      model.permanent().fail_link(v, w);
      schedule.add_link_failure(2 + rng() % 16, v, w);
    }
  }
  model.add_flapping(FlapSpec{5, 7, 16, 5, 0});
  FaultModel flapping_only;
  flapping_only.add_flapping(FlapSpec{5, 7, 16, 5, 0});

  const auto config = [](u32 dim, const FaultModel* faults) {
    SimConfig c{dim};
    c.message_flits = 2;
    c.max_retries = 8;
    c.faults = faults;
    return c;
  };
  const auto run = [&](u32 dim) {
    CubeNetwork net(config(dim, &model));
    for (const CubePath& r : routes) (void)net.add_message(r);
    return net.run();
  };
  const auto run_live = [&](u32 dim, u64 start) {
    CubeNetwork net(config(dim, &flapping_only));
    for (const CubePath& r : routes) (void)net.add_message(r);
    return net.run_live(start, schedule);
  };

  const SimResult lo = run(kLow), hi = run(kHigh);
  EXPECT_GT(lo.failed_messages, 0u);
  EXPECT_GT(lo.dropped_flits, 0u);
  EXPECT_EQ(lo.cycles, hi.cycles);
  EXPECT_EQ(lo.messages, hi.messages);
  EXPECT_EQ(lo.total_hops, hi.total_hops);
  EXPECT_EQ(lo.max_link_load, hi.max_link_load);
  EXPECT_EQ(lo.max_route_len, hi.max_route_len);
  EXPECT_EQ(lo.completed, hi.completed);
  EXPECT_EQ(lo.delivered, hi.delivered);
  EXPECT_EQ(lo.failed_messages, hi.failed_messages);
  EXPECT_EQ(lo.dropped_flits, hi.dropped_flits);
  EXPECT_EQ(lo.slowdown_vs_bound, hi.slowdown_vs_bound);

  // Epoch by epoch, resuming where the previous one paused, as the live
  // driver does (the same message set each time is enough here).
  u64 start_lo = 0, start_hi = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    SCOPED_TRACE(epoch);
    const LiveEpochResult a = run_live(kLow, start_lo);
    const LiveEpochResult b = run_live(kHigh, start_hi);
    EXPECT_EQ(a.end_cycle, b.end_cycle);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped_flits, b.dropped_flits);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.deferred_watchdogs, b.deferred_watchdogs);
    EXPECT_EQ(a.detections, b.detections);
    EXPECT_EQ(a.message_delivered, b.message_delivered);
    if (epoch == 0) {
      EXPECT_TRUE(a.detected);
    }
    start_lo = a.end_cycle;
    start_hi = b.end_cycle;
  }
}

// --- run() is run_live() without faults ------------------------------------

struct KernelCase {
  bool gray;       // Gray code embedding, else the dilation-2 3x3x7 table
  bool broadcast;  // naive broadcast, else the stencil exchange
  Switching sw;
  u32 flits;
  u32 bandwidth;

  // gtest_discover_tests names each case by its printed value, so this
  // printer keeps the ctest ids readable and stable across builds.
  friend std::ostream& operator<<(std::ostream& os, const KernelCase& k) {
    return os << (k.gray ? "gray_" : "direct_")
              << (k.broadcast ? "broadcast_" : "stencil_")
              << (k.sw == Switching::CutThrough ? "ct" : "saf") << "_f"
              << k.flits << "_bw" << k.bandwidth;
  }
};

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> out;
  for (const bool gray : {true, false})
    for (const bool broadcast : {false, true})
      for (const Switching sw :
           {Switching::StoreAndForward, Switching::CutThrough})
        for (const u32 flits : {1u, 4u})
          for (const u32 bandwidth : {1u, 2u})
            out.push_back({gray, broadcast, sw, flits, bandwidth});
  return out;
}

class RunIsLiveWithoutFaults : public ::testing::TestWithParam<KernelCase> {};

TEST_P(RunIsLiveWithoutFaults, SameCyclesAndDeliveries) {
  // run() and run_live() share one cycle kernel; with no faults the only
  // switches between them (faults fixed at cycle 0, detection and
  // watchdog) have nothing to act on, so both schedules are the same.
  const KernelCase k = GetParam();
  const GrayEmbedding gray{Mesh(Shape{5, 6, 3})};
  auto table = direct_embedding(Shape{3, 3, 7});
  ASSERT_TRUE(table.has_value());
  const Embedding& emb = k.gray ? static_cast<const Embedding&>(gray) : **table;
  SimConfig config{emb.host_dim()};
  config.switching = k.sw;
  config.message_flits = k.flits;
  config.link_bandwidth = k.bandwidth;
  const auto queue = [&](CubeNetwork& net) {
    if (k.broadcast)
      net.add_broadcast(emb, emb.guest().num_nodes() / 2);
    else
      net.add_stencil_exchange(emb);
  };
  CubeNetwork a(config), b(config);
  queue(a);
  queue(b);
  const SimResult r = a.run();
  const LiveEpochResult live = b.run_live(0, FaultSchedule{});
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.cycles, live.end_cycle);
  EXPECT_EQ(r.messages, live.messages);
  EXPECT_EQ(r.delivered, live.delivered);
  EXPECT_EQ(r.dropped_flits, 0u);
  EXPECT_EQ(live.dropped_flits, 0u);
  EXPECT_FALSE(live.detected);
  EXPECT_FALSE(live.truncated);
  EXPECT_EQ(live.message_delivered,
            std::vector<u8>(live.messages, static_cast<u8>(1)));
}

INSTANTIATE_TEST_SUITE_P(Modes, RunIsLiveWithoutFaults,
                         ::testing::ValuesIn(kernel_cases()));

}  // namespace
}  // namespace hj::sim
