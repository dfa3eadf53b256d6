// Metrics registry: counters, gauges, histograms, snapshots, JSON and
// the enable gate.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace hj::obs {
namespace {

/// Tests mutate the process-global registry; scope every test to its own
/// metric names and reset values on entry so order does not matter.
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::global().reset(); }
};

TEST_F(RegistryTest, CounterAccumulates) {
  Counter& c = Registry::global().counter("test.reg.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(c.kind(), Kind::Deterministic);
}

TEST_F(RegistryTest, CounterIsIdempotentlyInterned) {
  Counter& a = Registry::global().counter("test.reg.same");
  Counter& b = Registry::global().counter("test.reg.same");
  EXPECT_EQ(&a, &b);
}

TEST_F(RegistryTest, KindConflictThrows) {
  (void)Registry::global().counter("test.reg.kinded", Kind::Timing);
  EXPECT_THROW((void)Registry::global().counter("test.reg.kinded",
                                                Kind::Deterministic),
               std::invalid_argument);
  // Same name in a different metric family is a separate namespace.
  EXPECT_NO_THROW((void)Registry::global().histogram("test.reg.kinded"));
}

TEST_F(RegistryTest, GaugeHoldsLastValue) {
  Gauge& g = Registry::global().gauge("test.reg.gauge");
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.set(1234);
  EXPECT_EQ(g.value(), 1234);
}

TEST_F(RegistryTest, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(u64{1} << 40), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(~u64{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Histogram::bucket_lo(5), 16u);
  // Every sample lands in the bucket whose range contains it.
  for (u64 v : {u64{1}, u64{5}, u64{100}, u64{65536}, u64{1} << 33}) {
    const u32 b = Histogram::bucket_of(v);
    EXPECT_GE(v, Histogram::bucket_lo(b)) << v;
    if (b + 1 < Histogram::kBuckets) {
      EXPECT_LT(v, Histogram::bucket_lo(b + 1)) << v;
    }
  }
}

TEST_F(RegistryTest, HistogramAggregates) {
  Histogram& h = Registry::global().histogram("test.reg.hist");
  for (u64 v : {u64{0}, u64{1}, u64{1}, u64{7}, u64{100}}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 109u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);        // the 0
  EXPECT_EQ(h.bucket(1), 2u);        // the 1s
  EXPECT_EQ(h.bucket(3), 1u);        // 7 in [4, 8)
  EXPECT_DOUBLE_EQ(h.mean(), 109.0 / 5.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.buckets.size(), Histogram::kBuckets);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST_F(RegistryTest, ConcurrentAddsAllLand) {
  Counter& c = Registry::global().counter("test.reg.mt");
  Histogram& h = Registry::global().histogram("test.reg.mt.hist");
  constexpr u64 kPerThread = 10'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t)
    pool.emplace_back([&] {
      for (u64 i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(i & 1023);
      }
    });
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(c.value(), 8 * kPerThread);
  EXPECT_EQ(h.count(), 8 * kPerThread);
}

TEST_F(RegistryTest, SnapshotFiltersByKind) {
  auto& reg = Registry::global();
  reg.counter("test.reg.det").add(3);
  reg.counter("test.reg.tim", Kind::Timing).add(9);
  reg.histogram("test.reg.det.h").observe(5);
  reg.histogram("test.reg.tim.h", Kind::Timing).observe(5);

  const Registry::Snapshot det = reg.snapshot(Kind::Deterministic);
  EXPECT_EQ(det.counters.at("test.reg.det"), 3u);
  EXPECT_EQ(det.counters.count("test.reg.tim"), 0u);
  EXPECT_EQ(det.histograms.count("test.reg.det.h"), 1u);
  EXPECT_EQ(det.histograms.count("test.reg.tim.h"), 0u);

  const Registry::Snapshot all = reg.snapshot();
  EXPECT_EQ(all.counters.at("test.reg.tim"), 9u);

  // Snapshots of the same state compare equal; a bump breaks equality.
  EXPECT_EQ(det, reg.snapshot(Kind::Deterministic));
  reg.counter("test.reg.det").add();
  EXPECT_FALSE(det == reg.snapshot(Kind::Deterministic));
}

TEST_F(RegistryTest, JsonContainsEveryFamily) {
  auto& reg = Registry::global();
  reg.counter("test.reg.json.c").add(2);
  reg.gauge("test.reg.json.g").set(-5);
  reg.histogram("test.reg.json.h", Kind::Timing).observe(1000);
  const std::string js = reg.to_json();
  EXPECT_NE(js.find("\"test.reg.json.c\": {\"value\": 2, "
                    "\"kind\": \"deterministic\"}"),
            std::string::npos)
      << js;
  EXPECT_NE(js.find("\"test.reg.json.g\": {\"value\": -5"),
            std::string::npos);
  EXPECT_NE(js.find("\"test.reg.json.h\""), std::string::npos);
  EXPECT_NE(js.find("\"kind\": \"timing\""), std::string::npos);
}

TEST_F(RegistryTest, EnableGateFlips) {
#ifndef HJ_DISABLE_OBS
  const bool before = enabled();
  set_enabled(true);
  EXPECT_TRUE(enabled());
  set_enabled(false);
  EXPECT_FALSE(enabled());
  set_enabled(before);
#else
  EXPECT_FALSE(enabled());
#endif
}

TEST_F(RegistryTest, ThreadOrdinalsAreSmallAndStable) {
  const u32 mine = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), mine);
  u32 other = mine;
  std::thread([&] { other = thread_ordinal(); }).join();
  EXPECT_NE(other, mine);
}

TEST(Percentile, NearestRankOnSmallSamples) {
  // Rank ceil(p·n): for {1,2,3,4} the median is the 2nd sample, not the
  // 3rd that rounding p·(n-1) = 1.5 up would give.
  const std::vector<u64> four{4, 2, 3, 1};
  EXPECT_EQ(percentile(four, 0.0), 1u);
  EXPECT_EQ(percentile(four, 0.25), 1u);
  EXPECT_EQ(percentile(four, 0.5), 2u);
  EXPECT_EQ(percentile(four, 0.51), 3u);
  EXPECT_EQ(percentile(four, 0.99), 4u);
  EXPECT_EQ(percentile(four, 1.0), 4u);
  EXPECT_EQ(percentile({7}, 0.5), 7u);
  EXPECT_EQ(percentile({}, 0.5), 0u);
}

}  // namespace
}  // namespace hj::obs
