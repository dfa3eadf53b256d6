// Plan store tests: format round trips, crash-consistent precompute
// (resume from a clean or torn journal converges to a bit-identical
// store), the every-byte corruption property (truncation and bit flips
// are always *detected* — a reply is checksum-verified or quarantined,
// never garbage), and the serve layer's verdict contract, including
// "never serve an uncertified plan".
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/io.hpp"
#include "core/verify.hpp"
#include "obs/metrics.hpp"
#include "store/precompute.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"
#include "store/writer.hpp"

namespace hj::store {
namespace {

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "hj_store_" + tag;
}

void remove_store(const std::string& path) {
  std::remove(path.c_str());
  std::remove(journal_path(path).c_str());
  std::remove((path + ".tmp").c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

Record make_record(const Shape& shape) {
  Planner planner;
  const PlanResult r = planner.plan(shape.sorted());
  Record rec;
  rec.key = Key::of(shape);
  rec.cube = r.report.host_dim;
  rec.dil = r.report.dilation;
  rec.plan = r.plan;
  rec.emb_text = io::to_text(*r.embedding);
  return rec;
}

TEST(StoreFormat, KeyCanonicalizesAndOrders) {
  const Key a = Key::of(Shape{{5, 3}});
  const Key b = Key::of(Shape{{3, 5}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rank(), 2u);
  EXPECT_EQ(a.to_string(), "3x5");
  EXPECT_EQ(a.shape(), Shape({3, 5}));
  // Lexicographic order on the canonical (sorted, zero-padded) extents:
  // a strict total order across ranks, because extents are >= 1 and the
  // padding is always 0. Shape{{3,5,2}} canonicalizes to 2x3x5, so its
  // key leads with 2 and sorts before 3x5.
  EXPECT_LT(Key::of(Shape{{2, 7}}), Key::of(Shape{{3, 5}}));
  EXPECT_LT(Key::of(Shape{{3, 5, 2}}), Key::of(Shape{{3, 5}}));
  EXPECT_LT(Key::of(Shape{{3, 5}}), Key::of(Shape{{3, 6}}));
  EXPECT_THROW((void)Key::of(Shape{{2, 2, 2, 2, 2}}), std::invalid_argument);
}

TEST(StoreFormat, RecordRoundTrip) {
  const Record rec = make_record(Shape{{3, 5}});
  std::string bytes;
  encode_record(bytes, rec);
  Record back;
  u64 total = 0;
  std::string err;
  ASSERT_TRUE(decode_record(
      reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
      &back, &total, &err))
      << err;
  EXPECT_EQ(total, bytes.size());
  EXPECT_EQ(back.key, rec.key);
  EXPECT_EQ(back.cube, rec.cube);
  EXPECT_EQ(back.dil, rec.dil);
  EXPECT_EQ(back.plan, rec.plan);
  EXPECT_EQ(back.emb_text, rec.emb_text);
}

TEST(StoreFormat, DecodeRejectsTruncationAtEveryLength) {
  std::string bytes;
  encode_record(bytes, make_record(Shape{{2, 3}}));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::string err;
    EXPECT_FALSE(decode_record(
        reinterpret_cast<const unsigned char*>(bytes.data()), n, nullptr,
        nullptr, &err))
        << "decode accepted a " << n << "-byte prefix";
  }
}

TEST(StoreWriter, RoundTripAndLookup) {
  const std::string path = temp_path("roundtrip.hjs");
  remove_store(path);
  Writer w;
  const Shape shapes[] = {Shape{{4}}, Shape{{2, 3}}, Shape{{3, 5}}};
  for (const Shape& s : shapes) w.add(make_record(s));
  EXPECT_EQ(w.record_count(), 3u);
  atomic_write_file(path, w.finish());

  const PlanStore store = PlanStore::open(path);
  EXPECT_EQ(store.record_count(), 3u);
  for (const Shape& s : shapes) {
    const PlanStore::Lookup hit = store.lookup(Key::of(s));
    ASSERT_EQ(hit.status, PlanStore::Status::Hit) << s.to_string();
    EXPECT_EQ(hit.record.key, Key::of(s));
    // The stored document re-verifies.
    const auto emb = io::from_text(hit.record.emb_text);
    EXPECT_TRUE(verify(*emb).valid);
  }
  EXPECT_EQ(store.lookup(Key::of(Shape{{7, 11}})).status,
            PlanStore::Status::Miss);
  remove_store(path);
}

TEST(StoreWriter, DuplicateKeysRejected) {
  Writer w;
  w.add(make_record(Shape{{2, 3}}));
  w.add(make_record(Shape{{3, 2}}));  // same canonical key
  EXPECT_THROW((void)w.finish(), std::invalid_argument);
}

TEST(Precompute, EnumerationIsCanonicalAndOrdered) {
  const std::vector<Shape> shapes = enumerate_canonical_shapes(12, 3);
  ASSERT_FALSE(shapes.empty());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    EXPECT_LE(s.num_nodes(), 12u);
    EXPECT_EQ(s, s.sorted()) << "non-canonical " << s.to_string();
    if (i > 0) {
      const Shape& p = shapes[i - 1];
      // Rank-major, then lexicographic within a rank.
      ASSERT_TRUE(p.dims() < s.dims() ||
                  (p.dims() == s.dims() && Key::of(p) < Key::of(s)))
          << p.to_string() << " before " << s.to_string();
    }
  }
  // Deterministic: same call, same list.
  EXPECT_EQ(shapes, enumerate_canonical_shapes(12, 3));
}

TEST(Precompute, BuildsOpensAndIsIdempotent) {
  const std::string path = temp_path("build.hjs");
  remove_store(path);
  PrecomputeOptions opts;
  opts.max_nodes = 16;
  const PrecomputeResult r = precompute(path, opts);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.batches_planned, r.batches_total);

  const PlanStore store = PlanStore::open(path);
  const std::vector<Shape> shapes = enumerate_canonical_shapes(16, 3);
  EXPECT_EQ(store.record_count(), shapes.size());
  for (const Shape& s : shapes)
    EXPECT_EQ(store.lookup(Key::of(s)).status, PlanStore::Status::Hit);

  // Second run: nothing to do, store untouched byte for byte.
  const std::string before = read_file(path);
  const PrecomputeResult again = precompute(path, opts);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.batches_planned, 0u);
  EXPECT_EQ(read_file(path), before);
  remove_store(path);
}

TEST(Precompute, ResumeConvergesBitIdentical) {
  const std::string ref = temp_path("ref.hjs");
  const std::string part = temp_path("part.hjs");
  remove_store(ref);
  remove_store(part);
  PrecomputeOptions opts;
  opts.max_nodes = 24;
  opts.batch_size = 4;
  ASSERT_TRUE(precompute(ref, opts).complete);

  // Interrupt after 2 batches (the in-process analogue of kill -9: the
  // journal holds exactly the completed frames).
  PrecomputeOptions partial = opts;
  partial.max_batches = 2;
  const PrecomputeResult first = precompute(part, partial);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.batches_planned, 2u);

  const PrecomputeResult second = precompute(part, opts);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.batches_resumed, 2u);
  EXPECT_EQ(read_file(part), read_file(ref)) << "resume diverged";
  remove_store(ref);
  remove_store(part);
}

TEST(Precompute, TornJournalTailIsDroppedAndReplanned) {
  const std::string ref = temp_path("torn_ref.hjs");
  const std::string part = temp_path("torn.hjs");
  remove_store(ref);
  remove_store(part);
  PrecomputeOptions opts;
  opts.max_nodes = 24;
  opts.batch_size = 4;
  ASSERT_TRUE(precompute(ref, opts).complete);

  PrecomputeOptions partial = opts;
  partial.max_batches = 2;
  ASSERT_FALSE(precompute(part, partial).complete);
  // Simulate a crash mid-append: a frame header with a payload that never
  // made it to disk.
  std::string torn;
  put_u32(torn, kJournalMagic);
  put_u32(torn, 2);          // the next expected batch index
  put_u64(torn, 100000);     // claims a payload the file does not have
  put_u64(torn, 0);
  append_file_sync(journal_path(part), torn);

  const PrecomputeResult resumed = precompute(part, opts);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.batches_resumed, 2u);
  EXPECT_EQ(resumed.journal_dropped_bytes, torn.size());
  EXPECT_EQ(read_file(part), read_file(ref)) << "torn resume diverged";
  remove_store(ref);
  remove_store(part);
}

TEST(Precompute, StaleJournalFromOtherBudgetIsRebuilt) {
  const std::string path = temp_path("stale.hjs");
  remove_store(path);
  PrecomputeOptions small;
  small.max_nodes = 8;
  small.batch_size = 4;
  small.max_batches = 1;
  ASSERT_FALSE(precompute(path, small).complete);

  // Resume under a different budget: the journal's record keys no longer
  // match the enumeration slice, so its frames must be discarded.
  PrecomputeOptions big;
  big.max_nodes = 16;
  big.batch_size = 4;
  const PrecomputeResult r = precompute(path, big);
  EXPECT_TRUE(r.complete);
  const PlanStore store = PlanStore::open(path);
  EXPECT_EQ(store.record_count(), enumerate_canonical_shapes(16, 3).size());
  remove_store(path);
}

// Satellite 3: the every-byte corruption property. For each byte of a
// small store, truncating there or flipping a bit there must either fail
// open() with an exception, or open a store whose every lookup is
// checksum-verified: Hit with the pristine record's exact bytes, or an
// explicit Corrupt quarantine. Never UB, never silently wrong data.
TEST(StoreCorruption, EveryOffsetTruncationAndBitFlip) {
  const std::string path = temp_path("fuzz.hjs");
  const std::string mut = temp_path("fuzz_mut.hjs");
  remove_store(path);
  PrecomputeOptions opts;
  opts.max_nodes = 6;
  opts.max_rank = 2;
  ASSERT_TRUE(precompute(path, opts).complete);
  const std::string pristine = read_file(path);
  const std::vector<Shape> shapes = enumerate_canonical_shapes(6, 2);

  // Pristine records, for comparing surviving lookups against.
  std::vector<Record> expect;
  {
    const PlanStore store = PlanStore::open(path);
    for (const Shape& s : shapes) {
      const PlanStore::Lookup hit = store.lookup(Key::of(s));
      ASSERT_EQ(hit.status, PlanStore::Status::Hit);
      expect.push_back(hit.record);
    }
  }

  const auto check_mutant = [&](const std::string& bytes, u64* corrupt_out) {
    write_file(mut, bytes);
    u64 corrupt = 0;
    try {
      const PlanStore store = PlanStore::open(mut);
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const PlanStore::Lookup hit = store.lookup(Key::of(shapes[i]));
        switch (hit.status) {
          case PlanStore::Status::Hit:
            // A served record must be byte-identical to the pristine one.
            ASSERT_EQ(hit.record.plan, expect[i].plan);
            ASSERT_EQ(hit.record.emb_text, expect[i].emb_text);
            ASSERT_EQ(hit.record.cube, expect[i].cube);
            ASSERT_EQ(hit.record.dil, expect[i].dil);
            break;
          case PlanStore::Status::Corrupt:
            ASSERT_FALSE(hit.error.empty());
            ++corrupt;
            break;
          case PlanStore::Status::Miss:
            FAIL() << "key vanished: " << shapes[i].to_string();
        }
      }
    } catch (const std::runtime_error&) {
      // Clean open() rejection is an acceptable outcome.
    }
    if (corrupt_out) *corrupt_out = corrupt;
  };

  // Truncation at every offset.
  for (u64 n = 0; n < pristine.size(); ++n)
    check_mutant(pristine.substr(0, n), nullptr);

  // A bit flip at every byte offset. One flipped byte may corrupt at most
  // one record (records do not overlap).
  for (u64 off = 0; off < pristine.size(); ++off) {
    std::string flipped = pristine;
    flipped[off] = static_cast<char>(flipped[off] ^ 0x40);
    u64 corrupt = 0;
    check_mutant(flipped, &corrupt);
    EXPECT_LE(corrupt, 1u) << "offset " << off;
  }
  remove_store(path);
  remove_store(mut);
}

TEST(Serve, WarmColdAndRelabelVerdicts) {
  const std::string path = temp_path("serve.hjs");
  remove_store(path);
  PrecomputeOptions opts;
  opts.max_nodes = 16;
  ASSERT_TRUE(precompute(path, opts).complete);
  const PlanStore store = PlanStore::open(path);
  Server server(&store);

  Reply warm = server.handle(Shape{{2, 3}});
  EXPECT_TRUE(warm.ok);
  EXPECT_EQ(warm.verdict, Verdict::ServedWarm);
  EXPECT_EQ(warm.cube, 3u);

  // Non-canonical axis order: still warm; the relabelled reply inherits
  // the canonical plan's certificate.
  Reply perm = server.handle(Shape{{3, 2}});
  EXPECT_TRUE(perm.ok);
  EXPECT_EQ(perm.verdict, Verdict::ServedWarm);
  EXPECT_NE(perm.plan.find("perm<3x2>"), std::string::npos) << perm.plan;

  // Outside the store budget: live planner, served-cold.
  Reply cold = server.handle(Shape{{5, 7}});
  EXPECT_TRUE(cold.ok);
  EXPECT_EQ(cold.verdict, Verdict::ServedCold);

  // An independent certificate for a reply: the canonical plan from its
  // store record (with that record's own verify() report) or a fresh
  // planner, relabelled to the requested axis order and verified from
  // scratch.
  const auto expected = [&](const Shape& shape) {
    const Shape canon = shape.sorted();
    const PlanStore::Lookup hit = store.lookup(Key::of(canon));
    PlanResult base;
    if (hit.status == PlanStore::Status::Hit) {
      base.embedding = io::from_text(hit.record.emb_text);
      base.report = verify(*base.embedding);
      base.plan = hit.record.plan;
    } else {
      base = Planner().plan(canon);
    }
    return verify(*relabel_plan(base, shape).embedding);
  };
  // Every repeat is served from the certified plan cache (the cold shape
  // included) and carries the same certificate as the first reply.
  const std::pair<Shape, const Reply*> firsts[] = {
      {Shape{{2, 3}}, &warm}, {Shape{{3, 2}}, &perm}, {Shape{{5, 7}}, &cold}};
  for (const auto& [shape, first] : firsts) {
    const Reply again = server.handle(shape);
    ASSERT_TRUE(again.ok) << shape.to_string() << ": " << again.error;
    EXPECT_EQ(again.verdict, Verdict::ServedWarm) << shape.to_string();
    EXPECT_EQ(again.plan, first->plan);
    const VerifyReport r = expected(shape);
    ASSERT_TRUE(r.valid) << shape.to_string();
    for (const Reply* rep : {first, &again}) {
      EXPECT_EQ(rep->cube, r.host_dim) << shape.to_string();
      EXPECT_EQ(rep->dil, r.dilation) << shape.to_string();
      EXPECT_EQ(rep->cong, r.congestion) << shape.to_string();
      EXPECT_EQ(rep->wl, r.wirelength) << shape.to_string();
    }
  }

  const ServeStats st = server.stats();
  EXPECT_EQ(st.requests, 6u);
  EXPECT_EQ(st.warm, 5u);
  EXPECT_EQ(st.cold, 1u);
  EXPECT_EQ(st.errors, 0u);
  remove_store(path);
}

TEST(Serve, CorruptRecordDegradesAndStillAnswers) {
  const std::string path = temp_path("serve_corrupt.hjs");
  remove_store(path);
  PrecomputeOptions opts;
  opts.max_nodes = 12;
  opts.max_rank = 2;
  ASSERT_TRUE(precompute(path, opts).complete);

  // Flip a byte somewhere in the data region (index/superblock flips fail
  // open(), which is the other, louder failure mode).
  std::string bytes = read_file(path);
  {
    const PlanStore probe = PlanStore::open(path);
    const auto [first, last] = probe.data_region();
    ASSERT_LT(first, last);
    const u64 off = first + (last - first) / 2;
    bytes[off] = static_cast<char>(bytes[off] ^ 0xFF);
  }
  write_file(path, bytes);

  const PlanStore store = PlanStore::open(path);
  Server server(&store);
  const std::vector<Shape> shapes = enumerate_canonical_shapes(12, 2);
  u64 degraded = 0;
  for (const Shape& s : shapes) {
    const Reply rep = server.handle(s);
    // The daemon survives: every request is answered with a verified
    // plan, corruption only changes the verdict.
    ASSERT_TRUE(rep.ok) << s.to_string() << ": " << rep.error;
    if (rep.verdict == Verdict::Degraded) ++degraded;
  }
  EXPECT_EQ(degraded, 1u);
  EXPECT_EQ(store.quarantined_count(), 1u);
  EXPECT_EQ(server.stats().degraded, 1u);
  remove_store(path);
}

TEST(Serve, NeverServesAnUncertifiedPlan) {
  // A record whose checksum is intact but whose payload is a plan for a
  // DIFFERENT shape — exactly what a buggy precompute or a malicious
  // store would contain. The serve path must catch it at verification,
  // quarantine, and fall back to the live planner.
  const std::string path = temp_path("lying.hjs");
  remove_store(path);
  Writer w;
  Record lying = make_record(Shape{{2, 2}});
  lying.key = Key::of(Shape{{2, 3}});  // claims to be the 2x3 plan
  w.add(lying);
  atomic_write_file(path, w.finish());

  const PlanStore store = PlanStore::open(path);
  Server server(&store);
  const Reply rep = server.handle(Shape{{2, 3}});
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.verdict, Verdict::Degraded);
  EXPECT_EQ(store.quarantined_count(), 1u);
  // The reply's certificate covers the *requested* shape.
  EXPECT_EQ(rep.cube, 3u);
  remove_store(path);
}

TEST(Serve, NoStoreMeansColdButServed) {
  Server server(nullptr);
  const Reply rep = server.handle(Shape{{3, 5}});
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.verdict, Verdict::ServedCold);
  // The repeat is served from the certified plan cache.
  const Reply memo = server.handle(Shape{{3, 5}});
  EXPECT_TRUE(memo.ok);
  EXPECT_EQ(memo.verdict, Verdict::ServedWarm);
}

TEST(Serve, OversizedRequestIsAnErrorReplyNotACrash) {
  Server server(nullptr);
  const Reply rep = server.handle(Shape{{1u << 14, 1u << 14}});
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("2^26"), std::string::npos) << rep.error;
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(BoundedQueue, ShedsWhenFullAndDrainsOnClose) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3)) << "admission past capacity";
  EXPECT_EQ(q.size(), 2u);
  q.close();
  EXPECT_FALSE(q.try_push(4)) << "admission after close";
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, PopBlocksUntilPush) {
  BoundedQueue<int> q(1);
  std::thread producer([&] { ASSERT_TRUE(q.try_push(42)); });
  EXPECT_EQ(q.pop(), std::optional<int>(42));
  producer.join();
  q.close();
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(RunServe, LineProtocolVerdictsErrorsAndStats) {
  const std::string path = temp_path("proto.hjs");
  remove_store(path);
  PrecomputeOptions opts;
  opts.max_nodes = 16;
  ASSERT_TRUE(precompute(path, opts).complete);
  const PlanStore store = PlanStore::open(path);
  Server server(&store);

  std::istringstream in(
      "3x7\n"
      "  \n"
      "# a comment\n"
      "2 2 2\n"
      "bogus\n"
      "0x4\n"
      "stats\n"
      "quit\n"
      "2x2\n");  // after quit: must not be processed
  std::ostringstream out;
  EXPECT_EQ(run_serve(in, out, server), 0);
  const std::string o = out.str();
  // 3x7 has 21 nodes — outside the 16-node store budget, so a live plan.
  EXPECT_NE(o.find("id=1 verdict=served-cold shape=3x7"), std::string::npos)
      << o;
  EXPECT_NE(o.find("id=2 verdict=served-warm shape=2x2x2"), std::string::npos)
      << o;
  EXPECT_NE(o.find("id=3 error=bad extent 'bogus'"), std::string::npos) << o;
  EXPECT_NE(o.find("id=4 error=bad extent '0'"), std::string::npos) << o;
  EXPECT_NE(o.find("stats requests="), std::string::npos) << o;
  EXPECT_EQ(o.find("id=5"), std::string::npos) << "request after quit served";
  remove_store(path);
}

TEST(RunServe, FloodAccountsEveryRequestOnce) {
  // A two-deep queue and no deadline: the reader outruns the worker, so
  // requests are served warm (in the store), cold (outside its budget)
  // or shed at admission. Every request must land in exactly one of
  // those counts and get exactly one reply line.
  const std::string path = temp_path("flood.hjs");
  remove_store(path);
  PrecomputeOptions popts;
  popts.max_nodes = 16;
  ASSERT_TRUE(precompute(path, popts).complete);
  const PlanStore store = PlanStore::open(path);
  ServeOptions opts;
  opts.queue_cap = 2;
  opts.deadline_us = 0;
  Server server(&store, opts);

  constexpr u64 kRequests = 300;
  const char* shapes[] = {"17x19x23", "2x3", "3x7", "2x2x2", "4x4", "5x9"};
  std::ostringstream reqs;
  for (u64 i = 0; i < kRequests; ++i) reqs << shapes[i % 6] << "\n";
  reqs << "quit\n";
  std::istringstream in(reqs.str());
  std::ostringstream out;
  EXPECT_EQ(run_serve(in, out, server), 0);

  const ServeStats st = server.stats();
  EXPECT_EQ(st.requests, kRequests);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(st.warm + st.cold + st.degraded + st.shed, kRequests);

  std::vector<u32> replies(kRequests + 1, 0);
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    ASSERT_EQ(line.rfind("id=", 0), 0u) << line;
    const u64 id = std::stoull(line.substr(3));
    ASSERT_GE(id, 1u) << line;
    ASSERT_LE(id, kRequests) << line;
    ++replies[id];
  }
  for (u64 id = 1; id <= kRequests; ++id)
    EXPECT_EQ(replies[id], 1u) << "id=" << id;
  remove_store(path);
}

TEST(Serve, PhaseBreakdownAttributesRequestLatency) {
  Server server(nullptr);
  // The caller-measured queue wait is recorded verbatim into the reply
  // and folded into the end-to-end latency.
  const Reply cold = server.handle(Shape{{3, 5}}, /*queue_us=*/123);
  ASSERT_TRUE(cold.ok);
  EXPECT_EQ(cold.phase.queue_us, 123u);
  EXPECT_GE(cold.latency_us, 123u);

  // Cache hit: the lookup phase fires, the live planner does not.
  const Reply memo = server.handle(Shape{{3, 5}});
  ASSERT_TRUE(memo.ok);
  EXPECT_EQ(memo.verdict, Verdict::ServedWarm);
  EXPECT_EQ(memo.phase.queue_us, 0u);

  // The always-on histograms saw every request, independent of HJ_OBS.
  const auto phases = server.phase_snapshot();
  ASSERT_EQ(phases.size(), 5u);
  for (const char* name : {"queue", "lookup", "verify", "plan", "total"})
    ASSERT_EQ(phases.count(name), 1u) << name;
  EXPECT_EQ(phases.at("total").count, 2u);
  EXPECT_EQ(phases.at("queue").count, 2u);
  EXPECT_EQ(phases.at("queue").max, 123u);
  // Bucket-interpolated quantile: within the <2x power-of-two bound and
  // clamped to the observed max.
  EXPECT_GE(phases.at("queue").quantile(0.99), 64u);
  EXPECT_LE(phases.at("queue").quantile(0.99), 123u);
}

TEST(Serve, ReVerifyTimeIsAttributedToTheVerifyPhase) {
  const std::string path = temp_path("phase_verify.hjs");
  remove_store(path);
  PrecomputeOptions opts;
  opts.max_nodes = 16;
  ASSERT_TRUE(precompute(path, opts).complete);
  const PlanStore store = PlanStore::open(path);
  Server server(&store);
  const Reply warm = server.handle(Shape{{2, 3}});
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.verdict, Verdict::ServedWarm);
  // A store hit pays lookup + mandatory re-verify, never the planner.
  EXPECT_EQ(warm.phase.plan_us, 0u);
  EXPECT_EQ(server.phase_snapshot().at("verify").count, 1u);
  remove_store(path);
}

TEST(RunServe, StatsCommandReportsPerPhaseHistograms) {
  Server server(nullptr);
  std::istringstream in("2x3\n3x4\nstats\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve(in, out, server), 0);
  const std::string o = out.str();
  // The live stats command answers with p50/p99/max per phase, computed
  // from the always-on histograms — no restart, no HJ_OBS required.
  // (Counts are not asserted: stats is answered by the reader thread
  // while the worker may still be draining the queue.)
  for (const char* name : {"queue", "lookup", "verify", "plan", "total"}) {
    const std::string head = std::string("phase ") + name + " count=";
    EXPECT_NE(o.find(head), std::string::npos) << name << " in:\n" << o;
  }
  EXPECT_NE(o.find("p50_us="), std::string::npos) << o;
  EXPECT_NE(o.find("p99_us="), std::string::npos) << o;
  EXPECT_NE(o.find("max_us="), std::string::npos) << o;
}

TEST(RunServe, StatsEveryWritesOneLineJsonSnapshots) {
  const std::string snap = temp_path("stats_every.jsonl");
  std::remove(snap.c_str());
  ServeOptions opts;
  opts.stats_every = 2;
  opts.stats_out = snap;
  Server server(nullptr, opts);
  std::istringstream in("2x2\n2x3\n2x4\n3x3\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve(in, out, server), 0);

  std::ifstream is(snap);
  ASSERT_TRUE(is.good()) << snap;
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  // 4 processed requests at stats_every=2 -> exactly 2 snapshots, each a
  // self-contained flat JSON object (the `tail -1 | jq` monitoring
  // contract from the README).
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find("\"requests\":"), std::string::npos) << l;
    EXPECT_NE(l.find("\"total_p99_us\":"), std::string::npos) << l;
  }
  EXPECT_NE(lines[1].find("\"requests\":4"), std::string::npos) << lines[1];
  std::remove(snap.c_str());
}

TEST(RunServe, ObsSessionRegistersNoServeMetrics) {
#ifndef HJ_DISABLE_OBS
  // The Server's own counters and phase histograms are the only record
  // of serve verdicts and latency: an HJ_OBS session mirrors none of it
  // into the global registry.
  const bool was_on = obs::enabled();
  obs::set_enabled(true);
  Server server(nullptr);
  std::istringstream in("2x3\n3x2\nstats\nquit\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve(in, out, server), 0);
  server.note_shed();
  obs::set_enabled(was_on);
  EXPECT_EQ(server.stats().requests, 3u);
  EXPECT_EQ(server.phase_snapshot().at("total").count, 2u);

  const obs::Registry::Snapshot snap = obs::Registry::global().snapshot();
  const auto no_serve_names = [](const auto& metrics) {
    for (const auto& entry : metrics)
      EXPECT_NE(entry.first.rfind("serve.", 0), 0u) << entry.first;
  };
  no_serve_names(snap.counters);
  no_serve_names(snap.gauges);
  no_serve_names(snap.histograms);
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

}  // namespace
}  // namespace hj::store
