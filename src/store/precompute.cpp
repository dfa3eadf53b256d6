#include "store/precompute.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "core/io.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"
#include "store/writer.hpp"

namespace hj::store {
namespace {

/// Enumerate ascending extent tuples of exactly `rank` axes with product
/// <= max_nodes, lexicographically, smallest axis first.
void enumerate_rank(u32 rank, u64 max_nodes, SmallVec<u64, 4>& prefix,
                    u64 product, std::vector<Shape>& out) {
  if (prefix.size() == rank) {
    out.push_back(Shape{prefix});
    return;
  }
  const u64 lo = prefix.empty() ? 1 : prefix[prefix.size() - 1];
  for (u64 e = lo; product <= max_nodes / e; ++e) {
    prefix.push_back(e);
    enumerate_rank(rank, max_nodes, prefix, product * e, out);
    prefix.pop_back();
    if (e == max_nodes)  // guard the u64 loop against wrap at huge budgets
      break;
  }
}

struct JournalScan {
  u64 valid_bytes = 0;
  u64 batches = 0;
  std::vector<Record> records;  // decoded, in enumeration order
};

/// Walk the journal's batch frames, stopping at the first torn or
/// inconsistent frame. Frames must be sequentially numbered from 0 and
/// each record key must match the enumeration slice the frame covers.
JournalScan scan_journal(const std::string& path,
                         const std::vector<Shape>& shapes, u32 batch_size) {
  JournalScan scan;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return scan;
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const u64 size = bytes.size();
  u64 off = 0;
  while (off + kJournalHeaderBytes <= size) {
    if (get_u32(p + off) != kJournalMagic) break;
    const u32 batch_index = get_u32(p + off + 4);
    const u64 payload_bytes = get_u64(p + off + 8);
    const u64 payload_sum = get_u64(p + off + 16);
    if (batch_index != scan.batches) break;
    if (payload_bytes > size - off - kJournalHeaderBytes) break;
    const unsigned char* payload = p + off + kJournalHeaderBytes;
    if (fnv1a(payload, payload_bytes) != payload_sum) break;
    // Decode the frame's records and pin them to the enumeration slice.
    const u64 first = u64{batch_index} * batch_size;
    std::vector<Record> frame;
    u64 rec_off = 0;
    bool ok = first < shapes.size();
    while (ok && rec_off < payload_bytes) {
      Record r;
      u64 total = 0;
      if (!decode_record(payload + rec_off, payload_bytes - rec_off, &r,
                         &total, nullptr)) {
        ok = false;
        break;
      }
      const u64 i = first + frame.size();
      if (i >= shapes.size() || r.key != Key::of(shapes[i])) {
        ok = false;
        break;
      }
      frame.push_back(std::move(r));
      rec_off += total;
    }
    const u64 expect =
        std::min<u64>(batch_size, shapes.size() - std::min(first, shapes.size()));
    if (!ok || frame.size() != expect) break;
    for (Record& r : frame) scan.records.push_back(std::move(r));
    scan.batches += 1;
    off += kJournalHeaderBytes + payload_bytes;
  }
  scan.valid_bytes = off;
  return scan;
}

void truncate_file(const std::string& path, u64 bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0)
    throw std::runtime_error("plan store journal '" + path +
                             "': truncate failed");
}

/// Crash-injection hooks (see the header). Parsed once per precompute().
struct KillPlan {
  u64 after_batches = 0;  // 0 = disabled
  u64 torn_bytes = u64(-1);
};

KillPlan read_kill_plan() {
  KillPlan k;
  if (const char* e = std::getenv("HJ_STORE_KILL_AFTER_BATCHES"))
    k.after_batches = std::strtoull(e, nullptr, 10);
  if (const char* e = std::getenv("HJ_STORE_TORN_BYTES"))
    k.torn_bytes = std::strtoull(e, nullptr, 10);
  return k;
}

}  // namespace

std::vector<Shape> enumerate_canonical_shapes(u64 max_nodes, u32 max_rank) {
  require(max_nodes >= 1 && max_nodes <= (u64{1} << 26),
          "precompute: max_nodes must be in [1, 2^26]");
  require(max_rank >= 1 && max_rank <= kMaxRank,
          "precompute: max_rank must be in [1, %u]", kMaxRank);
  std::vector<Shape> out;
  SmallVec<u64, 4> prefix;
  for (u32 rank = 1; rank <= max_rank; ++rank)
    enumerate_rank(rank, max_nodes, prefix, 1, out);
  return out;
}

std::string journal_path(const std::string& store_path) {
  return store_path + ".ckpt";
}

PrecomputeResult precompute(const std::string& store_path,
                            const PrecomputeOptions& opts,
                            const DirectProviderFactory& provider_factory) {
  require(opts.batch_size >= 1, "precompute: batch_size must be >= 1");
  const std::vector<Shape> shapes =
      enumerate_canonical_shapes(opts.max_nodes, opts.max_rank);

  PrecomputeResult res;
  res.shapes_total = shapes.size();
  res.batches_total =
      (shapes.size() + opts.batch_size - 1) / opts.batch_size;
  const std::string journal = journal_path(store_path);

  // Idempotence fast path: an existing store holding exactly this
  // budget's keys is already the converged artifact.
  try {
    const PlanStore existing = PlanStore::open(store_path);
    if (existing.record_count() == shapes.size()) {
      bool same = true;
      // Store keys are sorted; compare against the sorted enumeration.
      std::vector<Key> expect;
      expect.reserve(shapes.size());
      for (const Shape& s : shapes) expect.push_back(Key::of(s));
      std::sort(expect.begin(), expect.end());
      for (u64 i = 0; same && i < shapes.size(); ++i)
        same = existing.key_at(i) == expect[i];
      if (same) {
        std::remove(journal.c_str());
        res.batches_resumed = res.batches_total;
        res.complete = true;
        return res;
      }
    }
  } catch (const std::exception&) {
    // Missing or invalid store: (re)build from the journal.
  }

  // Recover the journal's valid prefix; drop any torn tail.
  JournalScan scan = scan_journal(journal, shapes, opts.batch_size);
  {
    std::ifstream is(journal, std::ios::binary | std::ios::ate);
    if (is.good()) {
      const u64 actual = static_cast<u64>(is.tellg());
      if (actual > scan.valid_bytes) {
        res.journal_dropped_bytes = actual - scan.valid_bytes;
        truncate_file(journal, scan.valid_bytes);
      }
    }
  }
  res.batches_resumed = scan.batches;
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("store.precompute.batches_resumed", obs::Kind::Timing)
        .add(scan.batches);
  }
  // Serial driver, so these are Deterministic events: for a given
  // journal state the resume/torn-tail stream is byte-identical.
  if (obs::events_on()) {
    if (res.journal_dropped_bytes > 0)
      obs::Event("store.precompute.torn_tail", obs::Kind::Deterministic,
                 obs::Severity::Warn, "store")
          .kv("dropped_bytes", res.journal_dropped_bytes)
          .kv("valid_batches", scan.batches)
          .emit();
    obs::Event("store.precompute.resume", obs::Kind::Deterministic,
               obs::Severity::Info, "store")
        .kv("batches_resumed", scan.batches)
        .kv("batches_total", res.batches_total)
        .kv("shapes_total", res.shapes_total)
        .emit();
  }

  const KillPlan kill = read_kill_plan();
  ShardedPlanCache cache;

  // Plan and append the remaining batches.
  for (u64 b = scan.batches; b < res.batches_total; ++b) {
    if (opts.max_batches && res.batches_planned >= opts.max_batches)
      return res;  // simulated crash for tests: journal is consistent
    const u64 first = b * opts.batch_size;
    const u64 last = std::min<u64>(first + opts.batch_size, shapes.size());
    const std::vector<Shape> slice(shapes.begin() + static_cast<i64>(first),
                                   shapes.begin() + static_cast<i64>(last));
    const std::vector<PlanResult> plans =
        plan_batch(slice, opts.planner, provider_factory, &cache);

    std::string payload;
    for (u64 i = 0; i < plans.size(); ++i) {
      Record r;
      r.key = Key::of(slice[i]);
      r.cube = plans[i].report.host_dim;
      r.dil = plans[i].report.dilation;
      r.plan = plans[i].plan;
      r.emb_text = io::to_text(*plans[i].embedding);
      encode_record(payload, r);
      scan.records.push_back(std::move(r));
    }
    std::string frame;
    frame.reserve(kJournalHeaderBytes + payload.size());
    put_u32(frame, kJournalMagic);
    put_u32(frame, static_cast<u32>(b));
    put_u64(frame, payload.size());
    put_u64(frame, fnv1a(payload));
    frame += payload;

    if (kill.after_batches && res.batches_planned + 1 == kill.after_batches &&
        kill.torn_bytes != u64(-1)) {
      // Torn-write injection: append a prefix of the frame, then die.
      append_file_sync(journal, frame.substr(
          0, std::min<u64>(kill.torn_bytes, frame.size())));
      std::raise(SIGKILL);
    }
    append_file_sync(journal, frame);
    res.batches_planned += 1;
    if (obs::enabled())
      obs::Registry::global()
          .counter("store.precompute.batches_planned", obs::Kind::Timing)
          .add();
    if (obs::events_on())
      obs::Event("store.precompute.batch", obs::Kind::Deterministic,
                 obs::Severity::Info, "store")
          .kv("batch", b)
          .kv("shapes", last - first)
          .kv("checkpointed_bytes", static_cast<u64>(frame.size()))
          .emit();
    if (kill.after_batches && res.batches_planned == kill.after_batches)
      std::raise(SIGKILL);
  }

  // Assemble and atomically publish the store, then retire the journal.
  Writer w;
  for (Record& r : scan.records) w.add(std::move(r));
  atomic_write_file(store_path, w.finish());
  std::remove(journal.c_str());
  res.complete = true;
  if (obs::events_on())
    obs::Event("store.precompute.published", obs::Kind::Deterministic,
               obs::Severity::Info, "store")
        .kv("records", res.shapes_total)
        .kv("batches_planned", res.batches_planned)
        .kv("batches_resumed", res.batches_resumed)
        .emit();
  return res;
}

}  // namespace hj::store
