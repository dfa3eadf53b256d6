// hjembed plan store: the hardened serve loop.
//
// Server answers "embed this mesh" requests from a precomputed PlanStore,
// falling back to the live planner whenever the store cannot help, and
// NEVER serves an uncertified plan: every embedding loaded from disk is
// re-verified with verify() before its first use (then cached with that
// certificate), and a record that fails parsing or verification is
// quarantined in the store — one corrupt record degrades one shape, not
// the daemon. Every reply carries an explicit verdict:
//
//   served-warm  store hit or cache hit; certificate from a verified
//                store/cached plan (a permuted request inherits it).
//   served-cold  store miss (or no store attached); planned live.
//   degraded     store record was corrupt or failed verification; the
//                record was quarantined and the reply planned live.
//   shed         the request was refused under overload: the bounded
//                queue was full at admission, or its per-request deadline
//                expired before a worker picked it up.
//
// run_serve() wires Server to a line-oriented stdin/stdout protocol
// (`hj_embed serve`): one request per line ("3x5x7" or "3 5 7"), plus
// "stats" and "quit"; replies are single `id=N ...` lines, so a client
// can correlate out-of-order completions.
//
// Telemetry (DESIGN.md §14). Every reply carries a per-phase latency
// breakdown (queue wait / cache+store lookup / re-verify / live plan),
// the Server keeps ALWAYS-ON per-phase histograms (relaxed atomics, no
// obs gate) so the live `stats` protocol command reports p50/p99/max
// per phase from a running daemon, and run_serve emits structured
// events (serve.request / serve.reply / serve.shed) into the event log
// + flight recorder so a crashed daemon's postmortem names the
// in-flight request. `--stats-every=N` additionally emits a one-line
// JSON snapshot every N processed requests. The per-server histograms
// are the only copy of these latencies: nothing is mirrored into the
// global metrics registry.
#pragma once

#include <condition_variable>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "core/planner.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"

namespace hj::store {

enum class Verdict : u8 { ServedWarm, ServedCold, Degraded, Shed };

/// Wire name of a verdict: "served-warm", "served-cold", "degraded",
/// "shed".
[[nodiscard]] const char* verdict_name(Verdict v) noexcept;

struct ServeOptions {
  /// Per-request deadline: a queued request older than this is shed
  /// instead of processed. 0 disables the deadline.
  u64 deadline_us = 100000;
  /// Bounded admission queue capacity; a full queue sheds at admission.
  u64 queue_cap = 64;
  /// Emit a one-line JSON stats snapshot every N worker-processed
  /// requests (0 disables), to `stats_out` (appended) or stderr when
  /// empty — the daemon is monitorable without restart.
  u64 stats_every = 0;
  std::string stats_out;
  PlannerOptions planner;
};

/// Where a request's latency went, in microseconds. queue_us is the
/// admission-to-pop wait (run_serve fills it; direct handle() callers
/// may pass their own); the rest are attributed inside handle():
/// lookup_us = cache probe + store index lookup, verify_us = record
/// re-parse + verify() (a permuted request adds none), plan_us = planner.
struct PhaseUs {
  u64 queue_us = 0;
  u64 lookup_us = 0;
  u64 verify_us = 0;
  u64 plan_us = 0;
};

struct Reply {
  Verdict verdict = Verdict::ServedCold;
  bool ok = false;
  std::string error;  ///< set when !ok (invalid request, planner failure)
  u32 cube = 0;
  u32 dil = 0;
  u32 cong = 0;
  u64 wl = 0;
  std::string plan;
  u64 latency_us = 0;
  PhaseUs phase;
};

/// Point-in-time serve counters (monotone; snapshot via Server::stats()).
struct ServeStats {
  u64 requests = 0;
  u64 warm = 0;
  u64 cold = 0;
  u64 degraded = 0;
  u64 shed = 0;
  u64 errors = 0;
};

/// The serve engine. Thread-safe: handle() may be called concurrently
/// (cache probes take a shard's shared lock, the live planner is
/// mutex-protected, store lookups are lock-free).
class Server {
 public:
  /// `store` may be null (pure live-planner serving); when given it must
  /// outlive the server.
  explicit Server(const PlanStore* store, ServeOptions opts = {},
                  const DirectProviderFactory& provider_factory = nullptr);

  /// Answer one request. Never throws: failures come back as !ok replies.
  /// `queue_us` is the caller-measured admission wait, recorded into the
  /// reply's phase breakdown and the queue-phase histogram.
  [[nodiscard]] Reply handle(const Shape& shape, u64 queue_us = 0);

  /// Record an admission-time shed (run_serve calls this; handle() never
  /// sheds on its own).
  void note_shed();

  [[nodiscard]] ServeStats stats() const;

  /// Always-on per-phase latency histograms ("queue", "lookup",
  /// "verify", "plan", "total"), independent of obs::enabled() — the
  /// live `stats` protocol command and --stats-every snapshots answer
  /// from these without restarting the daemon.
  [[nodiscard]] std::map<std::string, obs::HistogramSnapshot>
  phase_snapshot() const;

  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }
  [[nodiscard]] const PlanStore* plan_store() const noexcept { return store_; }

 private:
  /// Verified canonical plan, certificate included, via cache -> store ->
  /// live planner. `verdict` is set to the rung that produced it;
  /// lookup/verify/plan time is accumulated into `ph`.
  [[nodiscard]] PlanCacheEntry canonical_plan(const Shape& canon,
                                              Verdict& verdict, PhaseUs& ph);

  const PlanStore* store_;
  ServeOptions opts_;
  // Verified canonical plans. Store records stay out of planner_'s
  // sub-plan cache: a record is not a pure function of its key.
  ShardedPlanCache certified_;
  std::mutex mu_;  // guards planner_
  Planner planner_;
  mutable std::mutex stats_mu_;
  ServeStats stats_;
  obs::Histogram phase_queue_{obs::Kind::Timing};
  obs::Histogram phase_lookup_{obs::Kind::Timing};
  obs::Histogram phase_verify_{obs::Kind::Timing};
  obs::Histogram phase_plan_{obs::Kind::Timing};
  obs::Histogram phase_total_{obs::Kind::Timing};
};

/// Bounded MPMC admission queue: try_push() refuses (returns false) when
/// full — load shedding is explicit, never blocking — and pop() blocks
/// until an item or close(). Exposed so the shed paths are unit-testable
/// deterministically.
template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(u64 cap) : cap_(cap ? cap : 1) {}

  [[nodiscard]] bool try_push(T v) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_ || q_.size() >= cap_) return false;
      q_.push_back(std::move(v));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and
  /// drained (nullopt).
  [[nodiscard]] std::optional<T> pop() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return std::nullopt;
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] u64 size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
  u64 cap_;
  bool closed_ = false;
};

/// Drive `server` from a line-oriented request stream until EOF or
/// "quit". Requests are admitted through a BoundedQueue sized by
/// server.options().queue_cap and processed by one worker thread;
/// admission overflow and deadline expiry produce `verdict=shed` lines.
/// Returns 0 (protocol-level problems are per-request `error=` replies,
/// not process failures). Throws std::invalid_argument, before reading
/// any request, when the options' stats_out file cannot be opened.
int run_serve(std::istream& in, std::ostream& out, Server& server);

}  // namespace hj::store
