// perfbench driver: shared pieces of the three workloads.
//
// Everything here measures the library from outside: wall-clock timing
// around calls into its public functions, the benchmark's own in-memory
// span log, forked set-up timing, and a counting wrapper around the
// search DirectProvider factory. Nothing here reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/planner.hpp"

namespace perfbench {

using hj::u32;
using hj::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline u64 now_ns() noexcept {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now().time_since_epoch())
                              .count());
}

[[nodiscard]] inline double secs(u64 ns) noexcept {
  return static_cast<double>(ns) * 1e-9;
}

/// splitmix64 finaliser: derives independent seeds from (seed, index).
[[nodiscard]] u64 mix(u64 a, u64 b) noexcept;

/// Nearest-rank percentile (p in [0,1]) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Flat JSON object builder (keys are emitted in insertion order).
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& str(const std::string& key, const std::string& v);
  Json& flag(const std::string& key, bool v);
  /// `json` must already be a valid JSON value.
  Json& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

[[nodiscard]] std::string json_quote(const std::string& s);

/// One span of the benchmark's own trace: a timed call into a library
/// layer. `parent` is the enclosing span on the same thread (0 = root)
/// and `req` the request/work-unit id the span belongs to.
struct Span {
  const char* name = "";
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 id = 0;
  u64 parent = 0;
  u64 req = 0;
};

/// In-memory span store, written out once when the run ends. Recording
/// is off unless the run is traced.
class SpanLog {
 public:
  static SpanLog& get();
  void set_on(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const noexcept {
    return on_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 next_id() noexcept {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(const Span& s);
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<u64> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span around one call. Nested spans on a thread link to their
/// parent; `req` = 0 inherits the parent's request id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, u64 req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span s_;
  bool active_ = false;
  u64 saved_parent_ = 0;
  u64 saved_req_ = 0;
};

/// Calls, successes and time of every search-provider invocation made
/// through counted_search_provider().
struct ProviderStats {
  std::atomic<u64> calls{0};
  std::atomic<u64> hits{0};
  std::atomic<u64> ns{0};
};

/// The CLI's search DirectProvider factory, wrapped to count calls, time
/// them and record a "search.provider" span per call.
[[nodiscard]] hj::DirectProviderFactory counted_search_provider(
    ProviderStats& stats);

/// Time `setup` in `forks` freshly forked child processes (each starts
/// cold: no pool threads, memo or cache) and return the wall seconds of
/// each. Must be called before this process starts any thread. Throws
/// if a child fails.
[[nodiscard]] std::vector<double> forked_setup_seconds(
    const std::function<void(const std::string& tag)>& setup, u32 forks);

struct RunContext {
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for store files (inside the build tree).
  std::string tmp;
};

/// What a workload hands back to main(). `e2e` holds the end-to-end
/// metrics, `samples` their sample counts, `extra` workload detail and
/// per-layer inputs.
struct RunResult {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
  Json e2e;
  Json samples;
  Json extra;

  void fail(u64 n, const std::string& why) {
    failed += n;
    if (errors.size() < 20) errors.push_back(why);
  }
};

[[nodiscard]] RunResult run_serve_zipf(const RunContext& ctx);
[[nodiscard]] RunResult run_plan_batch(const RunContext& ctx);
[[nodiscard]] RunResult run_storm_recover(const RunContext& ctx);

}  // namespace perfbench
