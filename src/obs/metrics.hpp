// hjembed: the metrics registry — named counters, gauges and fixed-bucket
// histograms behind every "where does that number come from" question the
// paper's quantitative claims raise at runtime (cache hit rates, dedup
// effectiveness, per-link utilization, per-rung repair cost).
//
// Determinism contract. Metrics carry a Kind:
//
//   * Deterministic — the recorded multiset of observations is a pure
//     function of the workload (plan_batch dedup counts, result dilation
//     histograms, simulator link loads). Counters and histogram buckets
//     are unsigned integers and merging per-thread shards is addition,
//     which commutes, so aggregates are bit-identical at every HJ_THREADS
//     setting — the same guarantee par::parallel_reduce gives results.
//   * Timing — wall-clock durations and scheduling-dependent counts
//     (cache hits depend on which worker published first). Sharded and
//     merged the same way, but the observations themselves vary run to
//     run; excluded from Snapshot comparisons keyed on Deterministic.
//
// Concurrency: every metric is sharded across kSlots cells indexed by a
// per-thread ordinal, so parallel-engine workers touching the same
// counter do not contend on one cache line. All operations are lock-free
// relaxed atomics; the registry map itself is mutex-protected, so hot
// call sites should cache the returned reference (handles stay valid for
// the registry's lifetime — reset() zeroes values, never unregisters).
//
// Cost model: everything is gated behind obs::enabled() (the HJ_OBS=1
// environment variable or set_enabled()); a disabled hook is one relaxed
// atomic load and a predictable branch. Defining HJ_DISABLE_OBS for the
// whole build makes enabled() constexpr false, so every guarded hook is
// dead-code-eliminated.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/common.hpp"

namespace hj::obs {

/// Runtime gate. True when HJ_OBS=1 is in the environment or
/// set_enabled(true) was called (the CLI --metrics-out/--trace-out flags
/// and the `stats` subcommand do this). Compile-time: HJ_DISABLE_OBS
/// pins it to false so instrumentation folds away entirely.
#ifdef HJ_DISABLE_OBS
[[nodiscard]] inline constexpr bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
#else
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;
#endif

/// Microseconds since the process's observability epoch (first call).
/// Shared clock of trace spans, event timestamps and chunk timings.
[[nodiscard]] u64 now_us() noexcept;

/// `s` with every '"' and '\\' backslash-escaped: the string escaping
/// shared by the registry, trace and recovery-log JSON exports.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Small dense per-thread ordinal (0, 1, 2, ... in first-use order);
/// also the trace `tid`. Stable for the thread's lifetime.
[[nodiscard]] u32 thread_ordinal() noexcept;

enum class Kind : u8 { Deterministic, Timing };

[[nodiscard]] const char* kind_name(Kind k) noexcept;

namespace detail {

inline constexpr u32 kSlots = 16;  // power of two; see slot()

[[nodiscard]] inline u32 slot() noexcept {
  return thread_ordinal() & (kSlots - 1);
}

/// One cache line per shard cell so concurrent writers do not false-share.
struct alignas(64) Cell {
  std::atomic<u64> v{0};
};

[[nodiscard]] inline u64 sum_cells(
    const std::array<Cell, kSlots>& cells) noexcept {
  u64 total = 0;
  for (const Cell& c : cells) total += c.v.load(std::memory_order_relaxed);
  return total;
}

inline void zero_cells(std::array<Cell, kSlots>& cells) noexcept {
  for (Cell& c : cells) c.v.store(0, std::memory_order_relaxed);
}

}  // namespace detail

/// Monotone event count. add() is wait-free; value() sums the shards
/// (u64 addition commutes: order-independent, hence deterministic for
/// Deterministic-kind observation sets).
class Counter {
 public:
  explicit Counter(Kind kind) noexcept : kind_(kind) {}

  void add(u64 n = 1) noexcept {
    cells_[detail::slot()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] u64 value() const noexcept {
    return detail::sum_cells(cells_);
  }
  void reset() noexcept { detail::zero_cells(cells_); }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
  std::array<detail::Cell, detail::kSlots> cells_;
};

/// Last-written point-in-time value (cache sizes, configured thread
/// counts). Not sharded: a gauge is a statement, not an accumulation, and
/// concurrent setters should be avoided by the instrumentation site.
class Gauge {
 public:
  explicit Gauge(Kind kind) noexcept : kind_(kind) {}

  void set(i64 v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] i64 value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
  std::atomic<i64> v_{0};
};

/// Aggregated histogram state, comparable across runs and thread counts.
struct HistogramSnapshot {
  u64 count = 0;
  u64 sum = 0;
  u64 max = 0;
  std::vector<u64> buckets;  // one entry per Histogram bucket

  /// Approximate quantile (q in [0,1]) reconstructed from the bucket
  /// counts: find the bucket holding the q-th sample, interpolate
  /// linearly inside its [lo, 2*lo) range, and clamp to the observed
  /// max. Power-of-two buckets bound the error at <2x, tight enough for
  /// the p50/p99 stats surfaces; exact sample quantiles come from
  /// obs::percentile below.
  [[nodiscard]] u64 quantile(double q) const noexcept;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Exact nearest-rank percentile of raw samples (p in [0,1]): the
/// sample of 1-based rank ceil(p·n), 0 for no samples; sorts a copy.
/// bench/exp_serve's latency rows use it.
[[nodiscard]] u64 percentile(std::vector<u64> samples, double p) noexcept;

/// Fixed power-of-two-bucket histogram of u64 samples. Bucket 0 counts
/// v == 0; bucket i (1 <= i < kBuckets-1) counts v in [2^(i-1), 2^i);
/// the last bucket absorbs the overflow tail. Fixed bounds keep bucket
/// assignment a pure function of the sample, so merged bucket counts are
/// bit-identical at every thread count (the determinism contract above).
class Histogram {
 public:
  static constexpr u32 kBuckets = 34;

  explicit Histogram(Kind kind) noexcept : kind_(kind) {}

  [[nodiscard]] static u32 bucket_of(u64 v) noexcept {
    if (v == 0) return 0;
    return std::min(log2_floor(v) + 1, kBuckets - 1);
  }
  /// Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static u64 bucket_lo(u32 i) noexcept {
    return i == 0 ? 0 : u64{1} << (i - 1);
  }

  void observe(u64 v) noexcept {
    const u32 s = detail::slot();
    buckets_[bucket_of(v)][s].v.fetch_add(1, std::memory_order_relaxed);
    count_[s].v.fetch_add(1, std::memory_order_relaxed);
    sum_[s].v.fetch_add(v, std::memory_order_relaxed);
    // max merges with max(), which also commutes.
    u64 seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] u64 count() const noexcept {
    return detail::sum_cells(count_);
  }
  [[nodiscard]] u64 sum() const noexcept { return detail::sum_cells(sum_); }
  [[nodiscard]] u64 max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 bucket(u32 i) const noexcept {
    return detail::sum_cells(buckets_[i]);
  }
  [[nodiscard]] double mean() const noexcept {
    const u64 n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset() noexcept;
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
  std::array<std::array<detail::Cell, detail::kSlots>, kBuckets> buckets_;
  std::array<detail::Cell, detail::kSlots> count_;
  std::array<detail::Cell, detail::kSlots> sum_;
  std::atomic<u64> max_{0};
};

/// Name -> metric directory. Registration is idempotent (the first kind
/// wins and a conflicting re-registration throws); returned references
/// stay valid for the registry's lifetime, so call sites may cache them.
class Registry {
 public:
  static Registry& global();

  [[nodiscard]] Counter& counter(const std::string& name,
                                 Kind kind = Kind::Deterministic);
  [[nodiscard]] Gauge& gauge(const std::string& name,
                             Kind kind = Kind::Deterministic);
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     Kind kind = Kind::Deterministic);

  /// Zero every value; registrations (and cached handles) survive.
  void reset();

  /// Point-in-time copy of every aggregate, optionally restricted to one
  /// kind. Snapshot equality over Kind::Deterministic is the property the
  /// determinism suite asserts across HJ_THREADS 1/2/8.
  struct Snapshot {
    std::map<std::string, u64> counters;
    std::map<std::string, i64> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };
  [[nodiscard]] Snapshot snapshot(
      std::optional<Kind> only = std::nullopt) const;

  /// Deterministic JSON document (names sorted; histogram buckets emitted
  /// up to the last nonzero). The hj_embed --metrics-out payload.
  [[nodiscard]] std::string to_json() const;

  /// Human-readable run summary with ASCII bucket bars (hj_embed stats).
  [[nodiscard]] std::string summary() const;

 private:
  template <class M>
  M& intern(std::map<std::string, std::unique_ptr<M>>& map,
            const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hj::obs
