#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace hj::obs {

namespace {

#ifndef HJ_DISABLE_OBS
bool env_enabled() {
  const char* v = std::getenv("HJ_OBS");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> f{env_enabled()};
  return f;
}
#endif

/// Buckets up to the last nonzero one, as a JSON array of
/// [lower_bound, count] pairs (self-describing, viewer-friendly).
void append_buckets_json(std::ostringstream& os, const HistogramSnapshot& h) {
  u32 last = 0;
  for (u32 i = 0; i < h.buckets.size(); ++i)
    if (h.buckets[i]) last = i + 1;
  os << "[";
  for (u32 i = 0; i < last; ++i) {
    if (i) os << ", ";
    os << "[" << Histogram::bucket_lo(i) << ", " << h.buckets[i] << "]";
  }
  os << "]";
}

}  // namespace

#ifndef HJ_DISABLE_OBS
bool enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}
#endif

u64 now_us() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - epoch)
                              .count());
}

u32 thread_ordinal() noexcept {
  static std::atomic<u32> next{0};
  thread_local const u32 id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

const char* kind_name(Kind k) noexcept {
  return k == Kind::Deterministic ? "deterministic" : "timing";
}

u64 HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (nearest-rank on the cumulative counts).
  const u64 rank = static_cast<u64>(q * static_cast<double>(count - 1) + 0.5);
  u64 seen = 0;
  for (u32 i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] > rank) {
      if (i == 0) return 0;
      const u64 lo = Histogram::bucket_lo(i);
      // Interpolate the rank's position inside the [lo, 2*lo) bucket.
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(buckets[i]);
      const u64 est = lo + static_cast<u64>(frac * static_cast<double>(lo));
      return std::min(est, max);
    }
    seen += buckets[i];
  }
  return max;
}

u64 percentile(std::vector<u64> samples, double p) noexcept {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p·n samples at or
  // below it, i.e. 1-based rank ceil(p·n).
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.count = count();
  out.sum = sum();
  out.max = max();
  out.buckets.resize(kBuckets);
  for (u32 i = 0; i < kBuckets; ++i) out.buckets[i] = bucket(i);
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) detail::zero_cells(b);
  detail::zero_cells(count_);
  detail::zero_cells(sum_);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

template <class M>
M& Registry::intern(std::map<std::string, std::unique_ptr<M>>& map,
                    const std::string& name, Kind kind) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(name, std::make_unique<M>(kind)).first;
  else
    require(it->second->kind() == kind,
            "obs::Registry: metric '%s' re-registered as %s (was %s)",
            name.c_str(), kind_name(kind), kind_name(it->second->kind()));
  return *it->second;
}

Counter& Registry::counter(const std::string& name, Kind kind) {
  return intern(counters_, name, kind);
}

Gauge& Registry::gauge(const std::string& name, Kind kind) {
  return intern(gauges_, name, kind);
}

Histogram& Registry::histogram(const std::string& name, Kind kind) {
  return intern(histograms_, name, kind);
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry::Snapshot Registry::snapshot(std::optional<Kind> only) const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot out;
  for (const auto& [name, c] : counters_)
    if (!only || c->kind() == *only) out.counters[name] = c->value();
  for (const auto& [name, g] : gauges_)
    if (!only || g->kind() == *only) out.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_)
    if (!only || h->kind() == *only) out.histograms[name] = h->snapshot();
  return out;
}

std::string Registry::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": {\"value\": " << c->value() << ", \"kind\": \""
       << kind_name(c->kind()) << "\"}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": {\"value\": " << g->value() << ", \"kind\": \""
       << kind_name(g->kind()) << "\"}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": {\"kind\": \"" << kind_name(h->kind())
       << "\", \"count\": " << s.count << ", \"sum\": " << s.sum
       << ", \"max\": " << s.max << ", \"buckets\": ";
    append_buckets_json(os, s);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string Registry::summary() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  if (!counters_.empty()) {
    os << "counters:\n";
    for (const auto& [name, c] : counters_) {
      char line[128];
      std::snprintf(line, sizeof line, "  %-34s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(c->value()));
      os << line;
    }
  }
  if (!gauges_.empty()) {
    os << "gauges:\n";
    for (const auto& [name, g] : gauges_) {
      char line[128];
      std::snprintf(line, sizeof line, "  %-34s %12lld\n", name.c_str(),
                    static_cast<long long>(g->value()));
      os << line;
    }
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    if (s.count == 0) continue;
    char head[200];
    std::snprintf(head, sizeof head,
                  "%s: count=%llu mean=%.1f p50=%llu p99=%llu max=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  h->mean(),
                  static_cast<unsigned long long>(s.quantile(0.50)),
                  static_cast<unsigned long long>(s.quantile(0.99)),
                  static_cast<unsigned long long>(s.max));
    os << head;
    u64 tallest = 1;
    for (u64 b : s.buckets) tallest = std::max(tallest, b);
    for (u32 i = 0; i < s.buckets.size(); ++i) {
      if (!s.buckets[i]) continue;
      const u32 bar =
          static_cast<u32>((s.buckets[i] * 40 + tallest - 1) / tallest);
      char lo[32];
      if (i == 0)
        std::snprintf(lo, sizeof lo, "0");
      else
        std::snprintf(lo, sizeof lo, ">=%llu",
                      static_cast<unsigned long long>(
                          Histogram::bucket_lo(i)));
      char line[128];
      std::snprintf(line, sizeof line, "  %-10s %10llu |", lo,
                    static_cast<unsigned long long>(s.buckets[i]));
      os << line << std::string(bar, '#') << "\n";
    }
  }
  return os.str();
}

}  // namespace hj::obs
