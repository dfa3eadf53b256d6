// hjembed: structured trace spans in Chrome trace_event format.
//
// HJ_SPAN("plan") opens a span that closes when the scope exits; spans on
// the same thread nest by time containment, which is exactly how
// about:tracing / Perfetto reconstruct parent/child relationships from
// "X" (complete) events. A full plan_batch — factor search — verify
// pipeline or a run_stencil_with_recovery detect/diagnose/repair epoch
// therefore renders as a flame graph with no extra bookkeeping.
//
// Recording model: a span measures its duration locally (two now_us()
// reads) and pushes one completed event under the global trace mutex at
// scope exit — zero contention while the span is open, one short lock
// per span when it closes. Spans are only recorded while obs::enabled();
// a disabled HJ_SPAN costs one relaxed load and a branch, and defining
// HJ_DISABLE_OBS compiles it away entirely.
//
// Trace timestamps are wall-clock and therefore NOT part of the
// determinism contract (see metrics.hpp) — the span *structure* is
// deterministic for deterministic code, the timings never are.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hj::obs {

struct TraceEvent {
  std::string name;
  u64 ts_us = 0;   // span start, microseconds since the obs epoch
  u64 dur_us = 0;  // span duration
  u32 tid = 0;     // thread_ordinal() of the recording thread
  u64 arg = 0;     // optional numeric payload (e.g. batch size)
  bool has_arg = false;
};

class Trace {
 public:
  static Trace& global();

  void record(TraceEvent event);
  /// The Chrome trace_event JSON document ({"traceEvents": [...]}); load
  /// it in about:tracing or ui.perfetto.dev. Events are emitted in
  /// recording order (Chrome sorts by ts itself).
  [[nodiscard]] std::string to_json() const;
  /// Copy of every recorded event, in recording order.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  void clear();
  [[nodiscard]] u64 size() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span: captures the clock on construction when obs::enabled(),
/// records one complete event on destruction. Use via HJ_SPAN below.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) noexcept
      : name_(name), active_(enabled()) {
    if (active_) t0_ = now_us();
  }
  SpanGuard(const char* name, u64 arg) noexcept : SpanGuard(name) {
    arg_ = arg;
    has_arg_ = true;
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() {
    if (!active_) return;
    TraceEvent e;
    e.name = name_;
    e.ts_us = t0_;
    e.dur_us = now_us() - t0_;
    e.tid = thread_ordinal();
    e.arg = arg_;
    e.has_arg = has_arg_;
    Trace::global().record(std::move(e));
  }

 private:
  const char* name_;
  u64 t0_ = 0;
  u64 arg_ = 0;
  bool active_ = false;
  bool has_arg_ = false;
};

}  // namespace hj::obs

#define HJ_OBS_CONCAT_INNER(a, b) a##b
#define HJ_OBS_CONCAT(a, b) HJ_OBS_CONCAT_INNER(a, b)

#ifndef HJ_DISABLE_OBS
/// Open a named trace span for the rest of the enclosing scope.
#define HJ_SPAN(name) \
  ::hj::obs::SpanGuard HJ_OBS_CONCAT(hj_obs_span_, __LINE__){name}
/// Span with a numeric payload, rendered as args.n in the trace viewer.
#define HJ_SPAN_N(name, n) \
  ::hj::obs::SpanGuard HJ_OBS_CONCAT(hj_obs_span_, __LINE__){ \
      name, static_cast<::hj::u64>(n)}
#else
#define HJ_SPAN(name) ((void)0)
#define HJ_SPAN_N(name, n) ((void)0)
#endif
