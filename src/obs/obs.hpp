// hjembed: observability umbrella — include this from instrumentation
// sites. Hook idiom (the pattern every instrumented module uses):
//
//   if (obs::enabled()) {
//     static obs::Counter& hits =
//         obs::Registry::global().counter("plancache.hits",
//                                         obs::Kind::Timing);
//     hits.add();
//   }
//   HJ_SPAN("plan_batch");           // scope-wide trace span
//
// The static reference makes the registry lookup once per call site; the
// enabled() gate keeps the disabled cost at one relaxed load. With
// HJ_DISABLE_OBS defined (cmake -DHJ_DISABLE_OBS=ON) enabled() is
// constexpr false and the whole block is dead-code-eliminated.
//
// Metric naming: dotted lowercase paths, subsystem first —
// plancache.*, plan.batch.*, planner.*, par.*, sim.*, recovery.*,
// live.*, store.*. Kind::Deterministic only for observation
// sets that are pure functions of the workload (see the contract in
// metrics.hpp).
//
// Event idiom (eventlog.hpp): state changes worth a postmortem line use
//
//   if (obs::events_on()) {
//     obs::Event("live.verdict", obs::Kind::Deterministic,
//                obs::Severity::Warn, "live")
//         .kv("verdict", "degraded").kv("epochs", epochs).emit();
//   }
//
// Every emitted event also lands in the flight recorder ring
// (flight.hpp), so the last ~512 events survive a crash. Deterministic
// events must come from serial/ordered call sites and never carry
// timestamps; Timing events may be emitted anywhere.
#pragma once

#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
