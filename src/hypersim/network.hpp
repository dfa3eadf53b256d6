// hjembed: a synchronous flit-level Boolean-cube network simulator.
//
// The paper targets iPSC/nCUBE-era hypercube multiprocessors, which we do
// not have; this substrate simulates the communication behaviour that
// makes dilation, congestion and expansion matter. Model:
//
//   * 2^n nodes; each pair at Hamming distance one is joined by two
//     directed links (one per direction).
//   * Messages are trains of `message_flits` flits following a fixed route
//     (the embedding's edge paths). A directed link moves at most
//     `link_bandwidth` flits per cycle; buffers are unbounded.
//   * Switching:
//       StoreAndForward — a message must fully arrive at a node before its
//         first flit leaves it (the paper-era iPSC discipline). Per-hop
//         cost ~ message length: dilation multiplies the latency.
//       CutThrough — a flit may leave a node one cycle after arriving
//         (virtual cut-through): the train pipelines across the route and
//         dilation adds only ~1 cycle per extra hop.
//   * Arbitration is deterministic: lower message id first, flits closest
//     to the destination first (no flit moves twice per cycle).
//
// The quality of an embedding shows up directly: dilation stretches routes
// (latency, amplified by message size under store-and-forward), congestion
// serializes them (bandwidth), and expansion idles processors.
#pragma once

#include <vector>

#include "core/embedding.hpp"
#include "hypersim/fault.hpp"

namespace hj::sim {

enum class Switching : u8 { StoreAndForward, CutThrough };

struct SimConfig {
  u32 cube_dim = 0;
  /// Flits one directed link can carry per cycle.
  u32 link_bandwidth = 1;
  /// Safety stop; a drained run always ends far earlier.
  u64 max_cycles = 1'000'000;
  Switching switching = Switching::StoreAndForward;
  /// Flits per message (message length).
  u32 message_flits = 1;
  /// Optional fault injection. Not owned; must outlive run(). In run(),
  /// routes crossing a permanent fault are reported failed (never
  /// simulated); run_live() discovers them instead. Transient drops are
  /// retried up to `max_retries` per message.
  const FaultModel* faults = nullptr;
  /// Bound on transient-fault retries per message before the message is
  /// declared failed (SimResult::failed_messages, completed = false).
  u32 max_retries = 64;
  /// run_live only (run() has no detection layer or watchdog, though the
  /// constructor checks this field and the next for every run):
  /// consecutive failed transmissions on one directed link before the
  /// detection layer flags it suspected-permanent. Must stay below
  /// max_retries or messages die before detection can fire.
  u32 detect_threshold = 4;
  /// run_live only: cycles a message may go without any flit progress
  /// before the watchdog considers its stuck hop. Must cover the longest
  /// service time of a queued route (validated against
  /// max_route_len * message_flits when run_live starts). The watchdog is
  /// storm-aware: it promotes the hop to suspected-permanent only when
  /// the stall is dominated by *failed* transmissions (the network is
  /// dead there); a stall dominated by bandwidth-blocked attempts means
  /// the network is merely saturated, and the watchdog defers instead
  /// (LiveEpochResult::deferred_watchdogs) — a storm must not let
  /// congestion masquerade as hardware death and trigger repair thrash.
  u64 watchdog_cycles = 4096;
};

struct SimResult {
  /// Cycles until every flit of every message arrived.
  u64 cycles = 0;
  u64 messages = 0;
  u64 total_hops = 0;  // route hops summed over messages (not x flits)
  /// Static load: max messages routed over one directed link.
  u32 max_link_load = 0;
  /// Longest route in hops.
  u32 max_route_len = 0;
  Switching switching = Switching::StoreAndForward;
  u32 message_flits = 1;
  u32 link_bandwidth = 1;

  /// True iff every message was fully delivered: the run drained before
  /// max_cycles and no message failed. A capped (truncated) run is no
  /// longer indistinguishable from a drained one.
  bool completed = false;
  /// Messages fully delivered.
  u64 delivered = 0;
  /// Messages that can never arrive: routed over a permanent fault,
  /// exhausted their transient retry budget, or starved behind a failed
  /// dependency.
  u64 failed_messages = 0;
  /// Flit transmissions dropped by transient link faults (each one costs
  /// a retry cycle on that hop).
  u64 dropped_flits = 0;

  /// A simple schedule lower bound for the configured switching mode.
  [[nodiscard]] u64 lower_bound() const {
    const u64 serial = (u64{max_link_load} * message_flits + link_bandwidth -
                        1) /
                       link_bandwidth;
    const u64 latency =
        switching == Switching::StoreAndForward
            ? u64{max_route_len} * message_flits
            : max_route_len == 0 ? 0 : max_route_len + message_flits - 1;
    return std::max(latency, serial);
  }
  /// cycles / lower_bound: 1.0 means the schedule is provably optimal.
  /// Only meaningful for completed runs; 0.0 when !completed (a capped or
  /// fault-broken run has no meaningful schedule length).
  double slowdown_vs_bound = 0.0;

  /// Accounting invariant of the counters above (previously only stated
  /// in comments): every message is delivered, failed, or still in
  /// flight (a truncated run), so delivered + failed never exceeds the
  /// total, and `completed` is exactly "all delivered, none failed".
  /// run() upholds this by construction; tests assert it on every result.
  [[nodiscard]] bool consistent() const noexcept {
    return delivered + failed_messages <= messages &&
           completed == (delivered == messages && failed_messages == 0);
  }
};

/// One suspicion raised by run_live's detection layer: the directed link
/// `from`->`to` stopped delivering. Raised either by the consecutive-
/// failure counter crossing SimConfig::detect_threshold, or by the
/// delivery watchdog (a message made no progress for watchdog_cycles —
/// the path persistent transients take to suspected-permanent).
struct DetectionEvent {
  u64 cycle = 0;  // absolute cycle the suspicion fired
  CubeNode from = 0;
  CubeNode to = 0;
  u32 consecutive_failures = 0;
  bool by_watchdog = false;

  friend bool operator==(const DetectionEvent& x,
                         const DetectionEvent& y) noexcept {
    return x.cycle == y.cycle && x.from == y.from && x.to == y.to &&
           x.consecutive_failures == y.consecutive_failures &&
           x.by_watchdog == y.by_watchdog;
  }
};

/// Outcome of one run_live epoch: the simulator either drained every
/// queued message, or paused at the end of the first cycle in which the
/// detection layer raised suspicions (so a recovery controller can repair
/// the embedding and resume), or hit the max_cycles safety cap.
struct LiveEpochResult {
  /// Absolute cycle at which the epoch stopped (start_cycle + executed).
  u64 end_cycle = 0;
  u64 messages = 0;
  u64 delivered = 0;
  u64 dropped_flits = 0;
  /// True iff the epoch paused on a detection (detections non-empty).
  bool detected = false;
  /// True iff max_cycles elapsed with traffic still pending.
  bool truncated = false;
  /// Watchdog firings deferred because the stalled message was blocked on
  /// bandwidth, not failing transmissions (saturated, not dead).
  u64 deferred_watchdogs = 0;
  std::vector<DetectionEvent> detections;
  /// Per queued message id: fully delivered this epoch? Undelivered
  /// messages are the caller's to retransmit on the repaired embedding.
  std::vector<u8> message_delivered;

  [[nodiscard]] bool drained() const noexcept {
    return delivered == messages;
  }
};

/// The simulator. Add routed messages, then run() to completion.
class CubeNetwork {
 public:
  explicit CubeNetwork(SimConfig config);

  /// Queue a message along a fixed cube route (consecutive nodes must be
  /// cube-adjacent). Zero-length routes complete instantly. Returns the
  /// message id. With `after` >= 0 the message is held until the message
  /// with that id completes (dependent schedules, e.g. broadcast trees).
  u64 add_message(CubePath route, i64 after = -1);

  /// Queue one message per mesh edge of `emb`, in both directions — the
  /// classic stencil neighbor exchange of an SOR/Jacobi sweep.
  void add_stencil_exchange(const Embedding& emb);

  /// Queue messages shifting along one mesh axis (CSHIFT), one per node
  /// with a successor on that axis, in the + direction.
  void add_axis_shift(const Embedding& emb, u32 axis);

  /// Queue a naive broadcast: one message from the mesh node `root` to
  /// every other mesh node, each along the e-cube route between the
  /// images. (A deliberately congestion-heavy workload.)
  void add_broadcast(const Embedding& emb, MeshIndex root);

  /// Run to completion (or max_cycles) and reset the message list.
  [[nodiscard]] SimResult run();

  /// Run one *live* epoch starting at absolute cycle `start_cycle`, with
  /// the schedule's permanent faults arriving mid-run (every event with
  /// cycle <= the current absolute cycle is in effect; nothing is
  /// pre-failed — faults must be *discovered* by the detection layer).
  /// Stops at the end of the first cycle that raises a detection, when
  /// all traffic drains, or after max_cycles. Resets the message list;
  /// the caller requeues undelivered messages (on a repaired embedding)
  /// and calls run_live again with the returned end_cycle to resume.
  [[nodiscard]] LiveEpochResult run_live(u64 start_cycle,
                                         const FaultSchedule& schedule);

  [[nodiscard]] u64 pending() const noexcept { return routes_.size(); }

 private:
  SimConfig config_;
  std::vector<CubePath> routes_;
  std::vector<i64> deps_;
};

/// One-call helper: stencil exchange on an embedding.
[[nodiscard]] SimResult simulate_stencil(const Embedding& emb,
                                         u32 link_bandwidth = 1,
                                         Switching sw =
                                             Switching::StoreAndForward,
                                         u32 flits = 1);

/// Stencil exchange under an explicit configuration (fault injection,
/// retry budgets, ...). `config.cube_dim` must match the embedding's host.
[[nodiscard]] SimResult simulate_stencil(const Embedding& emb,
                                         const SimConfig& config);

}  // namespace hj::sim
