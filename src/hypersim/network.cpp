#include "hypersim/network.hpp"

#include <algorithm>

#include "core/bitword.hpp"
#include "obs/obs.hpp"

namespace hj::sim {
namespace {

/// Directed link id: source node * dim + flipped bit.
u64 link_id(CubeNode from, CubeNode to, u32 dim) {
  require(Hypercube::adjacent(from, to),
          "link_id: nodes %llu and %llu are not cube-adjacent",
          static_cast<unsigned long long>(from),
          static_cast<unsigned long long>(to));
  return from * dim + static_cast<u64>(std::countr_zero(from ^ to));
}

/// Per-run message state shared by run() and run_live(). Every hop's
/// directed link is resolved once to a dense slot, so the cycle loop
/// works on flat arrays: `ids` holds the distinct link ids by slot; hop h
/// of message m crosses link ids[hop[first[m] + h]], and
/// crossed[first[m] + h] of m's flits have crossed it. Up to
/// kDenseLinkDimLimit a table indexed by link id hands out slots in
/// first-use order; larger cubes number the sorted distinct ids. Slot
/// numbers never reach the results: transient drops hash the link id.
struct Traffic {
  Traffic(const std::vector<CubePath>& routes, const std::vector<i64>& deps,
          const SimConfig& config)
      : cfg(config),
        children(routes.size()),
        failed(routes.size()),
        delivered(routes.size(), 0),
        retries(routes.size(), 0) {
    const u32 dim = std::max(cfg.cube_dim, 1u);
    std::vector<u64> hop_ids;
    for (u32 m = 0; m < routes.size(); ++m) {
      first.push_back(hop_ids.size());
      for (std::size_t i = 0; i + 1 < routes[m].size(); ++i)
        hop_ids.push_back(link_id(routes[m][i], routes[m][i + 1], dim));
      max_hops = std::max(max_hops, static_cast<u32>(routes[m].size() - 1));
      (deps[m] >= 0 ? children[static_cast<u32>(deps[m])] : roots).push_back(m);
    }
    first.push_back(hop_ids.size());
    hop.reserve(hop_ids.size());
    if (dim <= Hypercube::kDenseLinkDimLimit) {
      std::vector<u32> slot_of((u64{1} << dim) * dim, 0);  // slot + 1
      for (const u64 id : hop_ids) {
        u32& slot = slot_of[id];
        if (slot == 0) {
          ids.push_back(id);
          slot = static_cast<u32>(ids.size());
        }
        hop.push_back(slot - 1);
      }
    } else {
      ids = hop_ids;
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      for (const u64 id : hop_ids)
        hop.push_back(static_cast<u32>(
            std::lower_bound(ids.begin(), ids.end(), id) - ids.begin()));
    }
    crossed.assign(hop.size(), 0);
    used.assign(ids.size(), 0);
  }

  [[nodiscard]] u32 hops(u32 m) const {
    return static_cast<u32>(first[m + 1] - first[m]);
  }
  /// Hop h (of the message whose progress is c) may move a flit: one
  /// waits upstream, and under store-and-forward the whole train does.
  [[nodiscard]] bool ready(const u32* c, u32 h) const {
    const u32 upstream = h == 0 ? cfg.message_flits : c[h - 1];
    return c[h] < upstream &&
           (cfg.switching == Switching::CutThrough ||
            upstream == cfg.message_flits);
  }
  /// Take a slot of link l this cycle (a dropped transmission still
  /// occupies it); false when its bandwidth is already spent.
  bool claim(u32 l) {
    if (used[l] >= cfg.link_bandwidth) return false;
    if (used[l]++ == 0) dirty.push_back(l);
    return true;
  }
  /// Start a cycle: every link's bandwidth is unspent again.
  void next_cycle() {
    for (const u32 l : dirty) used[l] = 0;
    dirty.clear();
  }
  /// Count a dropped transmission of m; false once that exhausts m's
  /// retry budget, which fails m.
  bool retry(u32 m) {
    if (++retries[m] <= cfg.max_retries) return true;
    fail(m);
    return false;
  }
  /// Fail m and, transitively, its dependents.
  void fail(u32 m) {
    if (failed.test(m)) return;
    failed.set(m);
    ++num_failed;
    for (const u32 c : children[m]) fail(c);
  }
  /// Queue m into `out`; a zero-hop message completes at once.
  void release(u32 m, std::vector<u32>& out) {
    if (failed.test(m)) return;
    if (hops(m) == 0) return deliver(m, out);
    out.push_back(m);
  }
  /// Count m delivered and release its dependents into `out`.
  void deliver(u32 m, std::vector<u32>& out) {
    delivered[m] = 1;
    ++num_delivered;
    for (const u32 c : children[m]) release(c, out);
  }

  const SimConfig& cfg;
  std::vector<u64> ids;
  std::vector<std::size_t> first;
  std::vector<u32> hop;
  std::vector<u32> crossed;
  std::vector<std::vector<u32>> children;  // released when m completes
  std::vector<u32> roots;
  BitwordSet failed;
  std::vector<u8> delivered;
  std::vector<u32> retries;
  u64 num_delivered = 0;
  u64 num_failed = 0;
  u32 max_hops = 0;
  std::vector<u32> used;   // flits sent per link this cycle
  std::vector<u32> dirty;  // links with used != 0
};

/// What one pass of the cycle kernel leaves beyond Traffic's per-message
/// state.
struct CycleOutcome {
  u64 cycles = 0;  // cycles executed
  u64 dropped_flits = 0;
  /// run(): transmission attempts deferred because the link's bandwidth
  /// was already spent this cycle (a queue-depth proxy).
  u64 blocked_attempts = 0;
  u64 deferred_watchdogs = 0;               // run_live(): see LiveEpochResult
  std::vector<DetectionEvent> detections;  // run_live()
  bool in_flight = false;  // messages were still active when the loop ended
};

/// The per-cycle loop of run() and run_live(). A flit crosses hop h this
/// cycle when the hop is ready (Traffic::ready) and its link has spare
/// bandwidth. Hops are served destination-first so a flit never moves
/// twice per cycle; messages are served in id order (deterministic
/// arbitration). Loop cycle k is absolute cycle start_cycle + k, at which
/// flapping links and transient drops are read.
///
/// Live (run_live): the permanent faults are the model's plus the
/// schedule's arrivals so far. Nothing is pre-failed: a message crossing a
/// dead link keeps failing its transmissions until the detection layer or
/// the watchdog suspects the link, and the loop pauses at the end of that
/// cycle.
/// !Live (run): the permanent faults are fixed at cycle 0. A message that
/// crosses one can never be delivered, so it fails up front with its
/// dependents instead of stalling the run to max_cycles; no transmission
/// then meets a dead link, and there is no detection, pause or watchdog.
template <bool Live>
CycleOutcome run_cycles(Traffic& t, const std::vector<CubePath>& routes,
                        u64 start_cycle, const FaultSchedule& schedule) {
  const SimConfig& cfg = t.cfg;
  const u32 flits = cfg.message_flits;
  const FaultModel* faults = cfg.faults;
  const bool transient = faults && faults->has_transient();
  const bool flapping = faults && faults->has_flapping();
  CycleOutcome out;

  // Live: ground-truth hardware state, the faults known before the run
  // plus every scheduled arrival whose cycle has passed.
  FaultSet live;
  std::size_t sched_cursor = 0;
  // Live watchdog state, per message: loop cycle of the last flit
  // progress, plus — to tell a dead network from a saturated one — how
  // many transmission attempts since then were outright *failed*
  // (dead/flapping link, transient drop) versus merely *blocked* on link
  // bandwidth already spent by other traffic.
  std::vector<u64> last_progress, failed_since, blocked_since;
  // Live detection layer, per link: consecutive failed transmissions,
  // reset by any success on that link. A dead link never succeeds, so its
  // counter climbs monotonically to detect_threshold within a few cycles
  // of the first attempt.
  std::vector<u32> consec_failures;
  std::vector<u8> suspected;
  obs::Histogram* active_hist = nullptr;
  if constexpr (Live) {
    if (faults) live = faults->permanent();
    schedule.apply_until(start_cycle, live, sched_cursor);
    last_progress.assign(routes.size(), 0);
    failed_since.assign(routes.size(), 0);
    blocked_since.assign(routes.size(), 0);
    consec_failures.assign(t.ids.size(), 0);
    suspected.assign(t.ids.size(), 0);
  } else {
    if (faults && !faults->permanent().empty())
      for (u32 m = 0; m < routes.size(); ++m)
        if (!faults->permanent().path_avoids(routes[m])) t.fail(m);
    if (obs::enabled())
      active_hist = &obs::Registry::global().histogram("sim.active_messages");
  }
  std::vector<u32> active;
  for (u32 m : t.roots) t.release(m, active);

  while (!active.empty() && out.cycles < cfg.max_cycles) {
    const u64 now = start_cycle + ++out.cycles;
    if constexpr (Live) schedule.apply_until(now, live, sched_cursor);
    if (active_hist) active_hist->observe(active.size());
    t.next_cycle();
    std::vector<u32> still_active;
    still_active.reserve(active.size());
    for (u32 m : active) {
      if (t.failed.test(m)) continue;  // retry budget ran out this cycle
      const CubePath& r = routes[m];
      u32* const c = t.crossed.data() + t.first[m];
      const u32* const hop = t.hop.data() + t.first[m];
      const u32 hops = t.hops(m);
      [[maybe_unused]] bool progressed = false;
      for (u32 h = hops; h-- > 0;) {
        if (!t.ready(c, h)) continue;
        const u32 link = hop[h];
        if (!t.claim(link)) {
          ++(Live ? blocked_since[m] : out.blocked_attempts);
          continue;
        }
        const bool dead =
            (Live && live.link_failed(r[h], r[h + 1])) ||
            (flapping && faults->flapping_down(now, r[h], r[h + 1]));
        if (dead || (transient && faults->drops(now, t.ids[link]))) {
          ++out.dropped_flits;
          if constexpr (Live) {
            ++failed_since[m];
            u32& streak = consec_failures[link];
            if (++streak == cfg.detect_threshold && !suspected[link]) {
              suspected[link] = 1;
              out.detections.push_back(
                  DetectionEvent{now, r[h], r[h + 1], streak, false});
            }
          }
          if (!t.retry(m)) break;  // budget spent: m and dependents died
          continue;
        }
        if constexpr (Live) consec_failures[link] = 0;
        ++c[h];
        progressed = true;
      }
      if (t.failed.test(m)) continue;
      if (c[hops - 1] >= flits) {
        t.deliver(m, still_active);
        continue;
      }
      if constexpr (Live) {
        const bool stalled =
            !progressed &&
            out.cycles - last_progress[m] >= cfg.watchdog_cycles;
        if (stalled) {
          // Watchdog: a message with no flit progress for watchdog_cycles
          // is stuck behind something the failure counters did not catch
          // (e.g. a persistently unlucky transient link whose streaks keep
          // being broken by other traffic). Promote its stuck hop to
          // suspected — but only when failed transmissions dominate the
          // stall: a stall made of bandwidth-blocked attempts means the
          // network is saturated, not dead, and promoting it would make a
          // storm's congestion trigger bogus repairs. Defer those and
          // re-arm.
          if (failed_since[m] > 0 && failed_since[m] >= blocked_since[m]) {
            u32 stuck = 0;
            while (stuck + 1 < hops && c[stuck] >= flits) ++stuck;
            const u32 stuck_link = hop[stuck];
            if (!suspected[stuck_link]) {
              suspected[stuck_link] = 1;
              out.detections.push_back(
                  DetectionEvent{now, r[stuck], r[stuck + 1],
                                 consec_failures[stuck_link], true});
            }
          } else {
            ++out.deferred_watchdogs;
          }
        }
        if (progressed || stalled) {  // re-arm: one decision per stall
          last_progress[m] = out.cycles;
          failed_since[m] = 0;
          blocked_since[m] = 0;
        }
      }
      still_active.push_back(m);
    }
    active.swap(still_active);
    // Live: pause at the end of the first suspicious cycle. Every message
    // got its arbitration turn this cycle, so the pause point does not
    // depend on which message tripped the detector first.
    if (Live && !out.detections.empty()) break;
  }
  out.in_flight = !active.empty();
  return out;
}

}  // namespace

CubeNetwork::CubeNetwork(SimConfig config) : config_(config) {
  require(config_.cube_dim <= 30, "CubeNetwork: cube too large to simulate");
  require(config_.link_bandwidth >= 1, "CubeNetwork: bandwidth must be >= 1");
  require(config_.message_flits >= 1, "CubeNetwork: empty messages");
  require(config_.detect_threshold >= 1,
          "CubeNetwork: detect_threshold must be >= 1 (a link cannot be "
          "suspected after zero failures); the default is 4");
  require(config_.detect_threshold <= config_.max_retries,
          "CubeNetwork: detect_threshold (%u) must not exceed max_retries "
          "(%u), or messages exhaust their retry budget before the "
          "detection layer can fire",
          config_.detect_threshold, config_.max_retries);
  require(config_.watchdog_cycles >= 1,
          "CubeNetwork: watchdog_cycles must be >= 1 (a zero-cycle watchdog "
          "would flag every message instantly); the default is 4096");
}

u64 CubeNetwork::add_message(CubePath route, i64 after) {
  const Hypercube host(config_.cube_dim);
  require(!route.empty(), "add_message: empty route");
  require(after < static_cast<i64>(routes_.size()),
          "add_message: dependency on a message not yet queued");
  for (std::size_t i = 0; i < route.size(); ++i)
    require(host.contains(route[i]) &&
                (i == 0 || Hypercube::adjacent(route[i - 1], route[i])),
            "add_message: route must follow cube links");
  routes_.push_back(std::move(route));
  deps_.push_back(after);
  return routes_.size() - 1;
}

void CubeNetwork::add_stencil_exchange(const Embedding& emb) {
  require(emb.host_dim() == config_.cube_dim,
          "add_stencil_exchange: embedding host does not match the network");
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    CubePath fwd = emb.edge_path(e);
    if (fwd.size() < 2) return;  // contracted edge: same processor
    CubePath rev = fwd;
    rev.reverse();
    routes_.push_back(std::move(fwd));
    deps_.push_back(-1);
    routes_.push_back(std::move(rev));
    deps_.push_back(-1);
  });
}

void CubeNetwork::add_axis_shift(const Embedding& emb, u32 axis) {
  require(emb.host_dim() == config_.cube_dim,
          "add_axis_shift: embedding host does not match the network");
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    if (e.axis != axis) return;
    CubePath p = emb.edge_path(e);
    if (p.size() < 2) return;
    routes_.push_back(std::move(p));
    deps_.push_back(-1);
  });
}

void CubeNetwork::add_broadcast(const Embedding& emb, MeshIndex root) {
  require(emb.host_dim() == config_.cube_dim,
          "add_broadcast: embedding host does not match the network");
  const CubeNode src = emb.map(root);
  for (MeshIndex i = 0; i < emb.guest().num_nodes(); ++i) {
    if (i == root) continue;
    const CubeNode dst = emb.map(i);
    if (dst == src) continue;
    routes_.push_back(Hypercube::ecube_path(src, dst));
    deps_.push_back(-1);
  }
}

SimResult CubeNetwork::run() {
  HJ_SPAN_N("sim.run", routes_.size());
  SimResult result;
  result.messages = routes_.size();
  result.switching = config_.switching;
  result.message_flits = config_.message_flits;
  result.link_bandwidth = config_.link_bandwidth;
  const bool observing = obs::enabled();

  // Static route statistics (over all queued routes, failed or not).
  Traffic t(routes_, deps_, config_);
  std::vector<u32> static_load(t.ids.size(), 0);
  for (const u32 l : t.hop)
    result.max_link_load = std::max(result.max_link_load, ++static_load[l]);
  result.total_hops = t.hop.size();
  result.max_route_len = t.max_hops;
  if (observing) {
    obs::Histogram& route_len =
        obs::Registry::global().histogram("sim.route_len");
    for (const CubePath& r : routes_) route_len.observe(r.size() - 1);
  }

  const CycleOutcome out = run_cycles<false>(t, routes_, 0, FaultSchedule{});
  result.cycles = out.cycles;
  result.dropped_flits = out.dropped_flits;
  result.delivered = t.num_delivered;
  result.failed_messages = t.num_failed;

  // A run that still has messages in flight was truncated by max_cycles.
  result.completed =
      result.delivered == result.messages && result.failed_messages == 0;
  result.slowdown_vs_bound =
      result.messages == 0
          ? 1.0
          : !result.completed
                ? 0.0
                : static_cast<double>(result.cycles) /
                      static_cast<double>(std::max<u64>(1, result.lower_bound()));
  if (observing) {
    // Deterministic-kind: the simulator is sequential with deterministic
    // arbitration, so every number here is a pure function of the queued
    // routes and the fault model.
    auto& reg = obs::Registry::global();
    reg.counter("sim.runs").add();
    reg.counter("sim.messages").add(result.messages);
    reg.counter("sim.cycles").add(result.cycles);
    reg.counter("sim.delivered").add(result.delivered);
    reg.counter("sim.failed_messages").add(result.failed_messages);
    reg.counter("sim.dropped_flits").add(result.dropped_flits);
    reg.counter("sim.blocked_attempts").add(out.blocked_attempts);
    obs::Histogram& link_load = reg.histogram("sim.link_load");
    obs::Histogram& link_util = reg.histogram("sim.link_util_pct");
    const u64 capacity = result.cycles * config_.link_bandwidth;
    for (const u32 load : static_load) {
      link_load.observe(load);
      // Share of the run each used link spent carrying flits; only
      // meaningful when the run drained (a truncated run's cycle count
      // measures the cap, not the traffic).
      if (result.completed && capacity > 0)
        link_util.observe(u64{load} * config_.message_flits * 100 / capacity);
    }
  }
  routes_.clear();
  deps_.clear();
  return result;
}

LiveEpochResult CubeNetwork::run_live(u64 start_cycle,
                                      const FaultSchedule& schedule) {
  HJ_SPAN_N("sim.run_live", routes_.size());
  const u32 flits = config_.message_flits;
  Traffic t(routes_, deps_, config_);
  require(config_.watchdog_cycles >= u64{t.max_hops} * flits,
          "run_live: watchdog_cycles (%llu) is below the longest route's "
          "service time (%u hops x %u flits = %llu cycles); a healthy "
          "message would be flagged as stuck — raise watchdog_cycles",
          static_cast<unsigned long long>(config_.watchdog_cycles),
          t.max_hops, flits,
          static_cast<unsigned long long>(u64{t.max_hops} * flits));

  CycleOutcome out = run_cycles<true>(t, routes_, start_cycle, schedule);
  LiveEpochResult result;
  result.messages = routes_.size();
  result.delivered = t.num_delivered;
  result.message_delivered = std::move(t.delivered);
  result.dropped_flits = out.dropped_flits;
  result.deferred_watchdogs = out.deferred_watchdogs;
  result.detections = std::move(out.detections);
  result.end_cycle = start_cycle + out.cycles;
  result.detected = !result.detections.empty();
  result.truncated = !result.detected && out.in_flight &&
                     out.cycles >= config_.max_cycles;
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("sim.live.epochs").add();
    reg.counter("sim.live.cycles").add(out.cycles);
    reg.counter("sim.live.detections").add(result.detections.size());
    reg.counter("sim.live.delivered").add(result.delivered);
    reg.counter("sim.live.dropped_flits").add(result.dropped_flits);
    reg.counter("sim.live.deferred_watchdogs").add(result.deferred_watchdogs);
  }
  routes_.clear();
  deps_.clear();
  return result;
}

SimResult simulate_stencil(const Embedding& emb, u32 link_bandwidth,
                           Switching sw, u32 flits) {
  return simulate_stencil(
      emb, SimConfig{emb.host_dim(), link_bandwidth, 1'000'000, sw, flits});
}

SimResult simulate_stencil(const Embedding& emb, const SimConfig& config) {
  require(config.cube_dim == emb.host_dim(),
          "simulate_stencil: config cube dimension %u does not match the "
          "embedding host Q%u",
          config.cube_dim, emb.host_dim());
  CubeNetwork net(config);
  net.add_stencil_exchange(emb);
  return net.run();
}

}  // namespace hj::sim
