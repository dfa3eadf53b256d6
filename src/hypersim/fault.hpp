// hjembed: fault model and injection for the cube-network simulator.
//
// Layers simulation-time behaviour on top of the structural hj::FaultSet:
//
//   * Permanent faults (dead nodes / links) come from the embedded
//     FaultSet. A route crossing one can never be delivered; the simulator
//     reports the message as failed instead of stalling to max_cycles.
//   * Transient link faults: every directed link independently drops all
//     flit transmissions attempted on it during a cycle with probability
//     `drop_p`. Drops are derived from a counter-based hash of
//     (seed, cycle, link), so a given seed yields the identical fault
//     trace regardless of message count, arbitration order, or which
//     queries are made — same seed, same SimResult, reproducibly.
//
// A dropped transmission is retried by the simulator (the iPSC-era
// link-level retry); retries per message are bounded (SimConfig::
// max_retries), after which the message is declared failed — the
// "bounded retry with timeout" discipline, the timeout being the global
// max_cycles cap.
#pragma once

#include <algorithm>
#include <charconv>
#include <optional>
#include <string>
#include <vector>

#include "core/fault.hpp"

namespace hj::sim {

/// All of `s` as a T, strictly: no sign (for unsigned T), space or suffix,
/// and nothing outside T's range. The fault and storm spec parsers read
/// every number through it.
template <class T>
[[nodiscard]] std::optional<T> parse_exact(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// One flapping (intermittently dead) undirected link: transmissions on
/// it fail during the first `down` cycles of every `period`-cycle
/// window, offset by `phase`. Deterministic — link state is a pure
/// function of the absolute cycle — so a flapping link exercises the
/// quarantine / un-quarantine probe loop reproducibly: it trips the
/// detection layer while down, serves traffic again once probed back in
/// while up, and re-trips on the next down window.
struct FlapSpec {
  CubeNode a = 0;
  CubeNode b = 0;
  u64 period = 32;
  u64 down = 8;
  u64 phase = 0;
};

/// Permanent failed nodes/links plus seeded transient link faults.
class FaultModel {
 public:
  FaultModel() = default;
  explicit FaultModel(FaultSet permanent) : permanent_(std::move(permanent)) {}

  /// Structural (permanent) faults; mutate freely before the run.
  [[nodiscard]] FaultSet& permanent() noexcept { return permanent_; }
  [[nodiscard]] const FaultSet& permanent() const noexcept {
    return permanent_;
  }

  /// Enable transient faults: each directed link drops the transmissions
  /// attempted on it in a given cycle with probability `p`.
  void set_transient(double p, u64 seed) {
    require(p >= 0.0 && p < 1.0,
            "FaultModel::set_transient: drop probability %f outside [0, 1)",
            p);
    drop_p_ = p;
    seed_ = seed;
    // Probability threshold in fixed point: drop iff hash < p * 2^64.
    threshold_ = p <= 0.0
                     ? 0
                     : static_cast<u64>(p * 18446744073709551616.0 /* 2^64 */);
  }

  [[nodiscard]] double drop_p() const noexcept { return drop_p_; }
  [[nodiscard]] u64 seed() const noexcept { return seed_; }
  [[nodiscard]] bool has_transient() const noexcept { return threshold_ != 0; }

  /// Register a flapping link (see FlapSpec). Re-registering the same
  /// link replaces its spec.
  void add_flapping(const FlapSpec& f) {
    require(Hypercube::adjacent(f.a, f.b),
            "FaultModel::add_flapping: %llu-%llu is not a cube link",
            static_cast<unsigned long long>(f.a),
            static_cast<unsigned long long>(f.b));
    require(f.period >= 1 && f.down < f.period,
            "FaultModel::add_flapping: down window (%llu) must be shorter "
            "than the period (%llu), or the link is simply dead",
            static_cast<unsigned long long>(f.down),
            static_cast<unsigned long long>(f.period));
    const u64 key = Hypercube::edge_key(f.a, f.b);
    flap_filter_ |= u64{1} << filter_bit(key);
    const std::size_t i = flap_index(key);
    if (i < flapping_.size() && flapping_[i].first == key)
      flapping_[i].second = f;
    else
      flapping_.insert(flapping_.begin() + static_cast<std::ptrdiff_t>(i),
                       {key, f});
  }

  [[nodiscard]] bool has_flapping() const noexcept {
    return !flapping_.empty();
  }
  [[nodiscard]] std::size_t num_flapping() const noexcept {
    return flapping_.size();
  }

  /// True iff the undirected link between adjacent `x` and `y` is in a
  /// down window at `cycle`. Pure function of (spec, cycle).
  [[nodiscard]] bool flapping_down(u64 cycle, CubeNode x,
                                   CubeNode y) const noexcept {
    const u64 key = Hypercube::edge_key(x, y);
    if (!(flap_filter_ >> filter_bit(key) & 1)) return false;
    const std::size_t i = flap_index(key);
    if (i == flapping_.size() || flapping_[i].first != key) return false;
    const FlapSpec& f = flapping_[i].second;
    return (cycle + f.phase) % f.period < f.down;
  }

  /// True iff the directed link `link_id` drops transmissions in `cycle`.
  /// Pure function of (seed, cycle, link_id): deterministic and order-free.
  [[nodiscard]] bool drops(u64 cycle, u64 link_id) const noexcept {
    if (threshold_ == 0) return false;
    return mix_bits(seed_ ^ (cycle * 0x9e3779b97f4a7c15ull) ^
                    (link_id * 0xbf58476d1ce4e5b9ull)) < threshold_;
  }

 private:
  /// Bit of `key` in flap_filter_ (the top six bits of a Fibonacci hash).
  [[nodiscard]] static u32 filter_bit(u64 key) noexcept {
    return static_cast<u32>((key * 0x9e3779b97f4a7c15ull) >> 58);
  }
  /// Position of the first flapping link whose key is not below `key`.
  [[nodiscard]] std::size_t flap_index(u64 key) const noexcept {
    return static_cast<std::size_t>(
        std::lower_bound(flapping_.begin(), flapping_.end(), key,
                         [](const std::pair<u64, FlapSpec>& entry, u64 k) {
                           return entry.first < k;
                         }) -
        flapping_.begin());
  }

  FaultSet permanent_;
  double drop_p_ = 0.0;
  u64 seed_ = 0;
  u64 threshold_ = 0;
  // Sorted by Hypercube::edge_key; one entry per link.
  std::vector<std::pair<u64, FlapSpec>> flapping_;
  // The filter_bit of every flapping link: the per-hop lookup of a link
  // whose bit is clear (nearly every link) skips the search.
  u64 flap_filter_ = 0;
};

/// One timed permanent-fault arrival: at the start of `cycle`, the node
/// `a` (is_node) or the undirected link `a`-`b` dies and stays dead.
struct FaultEvent {
  u64 cycle = 0;
  bool is_node = true;
  CubeNode a = 0;
  CubeNode b = 0;  // link far end; unused for node events

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FaultEvent& x, const FaultEvent& y) noexcept {
    return x.cycle == y.cycle && x.is_node == y.is_node && x.a == y.a &&
           x.b == y.b;
  }
};

/// A timed sequence of permanent fault arrivals applied *while a
/// simulation is running* (the live-recovery scenario: iPSC-era cubes
/// lost nodes and links mid-computation). Events are kept sorted by
/// (cycle, node-before-link, address) and validated on construction —
/// each piece of hardware may die at most once, and a duplicate arrival
/// is rejected with a formatted require() — so a schedule is a
/// canonical, de-duplicated, deterministic object: the same schedule
/// replayed against the same seed yields the identical simulation,
/// detection trace and RecoveryLog.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  void add_node_failure(u64 cycle, CubeNode v);
  void add_link_failure(u64 cycle, CubeNode a, CubeNode b);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Add every event with event.cycle <= cycle to `into`, advancing
  /// `cursor` (an index into events()). Call with a monotonically
  /// non-decreasing cycle and the same cursor to replay incrementally.
  void apply_until(u64 cycle, FaultSet& into, std::size_t& cursor) const;

  /// Ground-truth diagnosis of a suspected link: the earliest event with
  /// cycle <= `up_to_cycle` that explains a failing `u`->`v` transmission
  /// (a dead endpoint node, or the dead link itself). Empty when no
  /// arrival explains it — the suspect was a persistent transient.
  [[nodiscard]] std::optional<FaultEvent> diagnose(CubeNode u, CubeNode v,
                                                   u64 up_to_cycle) const;

  /// Parse the `--fault-schedule` file format: one arrival per line,
  ///   <cycle> node <v>
  ///   <cycle> link <a> <b>
  /// Blank lines and lines starting with '#' are ignored. Throws
  /// std::invalid_argument naming the offending line on malformed input.
  [[nodiscard]] static FaultSchedule parse(const std::string& text);
  [[nodiscard]] static FaultSchedule load(const std::string& file);

  /// Seeded-deterministic random schedule inside Q_{cube_dim}:
  /// `node_events` + `link_events` distinct arrivals at cycles
  /// first_cycle, first_cycle + spacing, ... (nodes and links
  /// interleaved). Pure function of its arguments.
  [[nodiscard]] static FaultSchedule random(u32 cube_dim, u32 node_events,
                                            u32 link_events, u64 first_cycle,
                                            u64 spacing, u64 seed);

 private:
  void insert(FaultEvent e);

  std::vector<FaultEvent> events_;  // sorted; see class comment
};

/// Parse a fault specification, e.g. "node=5,link=3-7,p=0.01,seed=42":
/// comma-separated terms `node=<v>` (failed node), `link=<a>-<b>` (failed
/// link between adjacent nodes), `p=<prob>` (transient drop probability),
/// `seed=<s>` (transient fault seed). Used by the hj_embed CLI `--faults`
/// flag and the fault-resilience bench. Throws std::invalid_argument on a
/// malformed spec.
[[nodiscard]] FaultModel parse_fault_spec(const std::string& spec);

}  // namespace hj::sim
