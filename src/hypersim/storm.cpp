#include "hypersim/storm.hpp"

#include <algorithm>
#include <unordered_set>

namespace hj::sim {
namespace {

/// Fixed-point probability threshold: event fires iff hash < p * 2^64.
u64 threshold(double p) {
  return p <= 0.0 ? 0
         : p >= 1.0
             ? ~u64{0}
             : static_cast<u64>(p * 18446744073709551616.0 /* 2^64 */);
}

}  // namespace

const char* storm_kind_name(StormKind k) noexcept {
  switch (k) {
    case StormKind::Regional: return "regional";
    case StormKind::Cascading: return "cascading";
    case StormKind::Bursty: return "bursty";
    case StormKind::Mixed: return "mixed";
  }
  return "?";
}

StormGenerator::StormGenerator(StormSpec spec) : spec_(spec) {
  require(spec_.cube_dim >= 1 && spec_.cube_dim <= 30,
          "StormGenerator: cube dimension %u outside [1, 30]", spec_.cube_dim);
  require(spec_.node_fraction >= 0.0 && spec_.node_fraction <= 1.0,
          "StormGenerator: node_fraction %f outside [0, 1]",
          spec_.node_fraction);
  require(spec_.burst_size >= 1, "StormGenerator: burst_size must be >= 1");
  require(spec_.regions >= 1, "StormGenerator: regions must be >= 1");
  require(spec_.region_radius >= 1 && spec_.region_radius <= spec_.cube_dim,
          "StormGenerator: region_radius %u outside [1, cube_dim=%u]",
          spec_.region_radius, spec_.cube_dim);
  require(spec_.cascade_p >= 0.0 && spec_.cascade_p <= 1.0,
          "StormGenerator: cascade_p %f outside [0, 1]", spec_.cascade_p);
  require(spec_.max_fail_fraction > 0.0 && spec_.max_fail_fraction <= 1.0,
          "StormGenerator: max_fail_fraction %f outside (0, 1]",
          spec_.max_fail_fraction);
  if (spec_.flapping_links > 0)
    require(spec_.flap_period >= 1 && spec_.flap_down >= 1 &&
                spec_.flap_down < spec_.flap_period,
            "StormGenerator: flap down window (%llu) must be in "
            "[1, period=%llu)",
            static_cast<unsigned long long>(spec_.flap_down),
            static_cast<unsigned long long>(spec_.flap_period));
}

Storm StormGenerator::generate() const {
  const StormSpec& s = spec_;
  const u32 n = s.cube_dim;
  const u64 num_nodes = u64{1} << n;
  const u64 mask = num_nodes - 1;
  // Leave a machine worth repairing: cap dead nodes and dead links each
  // at max_fail_fraction of the hardware (links: n * 2^(n-1) of them).
  const u64 node_cap = std::max<u64>(
      1, static_cast<u64>(static_cast<double>(num_nodes) *
                          s.max_fail_fraction));
  const u64 link_cap = std::max<u64>(
      1, static_cast<u64>(static_cast<double>(num_nodes / 2 * n) *
                          s.max_fail_fraction));
  const u64 node_thresh = threshold(s.node_fraction);
  const u64 cascade_thresh = threshold(s.cascade_p);

  Storm out;
  u64 ctr = s.seed * 0x9e3779b97f4a7c15ull +
            (static_cast<u64>(s.kind) + 1) * 0x6d5a6d5a6d5a6d5bull;

  // Regional epicenters, reused round-robin across the whole storm so
  // each region's ball keeps accumulating damage.
  std::vector<CubeNode> epicenters(s.regions);
  for (CubeNode& e : epicenters) e = mix64(ctr++) & mask;

  // Uniform sample from the Hamming ball of `region_radius` around
  // `center`: pick a flip count in [1, radius], then distinct dimensions.
  const auto ball = [&](CubeNode center) {
    const u32 k = 1 + static_cast<u32>(mix64(ctr++) % s.region_radius);
    CubeNode x = center;
    u32 flipped = 0;
    for (u32 j = 0; j < k; ++j) {
      u32 d;
      do d = static_cast<u32>(mix64(ctr++) % n);
      while (flipped & (u32{1} << d));
      flipped |= u32{1} << d;
      x ^= u64{1} << d;
    }
    return x;
  };

  // Endpoints of previous victims, the cascade's fuel. Node deaths and
  // both ends of link deaths qualify — heat spreads from either side.
  std::vector<CubeNode> victims;
  const auto cascade_seed = [&]() -> CubeNode {
    if (!victims.empty() && mix64(ctr++) < cascade_thresh)
      return victims[mix64(ctr++) % victims.size()];
    return mix64(ctr++) & mask;
  };

  FaultSet taken;  // dedup: every arrival must name fresh hardware
  u64 nodes_killed = 0, links_killed = 0;
  for (u32 i = 0; i < s.events; ++i) {
    const u32 burst = i / s.burst_size;
    const u64 cycle = s.first_cycle + u64{burst} * s.burst_spacing +
                      u64{i % s.burst_size} * s.intra_burst_spacing;
    const StormKind kind =
        s.kind == StormKind::Mixed
            ? (burst % 2 == 0 ? StormKind::Regional : StormKind::Cascading)
            : s.kind;
    const bool want_node = mix64(ctr++) < node_thresh;
    if (want_node ? nodes_killed >= node_cap : links_killed >= link_cap) {
      ++out.stats.dropped_events;
      continue;
    }
    bool placed = false;
    for (u32 attempt = 0; attempt < 64 && !placed; ++attempt) {
      CubeNode a;
      switch (kind) {
        case StormKind::Regional:
          a = ball(epicenters[i % s.regions]);
          break;
        case StormKind::Cascading:
          a = cascade_seed();
          break;
        default:
          a = mix64(ctr++) & mask;
          break;
      }
      if (want_node) {
        // Cascading node deaths strike next to a victim, not on it (it is
        // already dead); step one random link away first.
        if (kind == StormKind::Cascading)
          a ^= u64{1} << (mix64(ctr++) % n);
        if (taken.node_failed(a)) continue;
        taken.fail_node(a);
        out.schedule.add_node_failure(cycle, a);
        victims.push_back(a);
        ++nodes_killed;
        ++out.stats.node_events;
      } else {
        const CubeNode b = a ^ (u64{1} << (mix64(ctr++) % n));
        // link_failed also covers dead endpoints, so a link under an
        // already-dead node is never scheduled as a separate arrival.
        if (taken.link_failed(a, b)) continue;
        taken.fail_link(a, b);
        out.schedule.add_link_failure(cycle, a, b);
        victims.push_back(a);
        victims.push_back(b);
        ++links_killed;
        ++out.stats.link_events;
      }
      placed = true;
    }
    if (!placed) ++out.stats.dropped_events;
  }

  // Flapping links ride on healthy hardware (a permanent victim cannot
  // also flap) and are distinct from each other.
  std::unordered_set<u64> flap_keys;
  for (u32 f = 0; f < s.flapping_links; ++f) {
    for (u32 attempt = 0; attempt < 64; ++attempt) {
      const CubeNode a = mix64(ctr++) & mask;
      const CubeNode b = a ^ (u64{1} << (mix64(ctr++) % n));
      if (taken.link_failed(a, b)) continue;
      if (!flap_keys.insert(Hypercube::edge_key(a, b)).second) continue;
      out.flapping.push_back(FlapSpec{std::min(a, b), std::max(a, b),
                                      s.flap_period, s.flap_down,
                                      mix64(ctr++) % s.flap_period});
      break;
    }
  }

  if (!out.schedule.empty())
    out.stats.span_cycles = out.schedule.events().back().cycle -
                            out.schedule.events().front().cycle;
  return out;
}

// --- CLI spec parsing -------------------------------------------------------

namespace {

/// The value of `key=val` as a T (see parse_exact).
template <class T>
T number(const std::string& key, const std::string& val) {
  const std::optional<T> v = parse_exact<T>(val);
  require(v.has_value(), "parse_storm_spec: %s='%s' is not a number in range",
          key.c_str(), val.c_str());
  return *v;
}

}  // namespace

StormSpec parse_storm_spec(const std::string& spec, u32 cube_dim) {
  StormSpec out;
  out.cube_dim = cube_dim;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string term = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (term.empty()) continue;
    const std::size_t eq = term.find('=');
    require(eq != std::string::npos,
            "parse_storm_spec: expected key=value, got '%s'", term.c_str());
    const std::string key = term.substr(0, eq);
    const std::string val = term.substr(eq + 1);
    if (key == "kind") {
      if (val == "regional") out.kind = StormKind::Regional;
      else if (val == "cascading") out.kind = StormKind::Cascading;
      else if (val == "bursty") out.kind = StormKind::Bursty;
      else if (val == "mixed") out.kind = StormKind::Mixed;
      else
        require(false,
                "parse_storm_spec: unknown kind '%s' (want "
                "regional|cascading|bursty|mixed)",
                val.c_str());
    } else if (key == "events") {
      out.events = number<u32>(key, val);
    } else if (key == "seed") {
      out.seed = number<u64>(key, val);
    } else if (key == "node_frac") {
      out.node_fraction = number<double>(key, val);
    } else if (key == "first") {
      out.first_cycle = number<u64>(key, val);
    } else if (key == "burst") {
      out.burst_size = number<u32>(key, val);
    } else if (key == "spacing") {
      out.burst_spacing = number<u64>(key, val);
    } else if (key == "gap") {
      out.intra_burst_spacing = number<u64>(key, val);
    } else if (key == "regions") {
      out.regions = number<u32>(key, val);
    } else if (key == "radius") {
      out.region_radius = number<u32>(key, val);
    } else if (key == "cascade_p") {
      out.cascade_p = number<double>(key, val);
    } else if (key == "cap") {
      out.max_fail_fraction = number<double>(key, val);
    } else if (key == "flap") {
      out.flapping_links = number<u32>(key, val);
    } else if (key == "flap_period") {
      out.flap_period = number<u64>(key, val);
    } else if (key == "flap_down") {
      out.flap_down = number<u64>(key, val);
    } else {
      require(false, "parse_storm_spec: unknown key '%s'", key.c_str());
    }
  }
  return out;
}

}  // namespace hj::sim
