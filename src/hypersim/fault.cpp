#include "hypersim/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

namespace hj::sim {
namespace {

u64 parse_u64(const std::string& s) {
  const std::optional<u64> v = parse_exact<u64>(s);
  require(v.has_value(), "parse_fault_spec: '%s' is not a number", s.c_str());
  return *v;
}

}  // namespace

FaultModel parse_fault_spec(const std::string& spec) {
  FaultModel model;
  double p = 0.0;
  u64 seed = 0;
  bool transient = false;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string term = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (term.empty()) continue;
    const std::size_t eq = term.find('=');
    require(eq != std::string::npos,
            "parse_fault_spec: expected key=value, got '%s'", term.c_str());
    const std::string key = term.substr(0, eq);
    const std::string val = term.substr(eq + 1);
    if (key == "node") {
      model.permanent().fail_node(parse_u64(val));
    } else if (key == "link") {
      const std::size_t dash = val.find('-');
      require(dash != std::string::npos,
              "parse_fault_spec: link wants <a>-<b>, got '%s'", val.c_str());
      model.permanent().fail_link(parse_u64(val.substr(0, dash)),
                                  parse_u64(val.substr(dash + 1)));
    } else if (key == "p") {
      const std::optional<double> v = parse_exact<double>(val);
      require(v.has_value(), "parse_fault_spec: '%s' is not a probability",
              val.c_str());
      p = *v;
      transient = true;
    } else if (key == "seed") {
      seed = parse_u64(val);
    } else {
      require(false, "parse_fault_spec: unknown key '%s'", key.c_str());
    }
  }
  if (transient) model.set_transient(p, seed);
  return model;
}

// --- FaultSchedule ----------------------------------------------------------

namespace {

/// Canonical event order: cycle, then nodes before links, then address —
/// a total order so schedules built in any insertion order compare equal.
bool event_less(const FaultEvent& x, const FaultEvent& y) {
  if (x.cycle != y.cycle) return x.cycle < y.cycle;
  if (x.is_node != y.is_node) return x.is_node;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

}  // namespace

std::string FaultEvent::to_string() const {
  char buf[96];
  if (is_node)
    std::snprintf(buf, sizeof buf, "node %llu",
                  static_cast<unsigned long long>(a));
  else
    std::snprintf(buf, sizeof buf, "link %llu-%llu",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
  return buf;
}

void FaultSchedule::insert(FaultEvent e) {
  // Validate on construction: apply_until and diagnose assume a sorted,
  // de-duplicated sequence, and hardware dies exactly once — a second
  // arrival for the same node or link (at any cycle) is a schedule bug,
  // not a new fault.
  for (const FaultEvent& x : events_)
    require(!(x.is_node == e.is_node && x.a == e.a && x.b == e.b),
            "FaultSchedule: duplicate arrival for %s (already fails at "
            "cycle %llu, re-added at cycle %llu)",
            e.to_string().c_str(),
            static_cast<unsigned long long>(x.cycle),
            static_cast<unsigned long long>(e.cycle));
  const auto pos = std::upper_bound(events_.begin(), events_.end(), e,
                                    event_less);
  events_.insert(pos, e);
}

void FaultSchedule::add_node_failure(u64 cycle, CubeNode v) {
  insert(FaultEvent{cycle, true, v, 0});
}

void FaultSchedule::add_link_failure(u64 cycle, CubeNode a, CubeNode b) {
  require(Hypercube::adjacent(a, b),
          "FaultSchedule: link %llu-%llu is not a cube link",
          static_cast<unsigned long long>(a),
          static_cast<unsigned long long>(b));
  if (b < a) std::swap(a, b);
  insert(FaultEvent{cycle, false, a, b});
}

void FaultSchedule::apply_until(u64 cycle, FaultSet& into,
                                std::size_t& cursor) const {
  while (cursor < events_.size() && events_[cursor].cycle <= cycle) {
    const FaultEvent& e = events_[cursor++];
    if (e.is_node)
      into.fail_node(e.a);
    else
      into.fail_link(e.a, e.b);
  }
}

std::optional<FaultEvent> FaultSchedule::diagnose(CubeNode u, CubeNode v,
                                                  u64 up_to_cycle) const {
  // Node deaths explain every incident link failure, so they win over a
  // link event; among candidates the earliest arrival is the cause.
  std::optional<FaultEvent> link_cause;
  for (const FaultEvent& e : events_) {
    if (e.cycle > up_to_cycle) break;
    if (e.is_node) {
      if (e.a == u || e.a == v) return e;
    } else if (!link_cause &&
               ((e.a == u && e.b == v) || (e.a == v && e.b == u))) {
      link_cause = e;
    }
  }
  return link_cause;
}

FaultSchedule FaultSchedule::parse(const std::string& text) {
  FaultSchedule out;
  std::istringstream is(text);
  std::string line;
  u64 lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first) || first[0] == '#') continue;  // blank or comment
    const std::optional<u64> cycle = parse_exact<u64>(first);
    require(cycle.has_value(),
            "fault schedule line %llu: '%s' is not a cycle number",
            static_cast<unsigned long long>(lineno), first.c_str());
    std::string kind;
    require(static_cast<bool>(ls >> kind),
            "fault schedule line %llu: expected 'node <v>' or 'link <a> <b>' "
            "after the cycle",
            static_cast<unsigned long long>(lineno));
    // Addresses parse as strictly as the cycle (a sign is an error, not a
    // wrapped u64).
    const auto address = [&](const char* want) {
      std::string tok;
      require(static_cast<bool>(ls >> tok), "fault schedule line %llu: %s",
              static_cast<unsigned long long>(lineno), want);
      const std::optional<u64> v = parse_exact<u64>(tok);
      require(v.has_value(),
              "fault schedule line %llu: '%s' is not a node address",
              static_cast<unsigned long long>(lineno), tok.c_str());
      return *v;
    };
    if (kind == "node") {
      out.add_node_failure(*cycle, address("'node' wants one address"));
    } else if (kind == "link") {
      const u64 a = address("'link' wants two addresses");
      const u64 b = address("'link' wants two addresses");
      require(Hypercube::adjacent(a, b),
              "fault schedule line %llu: %llu-%llu is not a cube link "
              "(addresses must differ in exactly one bit)",
              static_cast<unsigned long long>(lineno),
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b));
      out.add_link_failure(*cycle, a, b);
    } else {
      require(false,
              "fault schedule line %llu: unknown kind '%s' (want node|link)",
              static_cast<unsigned long long>(lineno), kind.c_str());
    }
    std::string extra;
    require(!(ls >> extra),
            "fault schedule line %llu: trailing junk '%s'",
            static_cast<unsigned long long>(lineno), extra.c_str());
  }
  return out;
}

FaultSchedule FaultSchedule::load(const std::string& file) {
  std::ifstream is(file);
  require(is.good(), "fault schedule: cannot open '%s'", file.c_str());
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse(buf.str());
}

FaultSchedule FaultSchedule::random(u32 cube_dim, u32 node_events,
                                    u32 link_events, u64 first_cycle,
                                    u64 spacing, u64 seed) {
  require(cube_dim >= 1 && cube_dim <= 30,
          "FaultSchedule::random: cube dimension %u outside [1, 30]",
          cube_dim);
  FaultSchedule out;
  const u64 mask = (u64{1} << cube_dim) - 1;
  FaultSet taken;  // dedup: each event must name fresh hardware
  u64 ctr = seed * 0x9e3779b97f4a7c15ull + 1;
  u64 cycle = first_cycle;
  for (u32 i = 0; i < node_events + link_events; ++i) {
    const bool want_node = i < node_events;
    for (;;) {
      const u64 r = mix64(ctr++);
      const CubeNode a = r & mask;
      if (want_node) {
        if (taken.node_failed(a)) continue;
        taken.fail_node(a);
        out.add_node_failure(cycle, a);
      } else {
        const CubeNode b = a ^ (u64{1} << (mix64(ctr++) % cube_dim));
        if (taken.link_failed(a, b)) continue;
        taken.fail_link(a, b);
        out.add_link_failure(cycle, a, b);
      }
      break;
    }
    cycle += spacing;
  }
  return out;
}

}  // namespace hj::sim
