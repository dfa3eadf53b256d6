#include "core/router.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace hj {
namespace {

struct TwoHopEdge {
  MeshEdge edge;
  CubeNode a, b;     // endpoint images
  CubeNode mid[2];   // the two candidate midpoints
  u32 choice = 0;    // current midpoint index
};

/// A Hamming-distance-2 edge image with its two candidate midpoints.
TwoHopEdge two_hop(const MeshEdge& e, CubeNode a, CubeNode b) {
  const u64 diff = a ^ b;
  const u64 bit1 = diff & (~diff + 1);
  return TwoHopEdge{e, a, b, {a ^ bit1, a ^ (diff ^ bit1)}, 0};
}

/// Load per cube link. Cubes up to Hypercube::kDenseLinkDimLimit keep a
/// dense table indexed by Hypercube::dense_link_index with a first-touch
/// dirty list, so the aggregates visit only links ever loaded (the layout
/// of verify()'s congestion counter); larger cubes key a hash map by
/// Hypercube::edge_key().
class LinkLoads {
 public:
  explicit LinkLoads(u32 dim)
      : dim_(dim), dense_(dim > 0 && dim <= Hypercube::kDenseLinkDimLimit) {
    if (dense_) {
      table_.assign((u64{1} << dim) * dim, 0);
      touched_.assign(table_.size(), 0);
    }
  }
  void add(CubeNode x, CubeNode y, i32 delta) {
    if (!dense_) {
      sparse_[Hypercube::edge_key(x, y)] += delta;
      return;
    }
    const u64 k = Hypercube::dense_link_index(x, y, dim_);
    if (!touched_[k]) {
      touched_[k] = 1;
      dirty_.push_back(k);
    }
    table_[k] += delta;
  }
  [[nodiscard]] i32 get(CubeNode x, CubeNode y) const {
    if (dense_) return table_[Hypercube::dense_link_index(x, y, dim_)];
    auto it = sparse_.find(Hypercube::edge_key(x, y));
    return it == sparse_.end() ? 0 : it->second;
  }
  [[nodiscard]] u32 max_load() const {
    i32 m = 0;
    for_each_load([&](i32 v) { m = std::max(m, v); });
    return static_cast<u32>(m);
  }
  /// Sum of squared link loads — the balance score used by
  /// route_balanced (order-independent, so the visit order is free).
  [[nodiscard]] u64 sum_squares() const {
    u64 s = 0;
    for_each_load([&](i32 v) {
      s += static_cast<u64>(v) * static_cast<u64>(v);
    });
    return s;
  }

 private:
  /// Visit the load of every link ever added to.
  template <class Fn>
  void for_each_load(Fn&& fn) const {
    if (dense_)
      for (u64 k : dirty_) fn(table_[k]);
    else
      for (const auto& [k, v] : sparse_) fn(v);
  }

  u32 dim_;
  bool dense_;
  std::vector<i32> table_;
  std::vector<u8> touched_;
  std::vector<u64> dirty_;  // first-touch order
  std::unordered_map<u64, i32> sparse_;
};

/// Cost of routing through midpoint m given current loads (the midpoint's
/// two links, scored by worst-then-sum so ties break toward balance).
u64 midpoint_cost(const LinkLoads& loads, CubeNode a, CubeNode m, CubeNode b) {
  const u32 l1 = static_cast<u32>(loads.get(a, m));
  const u32 l2 = static_cast<u32>(loads.get(m, b));
  return (u64{std::max(l1, l2)} << 32) | (l1 + l2);
}

/// The cheaper midpoint of `t` under `loads`; ties keep midpoint 0.
u32 cheaper_midpoint(const LinkLoads& loads, const TwoHopEdge& t) {
  return midpoint_cost(loads, t.a, t.mid[0], t.b) <=
                 midpoint_cost(loads, t.a, t.mid[1], t.b)
             ? 0u
             : 1u;
}

/// Add `delta` to the load of every link along `path`.
void load_path(LinkLoads& loads, const CubePath& path, i32 delta) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    loads.add(path[i], path[i + 1], delta);
}

/// Load both links of the midpoint `t` currently routes through.
void load_midpoint(LinkLoads& loads, const TwoHopEdge& t, i32 delta) {
  loads.add(t.a, t.mid[t.choice], delta);
  loads.add(t.mid[t.choice], t.b, delta);
}

/// Local improvement shared by both routers: re-evaluate each two-hop
/// choice with the edge's own load removed, until a pass changes nothing
/// or `max_passes` ran. Fills passes_used and rerouted_edges.
void improve_midpoints(LinkLoads& loads, std::vector<TwoHopEdge>& twos,
                       u32 max_passes, RouteStats& stats) {
  for (u32 pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (TwoHopEdge& t : twos) {
      load_midpoint(loads, t, -1);
      const u32 best = cheaper_midpoint(loads, t);
      if (best != t.choice) {
        t.choice = best;
        changed = true;
        ++stats.rerouted_edges;
      }
      load_midpoint(loads, t, 1);
    }
    stats.passes_used = pass + 1;
    if (!changed) break;
  }
}

}  // namespace

RouteStats route_minimize_congestion(ExplicitEmbedding& emb, u32 max_passes) {
  RouteStats stats;
  LinkLoads loads(emb.host_dim());
  std::vector<TwoHopEdge> twos;

  emb.guest().for_each_edge([&](const MeshEdge& e) {
    const CubeNode a = emb.map(e.a), b = emb.map(e.b);
    const u32 h = hamming(a, b);
    if (h == 0) return;  // many-to-one collapse: no path
    if (h == 1) {
      loads.add(a, b, 1);
      return;
    }
    if (h == 2) {
      twos.push_back(two_hop(e, a, b));
      return;
    }
    // Longer edges: keep the default e-cube route, but load its links so
    // midpoint choices below see them.
    load_path(loads, Hypercube::ecube_path(a, b), 1);
  });

  // Greedy initial assignment, most-constrained (fewest fresh links) first
  // is overkill here; simple order with cost-based choice works well.
  for (TwoHopEdge& t : twos) {
    t.choice = cheaper_midpoint(loads, t);
    load_midpoint(loads, t, 1);
  }
  improve_midpoints(loads, twos, max_passes, stats);

  for (const TwoHopEdge& t : twos)
    emb.set_edge_path(t.edge, CubePath{t.a, t.mid[t.choice], t.b});

  stats.congestion = loads.max_load();
  return stats;
}

namespace {

/// Shortest path from a to b fixing the differing bits in increasing
/// priority order (prio[bit] = rank; the identity ranking reproduces
/// Hypercube::ecube_path exactly).
CubePath prio_path(CubeNode a, CubeNode b, const std::vector<u32>& prio) {
  std::vector<u32> bits;
  for (u32 bit = 0; bit < prio.size(); ++bit)
    if ((a ^ b) >> bit & 1) bits.push_back(bit);
  std::sort(bits.begin(), bits.end(),
            [&](u32 x, u32 y) { return prio[x] < prio[y]; });
  CubePath p;
  p.push_back(a);
  CubeNode cur = a;
  for (u32 bit : bits) {
    cur ^= u64{1} << bit;
    p.push_back(cur);
  }
  return p;
}

}  // namespace

RouteStats route_balanced(ExplicitEmbedding& emb, u32 candidates,
                          u32 max_passes) {
  const u32 dim = emb.host_dim();

  struct LongEdge {
    MeshEdge edge;
    CubeNode a, b;
  };
  LinkLoads base(dim);  // forced single-hop loads, shared by every candidate
  std::vector<LongEdge> longs;
  emb.guest().for_each_edge([&](const MeshEdge& e) {
    const CubeNode a = emb.map(e.a), b = emb.map(e.b);
    const u32 h = hamming(a, b);
    if (h == 0) return;  // many-to-one collapse: no path
    if (h == 1) {
      base.add(a, b, 1);
      return;
    }
    longs.push_back({e, a, b});
  });

  RouteStats stats;
  if (longs.empty()) {
    stats.congestion = base.max_load();
    return stats;
  }

  std::vector<CubePath> best_paths;
  u64 best_score = ~u64{0};
  RouteStats best_stats;

  std::vector<u32> prio(dim);
  for (u32 k = 0; k < std::max<u32>(1, candidates); ++k) {
    // Candidate 0 is the identity (the default e-cube bit order); the
    // rest are Fisher-Yates shuffles seeded by the candidate index only.
    std::vector<u32> order(dim);
    for (u32 i = 0; i < dim; ++i) order[i] = i;
    if (k) {
      u64 s = k;
      for (u32 i = dim; i > 1; --i) {
        s = mix64(s);
        std::swap(order[i - 1], order[s % i]);
      }
    }
    for (u32 i = 0; i < dim; ++i) prio[order[i]] = i;

    LinkLoads loads = base;
    std::vector<CubePath> paths(longs.size());
    std::vector<TwoHopEdge> twos;  // improvement targets (index into paths)
    std::vector<std::size_t> two_slot;
    for (std::size_t i = 0; i < longs.size(); ++i) {
      const LongEdge& e = longs[i];
      paths[i] = prio_path(e.a, e.b, prio);
      load_path(loads, paths[i], 1);
      if (paths[i].size() == 3) {
        TwoHopEdge t = two_hop(e.edge, e.a, e.b);
        t.choice = paths[i][1] == t.mid[0] ? 0u : 1u;
        twos.push_back(t);
        two_slot.push_back(i);
      }
    }

    RouteStats cand_stats;
    improve_midpoints(loads, twos, max_passes, cand_stats);
    for (std::size_t j = 0; j < twos.size(); ++j)
      paths[two_slot[j]] =
          CubePath{twos[j].a, twos[j].mid[twos[j].choice], twos[j].b};

    // Worst link load, then sum of squared loads: strictly-better-only
    // replacement keeps the default order on ties.
    cand_stats.congestion = loads.max_load();
    const u64 score =
        (u64{cand_stats.congestion} << 40) |
        std::min<u64>(loads.sum_squares(), (u64{1} << 40) - 1);
    if (score < best_score) {
      best_score = score;
      best_paths = std::move(paths);
      best_stats = cand_stats;
    }
  }

  for (std::size_t i = 0; i < longs.size(); ++i)
    emb.set_edge_path(longs[i].edge, best_paths[i]);
  return best_stats;
}

namespace {

/// Backward-BFS distances for find_detour. Cubes up to
/// Hypercube::kDenseNodeDimLimit (and budgets that fit a byte) use a
/// per-thread dense array holding distance + 1 (0 = unreached), all-zero
/// between calls: each call clears exactly the nodes on its visit list.
/// Larger cubes use a hash map. The visit list is also the BFS FIFO.
class DetourDist {
 public:
  DetourDist(u32 dim, u32 budget)
      : s_(scratch()),
        dense_(dim <= Hypercube::kDenseNodeDimLimit && budget < 0xff) {
    if (dense_ && s_.dist.size() < (u64{1} << dim))
      s_.dist.resize(u64{1} << dim, 0);
    s_.order.clear();
  }
  DetourDist(const DetourDist&) = delete;
  DetourDist& operator=(const DetourDist&) = delete;
  ~DetourDist() {
    if (dense_)
      for (CubeNode v : s_.order) s_.dist[v] = 0;
  }

  [[nodiscard]] bool reached(CubeNode v) const {
    return dense_ ? s_.dist[v] != 0 : sparse_.count(v) != 0;
  }
  [[nodiscard]] u32 at(CubeNode v) const {
    return dense_ ? s_.dist[v] - 1u : sparse_.at(v);
  }
  void reach(CubeNode v, u32 d) {
    if (dense_)
      s_.dist[v] = static_cast<u8>(d + 1);
    else
      sparse_.emplace(v, d);
    s_.order.push_back(v);
  }
  /// Reached nodes in visit order.
  [[nodiscard]] const std::vector<CubeNode>& order() const {
    return s_.order;
  }

 private:
  struct Scratch {
    std::vector<u8> dist;
    std::vector<CubeNode> order;
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }

  Scratch& s_;
  bool dense_;
  std::unordered_map<CubeNode, u32> sparse_;
};

/// Healthy shortest path from `a` to `b` of length <= `budget`, choosing
/// the least-loaded link at every step; empty path when none exists.
/// Deterministic: BFS layers are explored in neighbor-bit order and ties
/// break toward the smaller node address.
CubePath find_detour(u32 dim, const LinkLoads& loads, const FaultSet& faults,
                     CubeNode a, CubeNode b, u32 budget) {
  // Backward BFS from b over the healthy subgraph, bounded by `budget`.
  DetourDist dist(dim, budget);
  dist.reach(b, 0);
  for (std::size_t head = 0; head < dist.order().size(); ++head) {
    const CubeNode v = dist.order()[head];
    const u32 d = dist.at(v);
    if (v == a || d == budget) continue;
    for (u32 bit = 0; bit < dim; ++bit) {
      const CubeNode w = Hypercube::neighbor(v, bit);
      if (dist.reached(w) || faults.node_failed(w) || faults.link_failed(v, w))
        continue;
      dist.reach(w, d + 1);
    }
  }
  if (!dist.reached(a)) return {};

  // Forward load-greedy walk along strictly decreasing distance-to-b.
  CubePath path;
  path.push_back(a);
  CubeNode cur = a;
  while (cur != b) {
    const u32 d = dist.at(cur);
    CubeNode best = cur;
    i32 best_load = 0;
    for (u32 bit = 0; bit < dim; ++bit) {
      const CubeNode w = Hypercube::neighbor(cur, bit);
      if (!dist.reached(w) || dist.at(w) + 1 != d) continue;
      if (faults.link_failed(cur, w)) continue;
      const i32 l = loads.get(cur, w);
      if (best == cur || l < best_load || (l == best_load && w < best)) {
        best = w;
        best_load = l;
      }
    }
    assert(best != cur);  // BFS reached cur via some healthy downhill link
    path.push_back(best);
    cur = best;
  }
  return path;
}

/// Worst-then-sum cost of laying `path` on top of `loads` (the path's own
/// links are assumed absent from `loads`).
u64 path_cost(const LinkLoads& loads, const CubePath& path) {
  u32 worst = 0;
  u64 sum = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const u32 l = static_cast<u32>(loads.get(path[i], path[i + 1])) + 1;
    worst = std::max(worst, l);
    sum += l;
  }
  return (u64{worst} << 32) | std::min<u64>(sum, 0xffffffffu);
}

}  // namespace

DetourStats route_around_faults(ExplicitEmbedding& emb, const FaultSet& faults,
                                u32 max_added_dilation, u32 max_passes) {
  DetourStats stats;
  const u32 dim = emb.host_dim();

  struct Affected {
    MeshEdge edge;
    CubeNode a, b;
    CubePath path;  // current (replacement) path; empty until routed
  };
  LinkLoads loads(dim);
  std::vector<Affected> affected;

  emb.guest().for_each_edge([&](const MeshEdge& e) {
    const CubePath p = emb.edge_path(e);
    if (faults.path_avoids(p)) {
      load_path(loads, p, 1);
      return;
    }
    const CubeNode a = emb.map(e.a), b = emb.map(e.b);
    if (faults.node_failed(a) || faults.node_failed(b)) {
      // No route can fix an image sitting on a dead node.
      ++stats.unroutable_edges;
      stats.ok = false;
      return;
    }
    affected.push_back({e, a, b, {}});
  });

  // Shortest-first, load-greedy initial assignment.
  for (Affected& f : affected) {
    const u32 budget = hamming(f.a, f.b) + max_added_dilation;
    f.path = find_detour(dim, loads, faults, f.a, f.b, budget);
    if (f.path.empty()) {
      ++stats.unroutable_edges;
      stats.ok = false;
      continue;
    }
    load_path(loads, f.path, 1);
  }

  // Local improvement over the detoured edges: re-route each with its own
  // load removed, keep the cheaper of (old path, fresh detour).
  for (u32 pass = 0; pass < max_passes; ++pass) {
    bool changed = false;
    for (Affected& f : affected) {
      if (f.path.empty()) continue;
      load_path(loads, f.path, -1);
      const u32 budget = hamming(f.a, f.b) + max_added_dilation;
      CubePath fresh = find_detour(dim, loads, faults, f.a, f.b, budget);
      if (!fresh.empty() && path_cost(loads, fresh) < path_cost(loads, f.path)) {
        f.path = std::move(fresh);
        changed = true;
      }
      load_path(loads, f.path, 1);
    }
    if (!changed) break;
  }

  for (Affected& f : affected) {
    if (f.path.empty()) continue;
    ++stats.detoured_edges;
    stats.max_added_dilation =
        std::max(stats.max_added_dilation,
                 static_cast<u32>(f.path.size() - 1) - hamming(f.a, f.b));
    emb.set_edge_path(f.edge, f.path);
  }
  stats.congestion = loads.max_load();
  return stats;
}

std::optional<CertifiedRoute> route_and_certify(
    std::shared_ptr<ExplicitEmbedding> candidate, const FaultSet& faults,
    u32 detour_budget, u32 max_dilation) {
  const DetourStats detour =
      route_around_faults(*candidate, faults, detour_budget);
  if (!detour.ok) return std::nullopt;
  VerifyReport report = verify(*candidate, faults);
  if (!report.valid || !report.fault_free || report.dilation > max_dilation)
    return std::nullopt;
  return CertifiedRoute{std::move(candidate), std::move(report), detour};
}

}  // namespace hj
