#include "core/certify.hpp"

#include <algorithm>
#include <map>

#include "core/product.hpp"

namespace hj {
namespace {

using Hist = std::vector<u64>;

/// h[bin] += count. Only a nonzero count grows h, so a histogram ends at
/// its largest occupied bin, as verify() writes it.
void add(Hist& h, u64 bin, u64 count) {
  if (count == 0) return;
  if (h.size() <= bin) h.resize(bin + 1, 0);
  h[bin] += count;
}

/// What one level of a chain holds inside a box of its guest: the
/// dilation histogram of the guest edges with both ends in the box, and
/// the histogram of the host links their paths use, by load (bin 0 is
/// never counted).
struct BoxReport {
  Hist dil;
  Hist load;

  void add_times(const BoxReport& o, u64 times) {
    for (u64 b = 0; b < o.dil.size(); ++b) add(dil, b, o.dil[b] * times);
    for (u64 b = 0; b < o.load.size(); ++b) add(load, b, o.load[b] * times);
  }
};

/// The half-open interval [lo, hi) of one axis.
struct Span {
  u64 lo = 0, hi = 0;
  [[nodiscard]] u64 size() const noexcept { return hi - lo; }
  [[nodiscard]] bool empty() const noexcept { return hi <= lo; }
};

/// The box lo <= c < hi of a guest.
struct Box {
  Coord lo, hi;

  [[nodiscard]] u64 num_nodes() const noexcept {
    u64 n = 1;
    for (std::size_t a = 0; a < lo.size(); ++a) n *= hi[a] - lo[a];
    return n;
  }
  void set(u32 a, Span s) {
    lo[a] = s.lo;
    hi[a] = s.hi;
  }
};

/// The part of copy y of an inner mesh of extent l, along one axis, that
/// lies in [lo, hi) of the product axis: in the copy's own coordinates,
/// which run reflected when y is odd (Corollary 2).
Span clip(u64 y, u64 l, u64 lo, u64 hi) {
  const u64 base = y * l;
  const u64 a = lo > base ? lo - base : 0;
  const u64 b = hi > base ? std::min(hi - base, l) : 0;
  if (a >= b) return {};
  return (y & 1) ? Span{l - b, l - a} : Span{a, b};
}

/// One leaf of a flattened chain. A Gray leaf is known in closed form.
/// Any other leaf lists its edges, each with the coordinate of its `a`
/// end and the host links of its path as dense ids, read from one walk
/// after verify() has accepted the leaf.
struct Leaf {
  struct Edge {
    Coord c;
    u32 axis = 0;
    u32 hop0 = 0;  // the path's first link in hop_link
    u32 hops = 0;
  };

  const Embedding* emb = nullptr;
  bool gray = false;
  std::vector<Edge> edges;
  std::vector<u32> hop_link;
  u32 links = 0;
};

/// Reads `emb` as a leaf; false when it cannot be composed: it wraps, is
/// many-to-one, or is not Gray and fails verify().
bool read_leaf(const Embedding& emb, Leaf& leaf) {
  leaf.emb = &emb;
  if (emb.guest().any_wrap() || !emb.one_to_one()) return false;
  leaf.gray = dynamic_cast<const GrayEmbedding*>(&emb) != nullptr;
  if (leaf.gray) return true;
  if (!verify(emb).valid) return false;
  std::vector<u64> keys;
  emb.walk_edge_paths(
      [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
        leaf.edges.push_back({c, e.axis, static_cast<u32>(keys.size()),
                              static_cast<u32>(p.size() - 1)});
        for (std::size_t t = 0; t + 1 < p.size(); ++t)
          keys.push_back(Hypercube::edge_key(p[t], p[t + 1]));
      });
  std::vector<u64> ids(keys);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  leaf.links = static_cast<u32>(ids.size());
  leaf.hop_link.reserve(keys.size());
  for (const u64 key : keys)
    leaf.hop_link.push_back(static_cast<u32>(
        std::lower_bound(ids.begin(), ids.end(), key) - ids.begin()));
  return true;
}

/// The leaves of a product tree, inner first.
void flatten(const Embedding& emb, std::vector<const Embedding*>& out) {
  if (const auto* p = dynamic_cast<const MeshProductEmbedding*>(&emb)) {
    flatten(p->inner(), out);
    flatten(p->outer(), out);
  } else {
    out.push_back(&emb);
  }
}

/// The left fold P_0 = F_0, P_i = P_{i-1} * F_i of a chain's leaves, read
/// box by box. P_i's host links split into the inner links of P_{i-1}'s
/// copies, which sit on distinct outer images (F_i is one-to-one) and so
/// share no link, and the outer links that carry F_i's edges across the
/// copies' faces. A box's report is memoized per level for the call.
class Fold {
 public:
  explicit Fold(std::vector<const Leaf*> chain) : chain_(std::move(chain)) {
    Coord ext = shape(0).extents();
    inner_.push_back(ext);  // level 0 has no inner mesh
    for (u32 i = 1; i < chain_.size(); ++i) {
      inner_.push_back(ext);
      for (u32 a = 0; a < ext.size(); ++a) ext[a] *= shape(i)[a];
    }
  }

  /// The report of P_level on a nonempty box of its guest.
  const BoxReport& report(u32 level, const Box& box) {
    std::vector<u64> key{level};
    for (std::size_t a = 0; a < box.lo.size(); ++a) {
      key.push_back(box.lo[a]);
      key.push_back(box.hi[a]);
    }
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    BoxReport r;
    if (level == 0) {
      leaf_in(*chain_[0], box, r);
    } else {
      copies_in(level, box, r);
      faces_in(level, box, r);
    }
    return memo_.emplace(std::move(key), std::move(r)).first->second;
  }

 private:
  [[nodiscard]] const Shape& shape(u32 level) const {
    return chain_[level]->emb->guest().shape();
  }

  /// Level 0: the leaf's own edges in the box.
  static void leaf_in(const Leaf& f, const Box& box, BoxReport& out) {
    const u32 k = static_cast<u32>(box.lo.size());
    if (f.gray) {
      // Every Gray edge is one hop, on a link no other edge uses.
      u64 edges = 0;
      for (u32 j = 0; j < k; ++j) {
        u64 t = box.hi[j] - box.lo[j] - 1;
        for (u32 a = 0; a < k; ++a)
          if (a != j) t *= box.hi[a] - box.lo[a];
        edges += t;
      }
      add(out.dil, 1, edges);
      add(out.load, 1, edges);
      return;
    }
    std::vector<u32> load(f.links, 0);
    for (const Leaf::Edge& e : f.edges) {
      bool in = true;
      for (u32 a = 0; a < k && in; ++a)
        in = box.lo[a] <= e.c[a] && e.c[a] + (a == e.axis) < box.hi[a];
      if (!in) continue;
      add(out.dil, e.hops, 1);
      for (u32 t = 0; t < e.hops; ++t) ++load[f.hop_link[e.hop0 + t]];
    }
    for (const u32 c : load) add(out.load, c, c > 0);
  }

  /// Level i's inner links: each copy of P_{i-1} the box meets adds
  /// P_{i-1}'s report on its clip. Along an axis the clips are few (the
  /// whole copy, and the partial copies at the two ends of the box), so
  /// copies are grouped per axis by clip and counted.
  void copies_in(u32 level, const Box& box, BoxReport& out) {
    struct Class {
      Span clip;
      u64 copies;
    };
    const Coord& l1 = inner_[level];
    const u32 k = static_cast<u32>(l1.size());
    std::vector<SmallVec<Class, 4>> classes(k);
    for (u32 a = 0; a < k; ++a) {
      const u64 end = (box.hi[a] + l1[a] - 1) / l1[a];
      for (u64 y = box.lo[a] / l1[a]; y < end; ++y) {
        const Span s = clip(y, l1[a], box.lo[a], box.hi[a]);
        if (s.empty()) continue;
        auto it = std::find_if(
            classes[a].begin(), classes[a].end(), [&](const Class& c) {
              return c.clip.lo == s.lo && c.clip.hi == s.hi;
            });
        if (it != classes[a].end())
          ++it->copies;
        else
          classes[a].push_back({s, 1});
      }
      if (classes[a].empty()) return;
    }
    SmallVec<u32, 4> pick(k, 0);
    Box b{Coord(k, 0), Coord(k, 0)};
    for (;;) {
      u64 copies = 1;
      for (u32 a = 0; a < k; ++a) {
        const Class& c = classes[a][pick[a]];
        b.set(a, c.clip);
        copies *= c.copies;
      }
      out.add_times(report(level - 1, b), copies);
      u32 a = 0;
      while (a < k && ++pick[a] == classes[a].size()) pick[a++] = 0;
      if (a == k) break;
    }
  }

  /// The carriers of F_i's edge at y along axis j: the inner nodes of
  /// copy y's face x_j = l1_j - 1 (y_j even) or x_j = 0 (y_j odd) inside
  /// the box, in P_{i-1}'s coordinates. False when there are none.
  bool carriers(u32 level, const Box& box, const Coord& y, u32 j,
                Box& x) const {
    const Coord& l1 = inner_[level];
    const u64 z = y[j] * l1[j] + l1[j] - 1;  // the low end's coordinate
    if (z < box.lo[j] || z + 1 >= box.hi[j]) return false;
    for (u32 a = 0; a < l1.size(); ++a) {
      const Span s = a == j ? Span{(y[j] & 1) ? 0 : l1[j] - 1,
                                   (y[j] & 1) ? 1 : l1[j]}
                            : clip(y[a], l1[a], box.lo[a], box.hi[a]);
      if (s.empty()) return false;
      x.set(a, s);
    }
    return true;
  }

  /// Level i's outer links. F_i's edge at y along axis j joins copy y to
  /// copy y + e_j, once through each carrier, each carrier on its own
  /// copy of F_i's links (P_{i-1} is one-to-one).
  void faces_in(u32 level, const Box& box, BoxReport& out) const {
    const Leaf& f = *chain_[level];
    const Coord& l1 = inner_[level];
    const Shape& l2 = shape(level);
    const u32 k = static_cast<u32>(l1.size());
    if (f.gray) {
      // One hop per carrier on a link of its own. The carriers of the
      // axis-j edges are every y with y_j < l2_j - 1 whose face is in the
      // box, times the clip sizes along the other axes: a product.
      SmallVec<u64, 4> across(k, 0);
      for (u32 a = 0; a < k; ++a)
        for (u64 y = 0; y < l2[a]; ++y)
          across[a] += clip(y, l1[a], box.lo[a], box.hi[a]).size();
      u64 carried = 0;
      for (u32 j = 0; j < k; ++j) {
        u64 t = 0;
        for (u64 y = 0; y + 1 < l2[j]; ++y) {
          const u64 z = y * l1[j] + l1[j] - 1;
          t += z >= box.lo[j] && z + 1 < box.hi[j];
        }
        for (u32 a = 0; a < k; ++a)
          if (a != j) t *= across[a];
        carried += t;
      }
      add(out.dil, 1, carried);
      add(out.load, 1, carried);
      return;
    }
    // Each edge's carriers form a box. Cut every axis at every carrier
    // bound: each cell of the cut grid then lies wholly inside or outside
    // each carrier box, so all its nodes see the same loads on their
    // copies of F_i's links.
    struct Placed {
      Box x;
      const Leaf::Edge* e;
    };
    std::vector<Placed> placed;
    std::vector<std::vector<u64>> cuts(k);
    Box x{Coord(k, 0), Coord(k, 0)};
    for (const Leaf::Edge& e : f.edges) {
      if (!carriers(level, box, e.c, e.axis, x)) continue;
      add(out.dil, e.hops, x.num_nodes());
      for (u32 a = 0; a < k; ++a) {
        cuts[a].push_back(x.lo[a]);
        cuts[a].push_back(x.hi[a]);
      }
      placed.push_back({x, &e});
    }
    if (placed.empty()) return;
    for (std::vector<u64>& c : cuts) {
      std::sort(c.begin(), c.end());
      c.erase(std::unique(c.begin(), c.end()), c.end());
    }
    std::vector<u32> load(f.links, 0);
    std::vector<u32> used;
    SmallVec<u32, 4> cell(k, 0);  // per axis, the interval [cuts[i], cuts[i+1])
    for (;;) {
      u64 nodes = 1;
      for (u32 a = 0; a < k; ++a)
        nodes *= cuts[a][cell[a] + 1] - cuts[a][cell[a]];
      for (const Placed& p : placed) {
        bool in = true;
        for (u32 a = 0; a < k && in; ++a)
          in = p.x.lo[a] <= cuts[a][cell[a]] &&
               cuts[a][cell[a] + 1] <= p.x.hi[a];
        if (!in) continue;
        for (u32 t = 0; t < p.e->hops; ++t) {
          const u32 id = f.hop_link[p.e->hop0 + t];
          if (load[id]++ == 0) used.push_back(id);
        }
      }
      for (const u32 id : used) {
        add(out.load, load[id], nodes);
        load[id] = 0;
      }
      used.clear();
      u32 a = 0;
      while (a < k && ++cell[a] + 1 == cuts[a].size()) cell[a++] = 0;
      if (a == k) break;
    }
  }

  std::vector<const Leaf*> chain_;
  std::vector<Coord> inner_;  // inner_[i]: the extents of P_{i-1}
  std::map<std::vector<u64>, BoxReport> memo_;
};

}  // namespace

VerifyReport certify(const Embedding& emb, bool* composed) {
  if (composed) *composed = false;
  // A submesh of a chain is the chain read in the submesh's box.
  const auto* sub = dynamic_cast<const SubmeshEmbedding*>(&emb);
  std::vector<const Embedding*> order;
  flatten(sub ? sub->base() : emb, order);
  if (order.size() == 1 && !dynamic_cast<const GrayEmbedding*>(order[0]))
    return verify(emb);  // a lone table: nothing to compose
  // A factor plan recurring in the chain is one object: read it once.
  std::vector<Leaf> leaves;
  leaves.reserve(order.size());
  std::vector<const Leaf*> chain;
  for (const Embedding* e : order) {
    auto it = std::find_if(leaves.begin(), leaves.end(),
                           [&](const Leaf& l) { return l.emb == e; });
    if (it == leaves.end()) {
      leaves.emplace_back();
      if (!read_leaf(*e, leaves.back())) return verify(emb);
      it = leaves.end() - 1;
    }
    chain.push_back(&*it);
  }

  const Mesh& guest = emb.guest();
  const u32 k = guest.dims();
  Fold fold(std::move(chain));
  const BoxReport& b = fold.report(static_cast<u32>(order.size() - 1),
                                   Box{Coord(k, 0), guest.shape().extents()});

  VerifyReport r;
  r.guest_nodes = guest.num_nodes();
  r.guest_edges = guest.num_edges();
  r.host_dim = emb.host_dim();
  r.expansion = emb.expansion();
  r.minimal_expansion = emb.minimal_expansion();
  u64 edges = 0, load_sum = 0, used = 0;
  for (u64 d = 0; d < b.dil.size(); ++d) {
    edges += b.dil[d];
    r.wirelength += d * b.dil[d];
  }
  for (u64 c = 0; c < b.load.size(); ++c) {
    used += b.load[c];
    load_sum += c * b.load[c];
  }
  // Every guest edge once, and every hop on exactly one link (the
  // double-counting identity verify() asserts); anything else goes to
  // verify().
  if (edges != r.guest_edges || load_sum != r.wirelength) return verify(emb);

  r.dilation_histogram = b.dil;
  r.dilation = b.dil.empty() ? 0 : static_cast<u32>(b.dil.size() - 1);
  r.avg_dilation = r.guest_edges ? static_cast<double>(r.wirelength) /
                                       static_cast<double>(r.guest_edges)
                                 : 0.0;
  const u64 host_edges = emb.host().num_edges();
  r.congestion = b.load.empty() ? 0 : static_cast<u32>(b.load.size() - 1);
  r.congestion_histogram = b.load;
  if (!r.congestion_histogram.empty())
    r.congestion_histogram[0] = host_edges - used;
  else if (host_edges > 0)
    r.congestion_histogram.assign(1, host_edges);
  r.avg_congestion = host_edges ? static_cast<double>(r.wirelength) /
                                      static_cast<double>(host_edges)
                                : 0.0;
  r.load_factor = 1;  // one-to-one leaves make a one-to-one product
  r.bounds = cost::lower_bounds(guest, r.host_dim, emb.one_to_one());
  if (composed) *composed = true;
  return r;
}

}  // namespace hj
