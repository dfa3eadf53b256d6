#include "core/certify.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "core/direct.hpp"
#include "core/product.hpp"
#include "obs/obs.hpp"

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

/// C(t, m), for the small t of a link's users.
u64 binom(u32 t, u32 m) {
  u64 c = 1;
  for (u32 i = 0; i < m; ++i) c = c * (t - i) / (i + 1);
  return c;
}

/// The leaf `base` read through a relabel that sends base axis i to axis
/// axis_of_base[i] of a rank-k guest. Its links, and so its users, are
/// the base's.
void relabel_leaf(const ChainLeaf& base, const SmallVec<u32, 4>& axis_of_base,
                  u32 k, ChainLeaf& out) {
  out.edges.clear();
  out.edges.reserve(base.edges.size());
  for (const ChainLeaf::Edge& e : base.edges) {
    Coord c(k, 0);  // inserted length-1 axes stay at 0
    for (u32 i = 0; i < axis_of_base.size(); ++i) c[axis_of_base[i]] = e.c[i];
    out.edges.push_back({c, axis_of_base[e.axis], e.hops});
  }
  out.user_first = base.user_first;
  out.user_edge = base.user_edge;
}

/// One leaf of a flattened chain. A Gray leaf is known in closed form;
/// any other leaf is folded from its ChainLeaf.
struct Leaf {
  const Embedding* emb = nullptr;
  bool gray = false;
  const ChainLeaf* paths = nullptr;  // a stored leaf, or `read`
  ChainLeaf read;
};

/// Reads `emb` as a leaf; false when it cannot be composed.
bool read_leaf(const Embedding& emb, Leaf& leaf) {
  leaf.emb = &emb;
  if (emb.guest().any_wrap() || !emb.one_to_one()) return false;
  leaf.gray = dynamic_cast<const GrayEmbedding*>(&emb) != nullptr;
  if (leaf.gray) return true;
  leaf.paths = stored_chain_leaf(emb, leaf.read);
  // Timing-kind: measure() certifies the candidates of best() calls,
  // which run or are served from the shared cache as the workers race.
  if (obs::enabled()) {
    static obs::Counter& stored = obs::Registry::global().counter(
        "certify.leaf.stored", obs::Kind::Timing);
    static obs::Counter& walked = obs::Registry::global().counter(
        "certify.leaf.walked", obs::Kind::Timing);
    (leaf.paths ? stored : walked).add();
  }
  if (leaf.paths) return true;
  std::optional<ChainLeaf> read = read_chain_leaf(emb);
  if (!read) return false;
  leaf.read = std::move(*read);
  leaf.paths = &leaf.read;
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
    Key key{level};
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
    const ChainLeaf& p = *f.paths;
    std::vector<u8> in(p.edges.size(), 1);
    for (u32 i = 0; i < p.edges.size(); ++i) {
      const ChainLeaf::Edge& e = p.edges[i];
      for (u32 a = 0; a < k && in[i]; ++a)
        in[i] = box.lo[a] <= e.c[a] && e.c[a] + (a == e.axis) < box.hi[a];
      if (in[i]) add(out.dil, e.hops, 1);
    }
    for (u32 l = 0; l < p.links(); ++l) {
      u64 load = 0;
      for (u32 u = p.user_first[l]; u < p.user_first[l + 1]; ++u)
        load += in[p.user_edge[u]];
      add(out.load, load, load > 0);
    }
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
    // Each edge's carriers form a box X_e, and the copy of link L at
    // carrier x carries the users of L whose boxes hold x. The number of
    // x whose copy carries exactly m users follows by inclusion-exclusion
    // over those boxes: E_m = sum_{t >= m} (-1)^(t-m) C(t, m) S_t, where
    // S_t sums the sizes of the intersections of t of them.
    const ChainLeaf& p = *f.paths;
    constexpr u32 kNone = ~u32{0};
    std::vector<u32> at(p.edges.size(), kNone);  // edge -> its box in xs
    std::vector<Box> xs;
    Box x{Coord(k, 0), Coord(k, 0)};
    for (u32 i = 0; i < p.edges.size(); ++i) {
      const ChainLeaf::Edge& e = p.edges[i];
      if (!carriers(level, box, e.c, e.axis, x)) continue;
      at[i] = static_cast<u32>(xs.size());
      xs.push_back(x);
      add(out.dil, e.hops, x.num_nodes());
    }
    if (xs.empty()) return;
    Users users;
    const Box all{Coord(k, 0), Coord(k, ~u64{0})};
    for (u32 l = 0; l < p.links(); ++l) {
      users.clear();
      for (u32 u = p.user_first[l]; u < p.user_first[l + 1]; ++u)
        if (at[p.user_edge[u]] != kNone)
          users.push_back(&xs[at[p.user_edge[u]]]);
      std::array<u64, kMaxLinkUsers + 1> sums{};
      intersections(users, 0, all, sums);
      const u32 n = static_cast<u32>(users.size());
      for (u32 m = 1; m <= n; ++m) {
        u64 exact = 0;  // wraps through the negative partial sums
        for (u32 t = m; t <= n; ++t) {
          const u64 term = binom(t, m) * sums[t];
          exact = (t - m) % 2 ? exact - term : exact + term;
        }
        add(out.load, m, exact);
      }
    }
  }

  using Users = SmallVec<const Box*, kMaxLinkUsers>;

  /// sums[t] += the size of `in` intersected with each t - |chosen| more
  /// of users[from..], over every such choice; `in` holds the intersection
  /// of the users chosen so far. Empty intersections end the branch.
  static void intersections(const Users& users, u32 from, const Box& in,
                            std::array<u64, kMaxLinkUsers + 1>& sums,
                            u32 chosen = 0) {
    const u32 k = static_cast<u32>(in.lo.size());
    for (u32 i = from; i < users.size(); ++i) {
      Box b = in;
      u64 size = 1;
      for (u32 a = 0; a < k && size; ++a) {
        b.lo[a] = std::max(in.lo[a], users[i]->lo[a]);
        b.hi[a] = std::min(in.hi[a], users[i]->hi[a]);
        size = b.lo[a] < b.hi[a] ? size * (b.hi[a] - b.lo[a]) : 0;
      }
      if (size == 0) continue;
      sums[chosen + 1] += size;
      intersections(users, i + 1, b, sums, chosen + 1);
    }
  }

  /// (level, box.lo[0], box.hi[0], ...), inline for k <= 4.
  using Key = SmallVec<u64, 9>;
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const {
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  };

  std::vector<const Leaf*> chain_;
  std::vector<Coord> inner_;  // inner_[i]: the extents of P_{i-1}
  std::map<Key, BoxReport, KeyLess> memo_;
};

}  // namespace

std::optional<ChainLeaf> read_chain_leaf(const Embedding& emb) {
  if (emb.guest().any_wrap() || !emb.one_to_one() || !verify(emb).valid)
    return std::nullopt;
  ChainLeaf leaf;
  leaf.edges.reserve(emb.guest().num_edges());
  struct Hop {
    u64 key;  // the link's
    u32 edge;
  };
  std::vector<Hop> hops;
  emb.walk_edge_paths(
      [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
        const auto i = static_cast<u32>(leaf.edges.size());
        leaf.edges.push_back({c, e.axis, static_cast<u32>(p.size() - 1)});
        for (std::size_t t = 0; t + 1 < p.size(); ++t)
          hops.push_back({Hypercube::edge_key(p[t], p[t + 1]), i});
      });
  // In key order, a link's hops are one run, its users in edge order.
  std::sort(hops.begin(), hops.end(), [](const Hop& x, const Hop& y) {
    return x.key != y.key ? x.key < y.key : x.edge < y.edge;
  });
  leaf.user_edge.reserve(hops.size());
  for (u32 i = 0; i < hops.size(); ++i) {
    if (i == 0 || hops[i].key != hops[i - 1].key) leaf.user_first.push_back(i);
    leaf.user_edge.push_back(hops[i].edge);
  }
  leaf.user_first.push_back(static_cast<u32>(hops.size()));
  for (u32 l = 0; l < leaf.links(); ++l)
    if (leaf.user_first[l + 1] - leaf.user_first[l] > kMaxLinkUsers)
      return std::nullopt;
  return leaf;
}

const ChainLeaf* stored_chain_leaf(const Embedding& emb, ChainLeaf& scratch) {
  const auto* r = dynamic_cast<const RelabelEmbedding*>(&emb);
  if (!r) return table_leaf(emb);
  ChainLeaf inner;
  const ChainLeaf* base = stored_chain_leaf(r->base(), inner);
  if (!base) return nullptr;
  relabel_leaf(*base, r->axis_of_base(), r->guest().dims(), scratch);
  return &scratch;
}

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
