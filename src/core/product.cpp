#include "core/product.hpp"

namespace hj {
namespace {

Mesh product_guest(const Embedding& inner, const Embedding& outer) {
  require(!inner.guest().any_wrap() && !outer.guest().any_wrap(),
          "MeshProductEmbedding: factor guests must not wrap "
          "(the torus module composes wraparound meshes)");
  return Mesh(inner.guest().shape() * outer.guest().shape());
}

/// out[i] = from[sum c_i * stride_i] for every node c of `s` in index
/// order: the node map of a re-indexing adapter, in one odometer pass.
void gather(const Shape& s, SmallVec<u64, 4> stride,
            const std::vector<CubeNode>& from, std::vector<CubeNode>& out) {
  out.resize(s.num_nodes());
  BoxOdometer odo(std::move(stride));
  odo.hi = s.extents();
  odo.start();
  for (CubeNode& v : out) {
    v = from[odo.index];
    odo.next();
  }
}

}  // namespace

MeshProductEmbedding::MeshProductEmbedding(EmbeddingPtr inner,
                                           EmbeddingPtr outer)
    : Embedding(product_guest(*inner, *outer),
                inner->host_dim() + outer->host_dim()),
      inner_(std::move(inner)),
      outer_(std::move(outer)) {}

MeshProductEmbedding::Split MeshProductEmbedding::split(MeshIndex idx) const {
  const Shape& s = guest().shape();
  const Shape& s1 = inner_->guest().shape();
  const Coord z = s.coord(idx);
  Split out;
  out.x.resize(s.dims());
  out.y.resize(s.dims());
  out.parity.resize(s.dims());
  for (u32 j = 0; j < s.dims(); ++j) {
    const u64 l1 = s1[j];
    const u64 y = z[j] / l1;
    const u64 x = z[j] % l1;
    out.y[j] = y;
    out.parity[j] = y & 1;
    out.x[j] = (y & 1) ? (l1 - 1 - x) : x;  // the reflection x' of Sec. 4.1
  }
  return out;
}

CubeNode MeshProductEmbedding::map(MeshIndex idx) const {
  const Split sp = split(idx);
  const MeshIndex xi = inner_->guest().shape().index(sp.x);
  const MeshIndex yi = outer_->guest().shape().index(sp.y);
  return combine(inner_->map(xi), outer_->map(yi));
}

void MeshProductEmbedding::map_all(std::vector<CubeNode>& out) const {
  const Shape& s = guest().shape();
  const Shape& s1 = inner_->guest().shape();
  const Shape& s2 = outer_->guest().shape();
  const u64 n = s.num_nodes();
  out.resize(n);
  if (n == 0) return;
  // Materialize both factor maps once (recursing through nested products),
  // then walk the product mesh with an odometer that keeps the inner
  // (reflected) and outer indices in step — no per-node division, no
  // Coord allocation, no virtual recursion. Crossing into the next copy
  // along an axis leaves the inner index where it is: the reflection
  // makes neighbouring copies meet at the same inner node.
  std::vector<CubeNode> im, om;
  inner_->map_all(im);
  outer_->map_all(om);
  const u32 k = s.dims();
  const u32 inner_dim = inner_->host_dim();
  SmallVec<u64, 8> st1(k, 0), st2(k, 0), x(k, 0), y(k, 0);
  for (u32 j = 0; j < k; ++j) {
    st1[j] = s1.stride(j);
    st2[j] = s2.stride(j);
  }
  u64 xi = 0, yi = 0;  // inner index of the reflected x, outer index of y
  for (u64 idx = 0;;) {
    out[idx] = (om[yi] << inner_dim) | im[xi];
    if (++idx == n) break;
    for (u32 j = k; j-- > 0;) {
      if (x[j] + 1 < s1[j]) {  // one step inside the copy
        ++x[j];
        xi = (y[j] & 1) ? xi - st1[j] : xi + st1[j];
        break;
      }
      if (y[j] + 1 < s2[j]) {  // into the next copy
        x[j] = 0;
        ++y[j];
        yi += st2[j];
        break;
      }
      // Back to z_j = 0: the last copy ends at reflected x = 0 when its
      // index is odd and at l1_j - 1 when even.
      if ((y[j] & 1) == 0) xi -= (s1[j] - 1) * st1[j];
      yi -= y[j] * st2[j];
      x[j] = 0;
      y[j] = 0;
    }
  }
}

CubePath MeshProductEmbedding::edge_path(const MeshEdge& e) const {
  const Shape& s = guest().shape();
  const Shape& s1 = inner_->guest().shape();
  const Shape& s2 = outer_->guest().shape();
  const u32 j = e.axis;
  require(!e.wrap, "MeshProductEmbedding guests have no wrap edges");

  // Normalize to the low-coordinate endpoint; reverse at the end if the
  // caller's edge ran high-to-low.
  const Coord ca = s.coord(e.a);
  const Coord cb = s.coord(e.b);
  const bool reversed = cb[j] < ca[j];
  const MeshIndex low = reversed ? e.b : e.a;
  require((reversed ? ca[j] - cb[j] : cb[j] - ca[j]) == 1,
          "edge_path: not a mesh edge");

  const Split sp = split(low);
  const u64 l1 = s1[j];
  const u64 x_low = s.coord(low)[j] % l1;

  CubePath path;
  if (x_low + 1 < l1) {
    // M1-type edge: both endpoints live in the same (reflected) inner copy.
    // In reflected coordinates the edge runs x' -> x'+1 when the copy index
    // is even and x' -> x'-1 when odd.
    const bool copy_odd = sp.parity[j] != 0;
    Coord xa = sp.x;
    const u64 lo_x = copy_odd ? xa[j] - 1 : xa[j];
    Coord x_edge = xa;
    x_edge[j] = lo_x;
    const MeshIndex ia = s1.index(x_edge);
    const MeshEdge inner_edge{ia, ia + s1.stride(j), j, false};
    CubePath inner_path = inner_->edge_path(inner_edge);
    if (copy_odd) inner_path.reverse();
    const CubeNode outer_fixed = outer_->map(s2.index(sp.y));
    for (CubeNode w : inner_path) path.push_back(combine(w, outer_fixed));
  } else {
    // M2-type edge: the inner images coincide (reflection!), the outer
    // embedding carries the whole path.
    const MeshIndex ya = s2.index(sp.y);
    const MeshEdge outer_edge{ya, ya + s2.stride(j), j, false};
    const CubePath outer_path = outer_->edge_path(outer_edge);
    const CubeNode inner_fixed = inner_->map(s1.index(sp.x));
    for (CubeNode w : outer_path) path.push_back(combine(inner_fixed, w));
  }
  if (reversed) path.reverse();
  return path;
}

void MeshProductEmbedding::walk_edge_paths(EdgeWalkFn fn) const {
  // Corollary 2 read as a traversal: every copy of the inner mesh reuses
  // the inner edge paths, and every outer edge path joins two consecutive
  // copies along the face where their (reflected) inner images coincide.
  // Each factor is walked once and each of its paths fanned out to all
  // the copies it serves; only the two factor node maps are materialized.
  // Product coordinate z_i = y_i * l1_i + x_i in an even copy and
  // y_i * l1_i + l1_i - 1 - x_i in an odd one (x the inner coordinate).
  const Shape& s = guest().shape();
  const Shape& s1 = inner_->guest().shape();
  const Shape& s2 = outer_->guest().shape();
  const u32 k = s.dims();
  const u32 d1 = inner_->host_dim();
  std::vector<CubeNode> im, om;
  inner_->map_all(im);
  outer_->map_all(om);
  SmallVec<u64, 4> st(k, 0), st1(k, 0), st2(k, 0);
  for (u32 i = 0; i < k; ++i) {
    st[i] = s.stride(i);
    st1[i] = s1.stride(i);
    st2[i] = s2.stride(i);
  }
  Coord z(k, 0);
  u64 low = 0;  // sum z_i * st_i, kept in step with z
  const auto set_z = [&](u32 i, u64 v) {
    low += (v - z[i]) * st[i];
    z[i] = v;
  };
  CubePath q;

  // M1-type edges. In reflected coordinates an inner edge runs x -> x+e_j;
  // in a copy with odd y_j that is high-to-low in the product, so the low
  // end is x+e_j and the path runs reversed. pos[2i + parity] is the low
  // end's place inside a copy. z and low follow the copy odometer axis by
  // axis.
  BoxOdometer copies(st2);
  copies.hi = s2.extents();
  copies.start();
  SmallVec<u64, 8> pos(2 * k, 0);
  inner_->walk_edge_paths(
      [&](const MeshEdge& e, const Coord& x, const CubePath& p) {
        const u32 j = e.axis;
        for (u32 i = 0; i < k; ++i) {
          pos[2 * i] = x[i];
          pos[2 * i + 1] = s1[i] - 1 - x[i] - (i == j);
          set_z(i, pos[2 * i]);
        }
        copies.restart();
        const std::size_t m = p.size();
        q.resize(m);
        for (u32 a = 0; a < k;) {
          const CubeNode o = om[copies.index] << d1;
          if (copies.c[j] & 1)
            for (std::size_t t = 0; t < m; ++t) q[t] = p[m - 1 - t] | o;
          else
            for (std::size_t t = 0; t < m; ++t) q[t] = p[t] | o;
          fn(MeshEdge{low, low + st[j], j, false}, z, q);
          a = copies.next();
          for (u32 i = a; i < k; ++i) {
            const u64 y = copies.c[i];
            set_z(i, y * s1[i] + pos[2 * i + (y & 1)]);
          }
        }
      });

  // M2-type edges. Copies y and y+e_j meet on the inner face x_j =
  // l1_j-1 (y_j even) or x_j = 0 (y_j odd), at product coordinate
  // y_j * l1_j + l1_j - 1; each outer path is carried once per inner
  // node of that face, faces[2j + parity of y_j].
  std::vector<BoxOdometer> faces(2 * k, BoxOdometer(st1));
  for (u32 f = 0; f < 2 * k; ++f) {
    const u32 j = f / 2;
    faces[f].hi = s1.extents();
    faces[f].lo[j] = (f & 1) ? 0 : s1[j] - 1;
    faces[f].hi[j] = faces[f].lo[j] + 1;
    faces[f].start();
  }
  outer_->walk_edge_paths(
      [&](const MeshEdge& e, const Coord& y, const CubePath& p) {
        const u32 j = e.axis;
        BoxOdometer& face = faces[2 * j + (y[j] & 1)];
        face.restart();
        const auto place = [&](u32 i) {
          const u64 x = face.c[i];
          return y[i] * s1[i] + ((y[i] & 1) ? s1[i] - 1 - x : x);
        };
        for (u32 i = 0; i < k; ++i) set_z(i, place(i));
        const std::size_t m = p.size();
        q.resize(m);
        for (u32 a = 0; a < k;) {
          const CubeNode in = im[face.index];
          for (std::size_t t = 0; t < m; ++t) q[t] = (p[t] << d1) | in;
          fn(MeshEdge{low, low + st[j], j, false}, z, q);
          a = face.next();
          for (u32 i = a; i < k; ++i) set_z(i, place(i));
        }
      });
}

// ---------------------------------------------------------------------------

RelabelEmbedding::RelabelEmbedding(EmbeddingPtr base, Shape target,
                                   SmallVec<u32, 4> axis_of_base)
    : Embedding(Mesh(target), base->host_dim()),
      base_(std::move(base)),
      axis_of_base_(std::move(axis_of_base)) {
  const Shape& sb = base_->guest().shape();
  require(!base_->guest().any_wrap(),
          "RelabelEmbedding: wraparound bases are not supported");
  require(axis_of_base_.size() == sb.dims(),
          "RelabelEmbedding: need one target axis per base axis");
  base_of_axis_.assign(target.dims(), -1);
  for (u32 i = 0; i < sb.dims(); ++i) {
    const u32 t = axis_of_base_[i];
    require(t < target.dims(), "RelabelEmbedding: axis out of range");
    require(base_of_axis_[t] == -1, "RelabelEmbedding: duplicate target axis");
    require(target[t] == sb[i], "RelabelEmbedding: axis length mismatch");
    base_of_axis_[t] = static_cast<i32>(i);
  }
  for (u32 t = 0; t < target.dims(); ++t)
    require(base_of_axis_[t] != -1 || target[t] == 1,
            "RelabelEmbedding: unmapped target axis must have length 1");
}

std::shared_ptr<RelabelEmbedding> RelabelEmbedding::onto(EmbeddingPtr base,
                                                         const Shape& target) {
  const Shape& sb = base->guest().shape();
  SmallVec<u32, 4> axis_of_base;
  SmallVec<u8, 4> taken(target.dims(), 0);
  for (u32 b = 0; b < sb.dims(); ++b) {
    u32 t = 0;
    while (t < target.dims() && (taken[t] || target[t] != sb[b])) ++t;
    require(t < target.dims(),
            "RelabelEmbedding::onto: no free target axis of length %llu",
            static_cast<unsigned long long>(sb[b]));
    taken[t] = 1;
    axis_of_base.push_back(t);
  }
  // The constructor rejects a left-over target axis longer than 1.
  return std::make_shared<RelabelEmbedding>(std::move(base), target,
                                            std::move(axis_of_base));
}

MeshIndex RelabelEmbedding::to_base(MeshIndex idx) const {
  const Coord c = guest().shape().coord(idx);
  const Shape& sb = base_->guest().shape();
  Coord cb(sb.dims(), 0);
  for (u32 i = 0; i < sb.dims(); ++i) cb[i] = c[axis_of_base_[i]];
  return sb.index(cb);
}

CubeNode RelabelEmbedding::map(MeshIndex idx) const {
  return base_->map(to_base(idx));
}

void RelabelEmbedding::map_all(std::vector<CubeNode>& out) const {
  std::vector<CubeNode> bm;
  base_->map_all(bm);
  const Shape& sb = base_->guest().shape();
  // Walking target axis j moves the base index by the stride of the base
  // axis it feeds (zero for the inserted length-1 axes, which never step).
  SmallVec<u64, 4> bstride(guest().dims(), 0);
  for (u32 i = 0; i < sb.dims(); ++i) bstride[axis_of_base_[i]] = sb.stride(i);
  gather(guest().shape(), std::move(bstride), bm, out);
}

CubePath RelabelEmbedding::edge_path(const MeshEdge& e) const {
  const i32 baxis = base_of_axis_[e.axis];
  assert(baxis >= 0);  // length-1 axes have no edges
  return base_->edge_path(
      MeshEdge{to_base(e.a), to_base(e.b), static_cast<u32>(baxis), e.wrap});
}

void RelabelEmbedding::walk_edge_paths(EdgeWalkFn fn) const {
  const Shape& s = guest().shape();
  const u32 kb = base_->guest().dims();
  SmallVec<u64, 4> tstride(kb, 0);  // base axis -> stride of its target axis
  for (u32 i = 0; i < kb; ++i) tstride[i] = s.stride(axis_of_base_[i]);
  Coord c(s.dims(), 0);  // inserted length-1 axes stay at 0
  base_->walk_edge_paths(
      [&](const MeshEdge& e, const Coord& cb, const CubePath& p) {
        u64 a = 0;
        for (u32 i = 0; i < kb; ++i) {
          c[axis_of_base_[i]] = cb[i];
          a += cb[i] * tstride[i];
        }
        fn(MeshEdge{a, a + tstride[e.axis], axis_of_base_[e.axis], false}, c,
           p);
      });
}

// ---------------------------------------------------------------------------

SubmeshEmbedding::SubmeshEmbedding(EmbeddingPtr base, Shape guest_shape)
    : Embedding(Mesh(guest_shape), base->host_dim()), base_(std::move(base)) {
  require(!base_->guest().any_wrap(),
          "SubmeshEmbedding: wraparound bases are not supported");
  require(guest_shape.fits_in(base_->guest().shape()),
          "SubmeshEmbedding: guest must fit inside the base guest");
}

MeshIndex SubmeshEmbedding::to_base(MeshIndex idx) const {
  return base_->guest().shape().index(guest().shape().coord(idx));
}

CubeNode SubmeshEmbedding::map(MeshIndex idx) const {
  return base_->map(to_base(idx));
}

void SubmeshEmbedding::map_all(std::vector<CubeNode>& out) const {
  std::vector<CubeNode> bm;
  base_->map_all(bm);
  const Shape& sb = base_->guest().shape();
  SmallVec<u64, 4> bstride(sb.dims(), 0);
  for (u32 i = 0; i < sb.dims(); ++i) bstride[i] = sb.stride(i);
  gather(guest().shape(), std::move(bstride), bm, out);
}

CubePath SubmeshEmbedding::edge_path(const MeshEdge& e) const {
  require(!e.wrap, "SubmeshEmbedding guests have no wrap edges");
  return base_->edge_path(MeshEdge{to_base(e.a), to_base(e.b), e.axis, false});
}

void SubmeshEmbedding::walk_edge_paths(EdgeWalkFn fn) const {
  // The base walks its whole guest; an edge is ours when its high end
  // lies inside this guest's extents, and is then re-indexed. The base
  // coordinate of its `a` end is its coordinate here too.
  const Shape& s = guest().shape();
  const u32 k = s.dims();
  SmallVec<u64, 4> stride(k, 0);
  for (u32 i = 0; i < k; ++i) stride[i] = s.stride(i);
  base_->walk_edge_paths(
      [&](const MeshEdge& e, const Coord& c, const CubePath& p) {
        u64 a = 0;
        for (u32 i = 0; i < k; ++i) {
          if (c[i] + (i == e.axis) >= s[i]) return;
          a += c[i] * stride[i];
        }
        fn(MeshEdge{a, a + stride[e.axis], e.axis, false}, c, p);
      });
}

// ---------------------------------------------------------------------------

EmbeddingPtr product_chain(std::vector<EmbeddingPtr> factors) {
  require(!factors.empty(), "product_chain: need at least one factor");
  EmbeddingPtr acc = std::move(factors.front());
  for (std::size_t i = 1; i < factors.size(); ++i)
    acc = std::make_shared<MeshProductEmbedding>(std::move(acc),
                                                 std::move(factors[i]));
  return acc;
}

}  // namespace hj
