#include "core/product.hpp"

#include <algorithm>

namespace hj {
namespace {

Mesh product_guest(const Embedding& inner, const Embedding& outer) {
  require(!inner.guest().any_wrap() && !outer.guest().any_wrap(),
          "MeshProductEmbedding: factor guests must not wrap "
          "(the torus module composes wraparound meshes)");
  return Mesh(inner.guest().shape() * outer.guest().shape());
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
  // then walk the product mesh with an odometer that tracks the inner/outer
  // coordinate split incrementally — no per-node division, no Coord
  // allocation, no virtual recursion.
  std::vector<CubeNode> im, om;
  inner_->map_all(im);
  outer_->map_all(om);
  const u32 k = s.dims();
  const u32 inner_dim = inner_->host_dim();
  SmallVec<u64, 8> st1(k, 0), st2(k, 0);
  {
    u64 a = 1, b = 1;
    for (u32 j = k; j-- > 0;) {
      st1[j] = a;
      a *= s1[j];
      st2[j] = b;
      b *= s2[j];
    }
  }
  Coord z(k, 0), x(k, 0), y(k, 0);  // z_j = y_j * l1j + x_j (unreflected x)
  for (u64 idx = 0;;) {
    u64 xi = 0, yi = 0;
    for (u32 j = 0; j < k; ++j) {
      // Reflect the inner coordinate in odd copies (Sec. 4.1).
      xi += ((y[j] & 1) ? s1[j] - 1 - x[j] : x[j]) * st1[j];
      yi += y[j] * st2[j];
    }
    out[idx] = (om[yi] << inner_dim) | im[xi];
    if (++idx == n) break;
    for (u32 j = k; j-- > 0;) {
      if (z[j] + 1 < s[j]) {
        ++z[j];
        if (x[j] + 1 < s1[j]) {
          ++x[j];
        } else {
          x[j] = 0;
          ++y[j];
        }
        break;
      }
      z[j] = 0;
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

void MeshProductEmbedding::for_each_edge_path(const EdgePathFn& fn) const {
  // Corollary 2 read as a traversal: every copy of the inner mesh reuses
  // the inner edge paths, and every outer edge path joins two consecutive
  // copies along the face where their (reflected) inner images coincide.
  // Each factor is walked once and each of its paths fanned out to all
  // the copies it serves; only the two factor node maps are materialized.
  const Shape& s = guest().shape();
  const Shape& s1 = inner_->guest().shape();
  const Shape& s2 = outer_->guest().shape();
  const u32 k = s.dims();
  const u64 n2 = s2.num_nodes();
  std::vector<CubeNode> im, om;
  inner_->map_all(im);
  outer_->map_all(om);
  SmallVec<u64, 4> st(k, 0), st1(k, 0);
  for (u32 i = 0; i < k; ++i) {
    st[i] = s.stride(i);
    st1[i] = s1.stride(i);
  }
  // Product index of reflected inner coordinate x in outer copy y.
  const auto index_of = [&](const Coord& x, const Coord& y) {
    u64 z = 0;
    for (u32 i = 0; i < k; ++i)
      z += (y[i] * s1[i] + ((y[i] & 1) ? s1[i] - 1 - x[i] : x[i])) * st[i];
    return z;
  };
  CubePath q;

  // M1-type edges. In reflected coordinates an inner edge runs x' ->
  // x'+e_j; in a copy with odd y_j that is high-to-low in the product, so
  // the low end is x'+e_j and the path runs reversed.
  inner_->for_each_edge_path([&](const MeshEdge& e, const CubePath& p) {
    const u32 j = e.axis;
    const Coord x = s1.coord(e.a);
    Coord x_hi = x;
    ++x_hi[j];
    Coord y(k, 0);
    for (u64 yi = 0; yi < n2; ++yi) {
      const bool odd = (y[j] & 1) != 0;
      const u64 low = index_of(odd ? x_hi : x, y);
      q.clear();
      if (odd)
        for (std::size_t t = p.size(); t-- > 0;)
          q.push_back(combine(p[t], om[yi]));
      else
        for (CubeNode w : p) q.push_back(combine(w, om[yi]));
      fn(MeshEdge{low, low + st[j], j, false}, q);
      for (u32 i = k; i-- > 0;) {
        if (++y[i] < s2[i]) break;
        y[i] = 0;
      }
    }
  });

  // M2-type edges. Copies y and y+e_j meet on the inner face x'_j =
  // l1_j-1 (y_j even) or x'_j = 0 (y_j odd); each outer path is carried
  // once per inner node of that face.
  outer_->for_each_edge_path([&](const MeshEdge& e, const CubePath& p) {
    const u32 j = e.axis;
    const Coord y = s2.coord(e.a);
    Coord x(k, 0);
    x[j] = (y[j] & 1) ? 0 : s1[j] - 1;
    u64 xi = x[j] * st1[j];
    for (bool more = true; more;) {
      const u64 low = index_of(x, y);
      q.clear();
      for (CubeNode w : p) q.push_back(combine(im[xi], w));
      fn(MeshEdge{low, low + st[j], j, false}, q);
      more = false;
      for (u32 i = k; i-- > 0;) {
        if (i == j) continue;
        if (x[i] + 1 < s1[i]) {
          ++x[i];
          xi += st1[i];
          more = true;
          break;
        }
        xi -= x[i] * st1[i];
        x[i] = 0;
      }
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
  const Shape& s = guest().shape();
  const Shape& sb = base_->guest().shape();
  const u64 n = s.num_nodes();
  out.resize(n);
  if (n == 0) return;
  const u32 k = s.dims();
  // Walking target axis j moves the base index by the stride of the base
  // axis it feeds (zero for the inserted length-1 axes, which never step).
  SmallVec<u64, 8> bstride(k, 0);
  for (u32 i = 0; i < sb.dims(); ++i) bstride[axis_of_base_[i]] = sb.stride(i);
  Coord c(k, 0);
  u64 bi = 0;
  for (u64 idx = 0;;) {
    out[idx] = bm[bi];
    if (++idx == n) break;
    for (u32 j = k; j-- > 0;) {
      if (c[j] + 1 < s[j]) {
        ++c[j];
        bi += bstride[j];
        break;
      }
      bi -= c[j] * bstride[j];
      c[j] = 0;
    }
  }
}

CubePath RelabelEmbedding::edge_path(const MeshEdge& e) const {
  const i32 baxis = base_of_axis_[e.axis];
  assert(baxis >= 0);  // length-1 axes have no edges
  return base_->edge_path(
      MeshEdge{to_base(e.a), to_base(e.b), static_cast<u32>(baxis), e.wrap});
}

void RelabelEmbedding::for_each_edge_path(const EdgePathFn& fn) const {
  const Shape& sb = base_->guest().shape();
  const u32 kb = sb.dims();
  SmallVec<u64, 4> tstride(kb, 0);  // base axis -> stride of its target axis
  for (u32 i = 0; i < kb; ++i)
    tstride[i] = guest().shape().stride(axis_of_base_[i]);
  base_->for_each_edge_path([&](const MeshEdge& e, const CubePath& p) {
    u64 rest = e.a, a = 0;
    for (u32 i = kb; i-- > 0;) {
      a += (rest % sb[i]) * tstride[i];
      rest /= sb[i];
    }
    fn(MeshEdge{a, a + tstride[e.axis], axis_of_base_[e.axis], false}, p);
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
  const Shape& s = guest().shape();
  const Shape& sb = base_->guest().shape();
  const u64 n = s.num_nodes();
  out.resize(n);
  if (n == 0) return;
  const u32 k = s.dims();
  Coord c(k, 0);
  u64 bi = 0;
  for (u64 idx = 0;;) {
    out[idx] = bm[bi];
    if (++idx == n) break;
    for (u32 j = k; j-- > 0;) {
      if (c[j] + 1 < s[j]) {
        ++c[j];
        bi += sb.stride(j);
        break;
      }
      bi -= c[j] * sb.stride(j);
      c[j] = 0;
    }
  }
}

CubePath SubmeshEmbedding::edge_path(const MeshEdge& e) const {
  require(!e.wrap, "SubmeshEmbedding guests have no wrap edges");
  return base_->edge_path(MeshEdge{to_base(e.a), to_base(e.b), e.axis, false});
}

void SubmeshEmbedding::for_each_edge_path(const EdgePathFn& fn) const {
  const Shape& s = guest().shape();
  const Shape& sb = base_->guest().shape();
  const u32 k = s.dims();
  SmallVec<u64, 4> stride(k, 0);
  for (u32 i = 0; i < k; ++i) stride[i] = s.stride(i);
  // Keep the base edges with both ends inside the guest, re-indexed.
  base_->for_each_edge_path([&](const MeshEdge& e, const CubePath& p) {
    u64 rest = e.a, a = 0;
    for (u32 i = k; i-- > 0;) {
      const u64 c = rest % sb[i];
      rest /= sb[i];
      if (c + (i == e.axis ? 1 : 0) >= s[i]) return;
      a += c * stride[i];
    }
    fn(MeshEdge{a, a + stride[e.axis], e.axis, false}, p);
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
