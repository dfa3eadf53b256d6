#include "core/embedding.hpp"

#include <algorithm>

namespace hj {

void Embedding::map_all(std::vector<CubeNode>& out) const {
  const u64 n = guest_.num_nodes();
  out.resize(n);
  for (MeshIndex i = 0; i < n; ++i) out[i] = map(i);
}

void Embedding::for_each_edge_path(const EdgePathFn& fn) const {
  guest_.for_each_edge([&](const MeshEdge& e) { fn(e, edge_path(e)); });
}

void GrayEmbedding::map_all(std::vector<CubeNode>& out) const {
  const Shape& s = guest().shape();
  const u64 n = s.num_nodes();
  out.resize(n);
  if (n == 0) return;
  const u32 k = s.dims();
  Coord c(k, 0);
  CubeNode cur = 0;  // gray(0) == 0 on every axis
  for (u64 idx = 0;;) {
    out[idx] = cur;
    if (++idx == n) break;
    // Row-major odometer, fastest axis last. An increment on axis i flips
    // cur by gray(c)^gray(c+1); a carry resets the axis field to gray(0)=0
    // by flipping off gray(l-1).
    for (u32 i = k; i-- > 0;) {
      if (c[i] + 1 < s[i]) {
        cur ^= (gray(c[i]) ^ gray(c[i] + 1)) << shift_[i];
        ++c[i];
        break;
      }
      cur ^= gray(c[i]) << shift_[i];
      c[i] = 0;
    }
  }
}

void GrayEmbedding::for_each_edge_path(const EdgePathFn& fn) const {
  std::vector<CubeNode> nm;
  map_all(nm);
  guest().for_each_edge([&](const MeshEdge& e) {
    fn(e, Hypercube::ecube_path(nm[e.a], nm[e.b]));
  });
}

std::shared_ptr<ExplicitEmbedding> ExplicitEmbedding::copy_of(
    const Embedding& emb) {
  std::vector<CubeNode> map;
  emb.map_all(map);
  auto out = std::make_shared<ExplicitEmbedding>(emb.guest(), emb.host_dim(),
                                                 std::move(map));
  const std::vector<CubeNode>& nm = out->map_;
  emb.for_each_edge_path([&](const MeshEdge& e, const CubePath& p) {
    if (p != Hypercube::ecube_path(nm[e.a], nm[e.b]))
      out->paths_.emplace_back(out->path_key(e), p);
  });
  std::sort(out->paths_.begin(), out->paths_.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return out;
}

CubePath ExplicitEmbedding::edge_path(const MeshEdge& e) const {
  const u64 key = path_key(e);
  if (!paths_.empty()) {
    auto it = std::lower_bound(
        paths_.begin(), paths_.end(), key,
        [](const auto& kv, u64 k) { return kv.first < k; });
    if (it != paths_.end() && it->first == key) return it->second;
  }
  return Hypercube::ecube_path(map(e.a), map(e.b));
}

void ExplicitEmbedding::set_edge_path(const MeshEdge& e, CubePath path) {
  require(!path.empty() && path.front() == map(e.a) && path.back() == map(e.b),
          "set_edge_path: path endpoints must match the node map");
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    require(Hypercube::adjacent(path[i], path[i + 1]),
            "set_edge_path: path must follow cube edges");
  const u64 key = path_key(e);
  auto it = std::lower_bound(paths_.begin(), paths_.end(), key,
                             [](const auto& kv, u64 k) { return kv.first < k; });
  if (it != paths_.end() && it->first == key)
    it->second = std::move(path);
  else
    paths_.insert(it, {key, std::move(path)});
}

void ExplicitEmbedding::for_each_edge_path(const EdgePathFn& fn) const {
  // Node-major, axes ascending: exactly the order of path_key, so one
  // forward merge over the sorted overrides replaces a lower_bound per
  // edge.
  const Mesh& g = guest();
  const Shape& s = g.shape();
  const u32 k = s.dims();
  const u64 n = s.num_nodes();
  SmallVec<u64, 4> stride(k, 0);
  for (u32 i = 0; i < k; ++i) stride[i] = s.stride(i);
  auto ov = paths_.begin();
  Coord c(k, 0);
  for (MeshIndex a = 0; a < n; ++a) {
    for (u32 axis = 0; axis < k; ++axis) {
      const u64 l = s[axis];
      MeshEdge e{a, 0, axis, false};
      if (c[axis] + 1 < l) {
        e.b = a + stride[axis];
      } else if (g.wraps(axis) && l > 2) {
        e.b = a - (l - 1) * stride[axis];
        e.wrap = true;
      } else {
        continue;
      }
      const u64 key = path_key(e);
      while (ov != paths_.end() && ov->first < key) ++ov;
      if (ov != paths_.end() && ov->first == key)
        fn(e, ov->second);
      else
        fn(e, Hypercube::ecube_path(map_[e.a], map_[e.b]));
    }
    for (u32 i = k; i-- > 0;) {
      if (++c[i] < s[i]) break;
      c[i] = 0;
    }
  }
}

CubePath neighbor_route(const Embedding& emb, MeshIndex u, MeshIndex w) {
  const Shape& s = emb.guest().shape();
  const Coord cu = s.coord(u), cw = s.coord(w);
  u32 axis = 0;
  u32 diffs = 0;
  for (u32 d = 0; d < s.dims(); ++d) {
    if (cu[d] != cw[d]) {
      axis = d;
      ++diffs;
    }
  }
  require(diffs == 1, "neighbor_route: nodes differ in exactly one axis");
  const u64 lo = std::min(cu[axis], cw[axis]);
  const u64 hi = std::max(cu[axis], cw[axis]);
  const bool wrap = hi - lo > 1;  // the wrap edge joins coordinates 0, l-1
  require(wrap ? (lo == 0 && hi == s[axis] - 1 && emb.guest().wraps(axis))
               : hi - lo == 1,
          "neighbor_route: not a guest edge");
  const MeshIndex a = wrap ? (cu[axis] > cw[axis] ? u : w)
                           : (cu[axis] < cw[axis] ? u : w);
  const MeshIndex b = a == u ? w : u;
  CubePath route = emb.edge_path(MeshEdge{a, b, axis, wrap});
  if (a != u) route.reverse();
  return route;
}

}  // namespace hj
