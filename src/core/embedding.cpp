#include "core/embedding.hpp"

#include <algorithm>

namespace hj {

void Embedding::map_all(std::vector<CubeNode>& out) const {
  const u64 n = guest_.num_nodes();
  out.resize(n);
  for (MeshIndex i = 0; i < n; ++i) out[i] = map(i);
}

void Embedding::walk_edge_paths(EdgeWalkFn fn) const {
  guest_.for_each_edge([&](const MeshEdge& e, const Coord& c) {
    fn(e, c, edge_path(e));
  });
}

void GrayEmbedding::map_all(std::vector<CubeNode>& out) const {
  const Shape& s = guest().shape();
  SmallVec<u64, 4> stride(s.dims(), 0);
  for (u32 i = 0; i < s.dims(); ++i) stride[i] = s.stride(i);
  out.resize(s.num_nodes());
  BoxOdometer odo(std::move(stride));
  odo.hi = s.extents();
  odo.start();
  for (CubeNode& v : out) {
    v = image(odo.c);
    odo.next();
  }
}

void GrayEmbedding::walk_edge_paths(EdgeWalkFn fn) const {
  // Every Gray edge is one hop: the image of c and that image with the
  // edge's axis field stepped to the next Gray code (or wrapped to 0).
  CubePath p;
  p.resize(2);
  guest().for_each_edge([&](const MeshEdge& e, const Coord& c) {
    const u64 x = c[e.axis];
    p[0] = image(c);
    p[1] = p[0] ^ ((gray(x) ^ gray(e.wrap ? 0 : x + 1)) << shift_[e.axis]);
    fn(e, c, p);
  });
}

std::shared_ptr<ExplicitEmbedding> ExplicitEmbedding::copy_of(
    const Embedding& emb) {
  std::vector<CubeNode> map;
  emb.map_all(map);
  auto out = std::make_shared<ExplicitEmbedding>(emb.guest(), emb.host_dim(),
                                                 std::move(map));
  const std::vector<CubeNode>& nm = out->map_;
  emb.walk_edge_paths(
      [&](const MeshEdge& e, const Coord&, const CubePath& p) {
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

void ExplicitEmbedding::walk_edge_paths(EdgeWalkFn fn) const {
  // Node-major, axes ascending: exactly the order of path_key, so one
  // forward merge over the sorted overrides replaces a lower_bound per
  // edge.
  const Mesh& g = guest();
  const Shape& s = g.shape();
  const u32 k = s.dims();
  SmallVec<u64, 4> stride(k, 0);
  for (u32 i = 0; i < k; ++i) stride[i] = s.stride(i);
  BoxOdometer odo(stride);
  odo.hi = s.extents();
  if (!odo.start()) return;
  auto ov = paths_.begin();
  do {
    const MeshIndex a = odo.index;
    for (u32 axis = 0; axis < k; ++axis) {
      const u64 l = s[axis];
      MeshEdge e{a, 0, axis, false};
      if (odo.c[axis] + 1 < l) {
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
        fn(e, odo.c, ov->second);
      else
        fn(e, odo.c, Hypercube::ecube_path(map_[e.a], map_[e.b]));
    }
  } while (odo.next() < k);
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
