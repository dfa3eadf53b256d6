// hjembed: the guest graphs of the paper — k-dimensional meshes, optionally
// with wraparound (torus) axes.
#pragma once

#include <type_traits>
#include <vector>

#include "core/shape.hpp"

namespace hj {

/// An undirected mesh edge. `a` and `b` are linear node indices and `axis`
/// the axis along which the nodes differ. `wrap` marks a wraparound edge
/// (from the last coordinate of the axis back to coordinate 0).
struct MeshEdge {
  MeshIndex a = 0;
  MeshIndex b = 0;
  u32 axis = 0;
  bool wrap = false;
};

/// A k-dimensional mesh M(l1, ..., lk), optionally with wraparound on a
/// per-axis basis. With no wrap flags this is the paper's mesh; with all
/// axes wrapped it is the wraparound mesh (torus) of Section 6.
///
/// Conventions for wrapped axes: a wrapped axis of length 1 contributes no
/// edge and of length 2 contributes a single edge (the wrap edge would
/// duplicate the mesh edge, and a multigraph is never intended).
class Mesh {
 public:
  explicit Mesh(Shape shape) : shape_(std::move(shape)) {
    wrap_.assign(shape_.dims(), 0);
  }

  Mesh(Shape shape, SmallVec<u8, 4> wrap)
      : shape_(std::move(shape)), wrap_(std::move(wrap)) {
    require(wrap_.size() == shape_.dims(),
            "Mesh: wrap flags must match shape rank");
  }

  /// Fully wrapped mesh (torus on every axis).
  static Mesh torus(Shape shape) {
    SmallVec<u8, 4> w(shape.dims(), 1);
    return Mesh(std::move(shape), std::move(w));
  }

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] u32 dims() const noexcept { return shape_.dims(); }
  [[nodiscard]] u64 num_nodes() const noexcept { return shape_.num_nodes(); }
  [[nodiscard]] bool wraps(u32 axis) const noexcept {
    return wrap_[axis] != 0;
  }
  [[nodiscard]] bool any_wrap() const noexcept {
    for (u8 w : wrap_)
      if (w) return true;
    return false;
  }

  /// Number of undirected edges along `axis`, per line of that axis.
  [[nodiscard]] u64 edges_per_line(u32 axis) const noexcept {
    const u64 l = shape_[axis];
    if (l <= 1) return 0;
    return (wraps(axis) && l > 2) ? l : l - 1;
  }

  /// Total number of undirected edges.
  [[nodiscard]] u64 num_edges() const noexcept {
    u64 total = 0;
    const u64 nodes = shape_.num_nodes();
    for (u32 i = 0; i < dims(); ++i)
      total += edges_per_line(i) * (nodes / shape_[i]);
    return total;
  }

  /// Visit every undirected edge exactly once. `fn` receives a MeshEdge
  /// whose `a` has the smaller axis coordinate (for wrap edges, `a` is the
  /// coordinate l-1 end and `b` the coordinate 0 end); a `fn(e, c)` also
  /// receives the coordinate `c` of e.a. Coordinates and indices advance
  /// by odometer: no division per edge.
  template <class Fn>
  void for_each_edge(Fn&& fn) const {
    const auto emit = [&](const MeshEdge& e, const Coord& c) {
      if constexpr (std::is_invocable_v<Fn&, const MeshEdge&, const Coord&>)
        fn(e, c);
      else
        fn(e);
    };
    SmallVec<u64, 4> stride(dims(), 0);
    for (u32 i = 0; i < dims(); ++i) stride[i] = shape_.stride(i);
    BoxOdometer odo(stride);
    odo.hi = shape_.extents();
    for (u32 axis = 0; axis < dims(); ++axis) {
      const u64 l = shape_[axis];
      if (l <= 1 || !odo.start()) continue;
      const bool wrap = wraps(axis) && l > 2;
      const u64 st = stride[axis];
      do {
        const MeshIndex idx = odo.index;
        if (odo.c[axis] + 1 < l)
          emit(MeshEdge{idx, idx + st, axis, false}, odo.c);
        else if (wrap)
          emit(MeshEdge{idx, idx - (l - 1) * st, axis, true}, odo.c);
      } while (odo.next() < dims());
    }
  }

  /// All edges, materialized. Prefer for_each_edge in hot paths.
  [[nodiscard]] std::vector<MeshEdge> edges() const {
    std::vector<MeshEdge> out;
    out.reserve(num_edges());
    for_each_edge([&](const MeshEdge& e) { out.push_back(e); });
    return out;
  }

  /// Neighbor indices of a node (2k at most).
  [[nodiscard]] SmallVec<MeshIndex, 8> neighbors(MeshIndex idx) const {
    SmallVec<MeshIndex, 8> out;
    for (u32 axis = 0; axis < dims(); ++axis) {
      const u64 l = shape_[axis];
      if (l <= 1) continue;
      const u64 stride = shape_.stride(axis);
      const u64 c = (idx / stride) % l;
      if (c + 1 < l)
        out.push_back(idx + stride);
      else if (wraps(axis) && l > 2)
        out.push_back(idx - (l - 1) * stride);
      if (c > 0)
        out.push_back(idx - stride);
      else if (wraps(axis) && l > 2)
        out.push_back(idx + (l - 1) * stride);
    }
    return out;
  }

  friend bool operator==(const Mesh& a, const Mesh& b) noexcept {
    return a.shape_ == b.shape_ && a.wrap_ == b.wrap_;
  }

 private:
  Shape shape_;
  SmallVec<u8, 4> wrap_;
};

}  // namespace hj
