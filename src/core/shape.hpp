// hjembed: k-dimensional mesh shapes and coordinate/index conversion.
#pragma once

#include <numeric>
#include <string>

#include "core/common.hpp"
#include "core/small_vec.hpp"

namespace hj {

/// A k-dimensional coordinate. Axis i runs over [0, shape[i]).
using Coord = SmallVec<u64, 4>;

/// The extents of a k-dimensional mesh, e.g. Shape{3, 5} is a 3 x 5 mesh.
///
/// Linear indices are row-major with axis 0 slowest: the stride of the last
/// axis is 1. This matches the paper's habit of writing an l1 x l2 x l3 mesh
/// with l3 varying fastest.
class Shape {
 public:
  Shape() = default;

  Shape(std::initializer_list<u64> extents) : ext_(extents) { validate(); }

  explicit Shape(SmallVec<u64, 4> extents) : ext_(std::move(extents)) {
    validate();
  }

  /// Number of axes (k).
  [[nodiscard]] u32 dims() const noexcept {
    return static_cast<u32>(ext_.size());
  }

  /// Extent of axis `i`.
  [[nodiscard]] u64 operator[](u32 i) const noexcept { return ext_[i]; }

  [[nodiscard]] const SmallVec<u64, 4>& extents() const noexcept {
    return ext_;
  }

  /// Total number of nodes (product of extents).
  [[nodiscard]] u64 num_nodes() const noexcept {
    u64 n = 1;
    for (u64 e : ext_) n *= e;
    return n;
  }

  /// Row-major stride of axis `i`.
  [[nodiscard]] u64 stride(u32 i) const noexcept {
    u64 s = 1;
    for (u32 j = i + 1; j < dims(); ++j) s *= ext_[j];
    return s;
  }

  /// Linear index of a coordinate. Throws std::invalid_argument on a rank
  /// mismatch or an out-of-range coordinate (public entry point).
  [[nodiscard]] MeshIndex index(const Coord& c) const {
    require(c.size() == ext_.size(),
            "Shape::index: coordinate rank %zu does not match shape rank %zu",
            c.size(), ext_.size());
    MeshIndex idx = 0;
    for (u32 i = 0; i < dims(); ++i) {
      require(c[i] < ext_[i],
              "Shape::index: coordinate %llu out of range [0, %llu) on axis %u",
              static_cast<unsigned long long>(c[i]),
              static_cast<unsigned long long>(ext_[i]), i);
      idx = idx * ext_[i] + c[i];
    }
    return idx;
  }

  /// Coordinate of a linear index. Throws std::invalid_argument when the
  /// index falls outside the mesh (public entry point).
  [[nodiscard]] Coord coord(MeshIndex idx) const {
    require(idx < num_nodes(),
            "Shape::coord: index %llu out of range [0, %llu)",
            static_cast<unsigned long long>(idx),
            static_cast<unsigned long long>(num_nodes()));
    Coord c(dims(), 0);
    for (u32 i = dims(); i-- > 0;) {
      c[i] = idx % ext_[i];
      idx /= ext_[i];
    }
    return c;
  }

  /// Elementwise product of two shapes of equal rank; the shape of the
  /// Cartesian product mesh in Corollary 2 (l_j = l1j * l2j).
  [[nodiscard]] Shape operator*(const Shape& rhs) const {
    require(dims() == rhs.dims(), "Shape product requires equal rank");
    SmallVec<u64, 4> e;
    for (u32 i = 0; i < dims(); ++i) e.push_back(ext_[i] * rhs.ext_[i]);
    return Shape(std::move(e));
  }

  /// True iff this shape fits inside `outer` axis by axis (submesh relation).
  [[nodiscard]] bool fits_in(const Shape& outer) const noexcept {
    if (dims() != outer.dims()) return false;
    for (u32 i = 0; i < dims(); ++i)
      if (ext_[i] > outer.ext_[i]) return false;
    return true;
  }

  /// Cube dimension needed by a per-axis Gray code: sum of ceil(log2 l_i).
  [[nodiscard]] u32 gray_cube_dim() const noexcept {
    u32 n = 0;
    for (u64 e : ext_) n += log2_ceil(e);
    return n;
  }

  /// Minimal cube dimension for any one-to-one embedding:
  /// ceil(log2(num_nodes)).
  [[nodiscard]] u32 minimal_cube_dim() const noexcept {
    return log2_ceil(num_nodes());
  }

  /// Shape with the given axis lengths sorted ascending (meshes are
  /// isomorphic under axis permutation).
  [[nodiscard]] Shape sorted() const;

  /// Shape with all length-1 axes removed (a 3x1x5 mesh is a 3x5 mesh).
  [[nodiscard]] Shape squeezed() const;

  /// Pad with length-1 axes on the right up to rank k.
  [[nodiscard]] Shape padded_to(u32 k) const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Shape& a, const Shape& b) noexcept {
    return a.ext_ == b.ext_;
  }

 private:
  void validate() const {
    for (u64 e : ext_) require(e >= 1, "Shape extents must be >= 1");
    require(ext_.size() >= 1, "Shape must have at least one axis");
  }

  SmallVec<u64, 4> ext_;
};

/// A row-major odometer (axis 0 slowest) over a box lo <= c < hi that
/// keeps a linear index of `c` in step: every advance adds one delta
/// precomputed per axis, so the mesh walks never divide to find a node's
/// coordinate or index. `stride` gives the index's per-axis weights (a
/// weight of 0 moves `c` but not the index).
class BoxOdometer {
 public:
  explicit BoxOdometer(SmallVec<u64, 4> stride)
      : lo(stride.size(), 0),
        hi(stride.size(), 0),
        c(stride.size(), 0),
        stride_(std::move(stride)),
        delta_(stride_.size(), 0) {}

  Coord lo, hi;   ///< the box; set before start()
  Coord c;        ///< the current coordinate
  u64 index = 0;  ///< sum c[i] * stride[i]

  /// Go to c = lo. False (and nothing to visit) when the box is empty.
  bool start() {
    const u32 k = static_cast<u32>(c.size());
    u64 carry = 0;  // sum over later axes of (hi - 1 - lo) * stride
    first_ = 0;
    for (u32 i = k; i-- > 0;) {
      if (hi[i] <= lo[i]) return false;
      first_ += lo[i] * stride_[i];
      delta_[i] = stride_[i] - carry;  // wraps modulo 2^64 like the index
      carry += (hi[i] - 1 - lo[i]) * stride_[i];
    }
    restart();
    return true;
  }

  /// Back to c = lo in the box of the last successful start().
  void restart() {
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = lo[i];
    index = first_;
  }

  /// Step to the next coordinate: the last axis that can still grow grows
  /// by one and every later axis returns to lo. Returns the axis that
  /// grew, or dims() once the box is exhausted (c is then back at lo).
  u32 next() {
    const u32 k = static_cast<u32>(c.size());
    for (u32 i = k; i-- > 0;) {
      if (c[i] + 1 < hi[i]) {
        ++c[i];
        index += delta_[i];
        return i;
      }
      c[i] = lo[i];
    }
    return k;
  }

 private:
  SmallVec<u64, 4> stride_;
  SmallVec<u64, 4> delta_;
  u64 first_ = 0;  // the index at lo
};

}  // namespace hj
