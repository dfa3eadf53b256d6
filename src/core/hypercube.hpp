// hjembed: the host graph — the Boolean cube (hypercube) Q_n.
#pragma once

#include "core/common.hpp"
#include "core/small_vec.hpp"

namespace hj {

/// A path in the cube, stored as the full node sequence (both endpoints
/// included). A path of length d (the paper's dilation-d image of an edge)
/// has d+1 nodes. Dilation <= 3 in every construction of the paper, so four
/// inline slots avoid allocation on the hot path.
using CubePath = SmallVec<CubeNode, 4>;

/// The Boolean cube Q_n: 2^n nodes, with an edge between addresses at
/// Hamming distance one.
class Hypercube {
 public:
  explicit Hypercube(u32 dim) : dim_(dim) {
    require(dim <= 63, "Hypercube dimension must be <= 63");
  }

  [[nodiscard]] u32 dim() const noexcept { return dim_; }
  [[nodiscard]] u64 num_nodes() const noexcept { return u64{1} << dim_; }
  [[nodiscard]] u64 num_edges() const noexcept {
    return dim_ == 0 ? 0 : (u64{dim_} << (dim_ - 1));
  }
  [[nodiscard]] bool contains(CubeNode v) const noexcept {
    return v < num_nodes();
  }
  [[nodiscard]] static bool adjacent(CubeNode a, CubeNode b) noexcept {
    return hamming(a, b) == 1;
  }

  /// Neighbor of `v` across dimension `bit`.
  [[nodiscard]] static CubeNode neighbor(CubeNode v, u32 bit) noexcept {
    return v ^ (u64{1} << bit);
  }

  /// The deterministic dimension-ordered ("e-cube") shortest path from `a`
  /// to `b`: differing bits are fixed from least to most significant. This
  /// is the library's default router when an embedding does not prescribe
  /// the paths itself.
  [[nodiscard]] static CubePath ecube_path(CubeNode a, CubeNode b) {
    CubePath path;
    path.push_back(a);
    CubeNode cur = a;
    u64 diff = a ^ b;
    while (diff != 0) {
      const u64 low = diff & (~diff + 1);  // lowest set bit
      cur ^= low;
      diff ^= low;
      path.push_back(cur);
    }
    return path;
  }

  /// Canonical undirected edge key for congestion accounting: the pair
  /// (min, max) packed as min * 2^n + max would overflow for large n, so we
  /// pack as (min << 6 | bit) where bit identifies the flipped dimension.
  /// Valid for dim <= 57; embeddings in this library are far smaller.
  [[nodiscard]] static u64 edge_key(CubeNode a, CubeNode b) noexcept {
    assert(adjacent(a, b));
    const CubeNode lo = a < b ? a : b;
    const u32 bit = static_cast<u32>(std::countr_zero(a ^ b));
    return (lo << 6) | bit;
  }

  /// Dense per-link tables — verify()'s congestion counter and the
  /// router's link loads — hold 2^dim * dim slots and index the link
  /// between adjacent `a` and `b` as lo * dim + bit (lo the smaller
  /// address, bit the flipped dimension), for cubes up to
  /// kDenseLinkDimLimit; larger cubes key a hash map by edge_key().
  static constexpr u32 kDenseLinkDimLimit = 18;
  [[nodiscard]] static u64 dense_link_index(CubeNode a, CubeNode b,
                                            u32 dim) noexcept {
    assert(adjacent(a, b));
    const CubeNode lo = a < b ? a : b;
    return lo * dim + static_cast<u32>(std::countr_zero(a ^ b));
  }

  /// Dense per-node arrays — verify()'s load count and the router's
  /// detour distances — cover cubes up to this dimension.
  static constexpr u32 kDenseNodeDimLimit = 26;

 private:
  u32 dim_;
};

}  // namespace hj
