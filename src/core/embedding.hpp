// hjembed: the embedding abstraction (Definition 1 of the paper).
//
// An embedding maps every guest mesh node to a cube node and every guest
// edge to a cube path between the images of its endpoints. Embeddings are
// represented behaviourally (virtual map/edge_path) so that the graph
// decomposition engine can compose them without materializing node tables,
// exactly mirroring the constructive proofs of Theorem 3 and Corollary 2.
//
// Two bulk traversals sit beside the random-access pair: map_all (every
// node image) and walk_edge_paths (every edge path, in an order of the
// embedding's choosing).
// Composites override them to stream their factors once instead of
// recursing per node or per edge; map/edge_path stay the reference
// definitions the bulk forms must agree with.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/gray.hpp"
#include "core/hypercube.hpp"
#include "core/mesh.hpp"

namespace hj {

template <class Sig>
class FnRef;

/// A non-owning reference to a callable: one object pointer and one
/// function pointer, no allocation, no type erasure beyond that. It must
/// not outlive the callable it refers to, so it is only ever a parameter
/// of a call that returns before the callable dies (never stored).
template <class R, class... A>
class FnRef<R(A...)> {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FnRef> &&
             std::is_invocable_r_v<R, F&, A...>)
  FnRef(F&& f) noexcept  // implicit: a lambda argument converts
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, A... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<A>(args)...);
        }) {}

  R operator()(A... args) const {
    return call_(obj_, std::forward<A>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, A...);
};

/// Base class for mesh-into-cube embeddings.
///
/// One-to-one embeddings (Sections 3-6) promise an injective map();
/// many-to-one embeddings (Section 7) override one_to_one() to return
/// false and are measured by load factor instead of expansion.
class Embedding {
 public:
  Embedding(Mesh guest, u32 host_dim)
      : guest_(std::move(guest)), host_dim_(host_dim) {
    require(host_dim <= 63, "Embedding host dimension must be <= 63");
  }

  virtual ~Embedding() = default;

  [[nodiscard]] const Mesh& guest() const noexcept { return guest_; }
  [[nodiscard]] u32 host_dim() const noexcept { return host_dim_; }
  [[nodiscard]] Hypercube host() const noexcept { return Hypercube(host_dim_); }

  /// Image of guest node `idx` in the cube.
  [[nodiscard]] virtual CubeNode map(MeshIndex idx) const = 0;

  /// Cube path assigned to a guest edge, from map(e.a) to map(e.b).
  /// The default routes along the dimension-ordered shortest path; concrete
  /// embeddings override this when the paper's construction prescribes the
  /// path (congestion guarantees depend on path choice, not only on the
  /// node map).
  [[nodiscard]] virtual CubePath edge_path(const MeshEdge& e) const {
    return Hypercube::ecube_path(map(e.a), map(e.b));
  }

  /// False for the many-to-one embeddings of Section 7.
  [[nodiscard]] virtual bool one_to_one() const noexcept { return true; }

  /// Materialize map(i) for every guest node into `out` (resized to
  /// num_nodes(); out[i] == map(i) for all i). The default loops over the
  /// virtual map(); composite embeddings override it with incremental
  /// odometer traversals that amortize the per-node coordinate arithmetic
  /// and factor-map recursion — the batch verifier's hot path.
  virtual void map_all(std::vector<CubeNode>& out) const;

  /// Receives one guest edge, the coordinate of its `a` end and its path.
  using EdgeWalkFn =
      FnRef<void(const MeshEdge&, const Coord&, const CubePath&)>;

  /// Visit every guest edge exactly once with the coordinate of its `a`
  /// end, which composites read instead of dividing e.a, and its path.
  /// Each edge is oriented as Mesh::for_each_edge orients it and its path
  /// equals edge_path(e); the visiting order is deterministic but the
  /// embedding's own, not for_each_edge order, so callers must aggregate
  /// commutatively (or key by slot axis * num_nodes + a). The default
  /// visits Mesh::for_each_edge order and calls edge_path; products fan
  /// each factor path out to every copy (Corollary 2), relabels re-index
  /// their base's walk, and a submesh keeps the edges of its base's walk
  /// whose high end lies inside its extents.
  virtual void walk_edge_paths(EdgeWalkFn fn) const;

  /// True asserts that *every* guest edge's assigned path is exactly the
  /// at-most-one-hop sequence [map(e.a), map(e.b)] — i.e. dilation <= 1
  /// with the default e-cube route. Gray embeddings and products/relabels/
  /// submeshes of unit embeddings qualify; anything that may carry a
  /// prescribed multi-hop path (ExplicitEmbedding) must return false. The
  /// verifier uses this to skip materializing per-edge paths.
  [[nodiscard]] virtual bool unit_paths() const noexcept { return false; }

  /// expansion = |V(H)| / |V(G)| (Definition 1).
  [[nodiscard]] double expansion() const noexcept {
    return static_cast<double>(u64{1} << host_dim_) /
           static_cast<double>(guest_.num_nodes());
  }

  /// True iff the host cube is minimal: n = ceil(log2 |V(G)|).
  [[nodiscard]] bool minimal_expansion() const noexcept {
    return host_dim_ == guest_.shape().minimal_cube_dim();
  }

  Embedding(const Embedding&) = delete;
  Embedding& operator=(const Embedding&) = delete;

 private:
  Mesh guest_;
  u32 host_dim_;
};

using EmbeddingPtr = std::shared_ptr<const Embedding>;

/// The binary-reflected Gray code embedding (Section 3.1): axis i is
/// encoded on ceil(log2 l_i) address bits; adjacent mesh nodes land on
/// adjacent cube nodes (dilation one, congestion one) at the price of
/// rounding every axis up to a power of two.
///
/// Axis 0 occupies the most significant bit field.
class GrayEmbedding final : public Embedding {
 public:
  // Takes `guest` by const reference and copies: a by-value Mesh would be
  // moved while its shape is still being read for the cube dimension
  // (constructor argument evaluation order is unspecified).
  explicit GrayEmbedding(const Mesh& guest)
      : GrayEmbedding(guest.shape().gray_cube_dim(), guest) {}

  [[nodiscard]] CubeNode map(MeshIndex idx) const override {
    const Shape& s = guest().shape();
    CubeNode out = 0;
    // Decode row-major index axis by axis, fastest axis first.
    for (u32 i = s.dims(); i-- > 0;) {
      const u64 c = idx % s[i];
      idx /= s[i];
      out |= gray(c) << shift_[i];
    }
    return out;
  }

  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override {
    // Every Gray edge image has dilation one except a wrap edge of a
    // power-of-two axis, which is also dilation one (the code is cyclic).
    return Hypercube::ecube_path(map(e.a), map(e.b));
  }

  void map_all(std::vector<CubeNode>& out) const override;
  void walk_edge_paths(EdgeWalkFn fn) const override;

  [[nodiscard]] bool unit_paths() const noexcept override { return true; }

 private:
  /// The image of coordinate `c`: each axis's Gray code in its field.
  [[nodiscard]] CubeNode image(const Coord& c) const noexcept {
    CubeNode v = 0;
    for (u32 i = 0; i < c.size(); ++i) v |= gray(c[i]) << shift_[i];
    return v;
  }

  GrayEmbedding(u32 host_dim, Mesh g) : Embedding(std::move(g), host_dim) {
    const Shape& s = guest().shape();
    shift_.assign(s.dims(), 0);
    u32 acc = 0;
    for (u32 i = s.dims(); i-- > 0;) {
      shift_[i] = acc;
      acc += log2_ceil(s[i]);
    }
    for (u32 i = 0; i < s.dims(); ++i) {
      require(!guest().wraps(i) || is_pow2(s[i]) || s[i] <= 2,
              "GrayEmbedding: wrapped axes must have power-of-two length "
              "(use the torus module otherwise)");
    }
  }

  SmallVec<u32, 4> shift_;
};

/// An embedding backed by an explicit node table and (optionally) explicit
/// per-edge paths. Used for the paper's direct embeddings (3x5, 7x9, 11x11,
/// 3x3x3, 3x3x7) and for anything produced by the search engine.
class ExplicitEmbedding final : public Embedding {
 public:
  ExplicitEmbedding(Mesh guest, u32 host_dim, std::vector<CubeNode> node_map)
      : Embedding(std::move(guest), host_dim), map_(std::move(node_map)) {
    require(map_.size() == this->guest().num_nodes(),
            "ExplicitEmbedding: node map size must equal guest node count");
    const u64 cube = u64{1} << host_dim;
    for (CubeNode v : map_)
      require(v < cube, "ExplicitEmbedding: node map exceeds the cube");
  }

  /// A freely mutable copy of any embedding: its node map plus every
  /// edge path that is not the default e-cube route, read in one
  /// walk_edge_paths walk and sorted once. Paths are copied as they
  /// are; verify() judges them.
  static std::shared_ptr<ExplicitEmbedding> copy_of(const Embedding& emb);

  [[nodiscard]] CubeNode map(MeshIndex idx) const override {
    return map_[idx];
  }

  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override;

  void map_all(std::vector<CubeNode>& out) const override {
    out.assign(map_.begin(), map_.end());
  }
  void walk_edge_paths(EdgeWalkFn fn) const override;

  /// Prescribe the path for one edge. `path` must run from map(e.a) to
  /// map(e.b) along cube edges; the verifier re-checks this.
  void set_edge_path(const MeshEdge& e, CubePath path);

  /// Raw access for table generation and serialization.
  [[nodiscard]] const std::vector<CubeNode>& node_map() const noexcept {
    return map_;
  }

 private:
  [[nodiscard]] u64 path_key(const MeshEdge& e) const noexcept {
    return e.a * guest().dims() + e.axis;
  }

  std::vector<CubeNode> map_;
  // Sparse, keyed by (source node, axis); only dilation>=2 edges need an
  // entry. Sorted vector keeps lookups cache-friendly and allocation-free
  // after construction.
  std::vector<std::pair<u64, CubePath>> paths_;
};

/// The cube route from mesh node `u` to its mesh neighbor `w`, following
/// the embedding's assigned path for that edge (reversed as needed).
/// `u` and `w` must be adjacent in the guest (wrap edges included).
[[nodiscard]] CubePath neighbor_route(const Embedding& emb, MeshIndex u,
                                      MeshIndex w);

}  // namespace hj
