// hjembed: the graph decomposition engine — Theorem 3 and Corollary 2.
//
// This module is the paper's primary contribution. Given embeddings of two
// factor meshes M1 -> Q_{n1} and M2 -> Q_{n2}, it constructs the embedding
// of the elementwise-product mesh (l_j = l1j * l2j) into Q_{n1+n2} with
//
//     expansion = e1 * e2,  dilation = max(d1, d2),  congestion = max(c1, c2).
//
// The construction follows the proof of Corollary 2 exactly: the axis-j
// coordinate z_j splits as z_j = y_j * l1j + x_j; the inner (M1) copy
// indexed by y is *reflected* along every axis j for which y_j is odd, so
// consecutive copies of the inner mesh meet at identical inner images and
// the copy-boundary edges are carried entirely by the outer (M2) embedding.
#pragma once

#include "core/embedding.hpp"

namespace hj {

/// The Corollary 2 product of two mesh embeddings. Factor guests must be
/// plain meshes (no wraparound) of equal rank; pad shapes with 1s (see
/// RelabelEmbedding) to align axes.
class MeshProductEmbedding final : public Embedding {
 public:
  /// `inner` embeds M1 (traversed fastest; its axes keep dilation 1 inside
  /// each copy), `outer` embeds M2 (its dilation is paid once per inner
  /// line, which is what makes the Section 4.1 average dilation small).
  MeshProductEmbedding(EmbeddingPtr inner, EmbeddingPtr outer);

  [[nodiscard]] CubeNode map(MeshIndex idx) const override;
  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override;
  [[nodiscard]] bool one_to_one() const noexcept override {
    return inner_->one_to_one() && outer_->one_to_one();
  }
  void map_all(std::vector<CubeNode>& out) const override;
  void walk_edge_paths(EdgeWalkFn fn) const override;
  [[nodiscard]] bool unit_paths() const noexcept override {
    // Products preserve unit paths: an M1-type edge rides a (possibly
    // reflected) one-hop inner path, an M2-type edge a one-hop outer path.
    return inner_->unit_paths() && outer_->unit_paths();
  }

  [[nodiscard]] const Embedding& inner() const noexcept { return *inner_; }
  [[nodiscard]] const Embedding& outer() const noexcept { return *outer_; }

 private:
  struct Split {
    Coord x;       // inner coordinate, already reflected
    Coord y;       // outer coordinate
    Coord parity;  // y_j parity before reflection (needed by edge_path)
  };
  [[nodiscard]] Split split(MeshIndex idx) const;
  [[nodiscard]] CubeNode combine(CubeNode inner_node,
                                 CubeNode outer_node) const noexcept {
    return (outer_node << inner_->host_dim()) | inner_node;
  }

  EmbeddingPtr inner_;
  EmbeddingPtr outer_;
};

/// Adapter that re-labels axes of an existing embedding: the target guest
/// shape may permute the base guest's axes and insert extra length-1 axes.
/// Example: lift an embedding of 12x20 to guest shape 12x1x20x1 so it can
/// be used as a factor for a 12x16x20x32 mesh.
class RelabelEmbedding final : public Embedding {
 public:
  /// `axis_of_base[j]` = which axis of `target` guest axis j of the base
  /// corresponds to. Every target axis not mentioned must have length 1.
  RelabelEmbedding(EmbeddingPtr base, Shape target,
                   SmallVec<u32, 4> axis_of_base);

  /// The relabel of `base` onto `target`: each base axis takes the first
  /// free target axis of its length. Throws unless every target axis left
  /// over has length 1, i.e. unless `target` is `base`'s shape with its
  /// axes permuted and length-1 axes inserted.
  static std::shared_ptr<RelabelEmbedding> onto(EmbeddingPtr base,
                                                const Shape& target);

  [[nodiscard]] CubeNode map(MeshIndex idx) const override;
  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override;
  [[nodiscard]] bool one_to_one() const noexcept override {
    return base_->one_to_one();
  }
  void map_all(std::vector<CubeNode>& out) const override;
  void walk_edge_paths(EdgeWalkFn fn) const override;
  [[nodiscard]] bool unit_paths() const noexcept override {
    return base_->unit_paths();
  }

  [[nodiscard]] const Embedding& base() const noexcept { return *base_; }
  /// Base axis -> target axis.
  [[nodiscard]] const SmallVec<u32, 4>& axis_of_base() const noexcept {
    return axis_of_base_;
  }

 private:
  [[nodiscard]] MeshIndex to_base(MeshIndex idx) const;

  EmbeddingPtr base_;
  SmallVec<u32, 4> axis_of_base_;   // base axis -> target axis
  SmallVec<i32, 4> base_of_axis_;   // target axis -> base axis or -1
};

/// Axis-extension adapter (strategy 3 of Section 4.2): embeds a guest mesh
/// as the natural submesh of a slightly larger mesh for which an embedding
/// is known. E.g. a 3x3x23 mesh rides inside an embedded 3x3x25 mesh.
class SubmeshEmbedding final : public Embedding {
 public:
  SubmeshEmbedding(EmbeddingPtr base, Shape guest_shape);

  [[nodiscard]] CubeNode map(MeshIndex idx) const override;
  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override;
  [[nodiscard]] bool one_to_one() const noexcept override {
    return base_->one_to_one();
  }
  void map_all(std::vector<CubeNode>& out) const override;
  void walk_edge_paths(EdgeWalkFn fn) const override;
  [[nodiscard]] bool unit_paths() const noexcept override {
    return base_->unit_paths();
  }

  [[nodiscard]] const Embedding& base() const noexcept { return *base_; }

 private:
  [[nodiscard]] MeshIndex to_base(MeshIndex idx) const;

  EmbeddingPtr base_;
};

/// Corollary 1 for meshes, n-ary: fold a list of factor embeddings into one
/// product embedding (left fold; all factor guests must share a rank).
[[nodiscard]] EmbeddingPtr product_chain(std::vector<EmbeddingPtr> factors);

}  // namespace hj
