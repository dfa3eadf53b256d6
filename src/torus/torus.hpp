// hjembed: embeddings of wraparound meshes (Section 6 of the paper).
//
// The constructions of Lemmas 3 and 4, generalized and made uniform:
// every wrapped axis of length l is laid out as a Hamiltonian cycle of the
// product of a quotient line (length m) and a small inner ring carried by
// 1 or 2 dedicated address bits:
//
//   HALF     (Lemma 3): l <= 2m, inner ring of 2 (one bit). Even l costs
//            nothing; odd l removes one cycle node and bridges it, paying
//            dilation d+1 on one edge per hyperplane.
//   QUARTER  (Lemma 4): l <= 4m, inner ring of 4 (two bits, cyclic Gray).
//            l mod 4 in {1,2,3} removes 3/2/1 "row middle" nodes whose
//            bridges cost only dilation 2, so the total stays max(d, 2).
//            Requires m >= 3 (the paper's ceil(l/4) >= 3 condition).
//   RING     small-l fallback: an explicit ring table in the axis's own
//            minimal bit field (the paper's Figure 5-(e) special cases).
//   GRAY     power-of-two l: the cyclic binary-reflected Gray code.
//   PASS     non-wrapped axes pass through to the quotient mesh.
//
// The quotient mesh (one axis per guest axis, length m_i) is embedded by
// the ordinary mesh Planner; the torus embedding is the product of that
// embedding with the inner rings, with removed cycle nodes used as path
// way-points exactly as in the paper's proofs.
#pragma once

#include <string>

#include "core/planner.hpp"

namespace hj::torus {

enum class AxisScheme : u8 { Pass, Gray, Ring, Half, Quarter };

[[nodiscard]] const char* to_string(AxisScheme s);

/// Per-axis layout descriptor (see file comment).
struct AxisCodec {
  AxisScheme scheme = AxisScheme::Pass;
  u64 guest_len = 1;     // l_i
  u64 quotient_len = 1;  // m_i: length of this axis in the quotient mesh
  u32 bits = 0;          // dedicated inner address bits
  u64 cycle_len = 1;     // physical cycle length (quotient_len * 2^bits)

  /// Build the codec for a wrapped axis under `scheme` (throws if the
  /// scheme cannot host the length) or a Pass codec for an unwrapped one.
  static AxisCodec make(AxisScheme scheme, u64 len, bool wrapped);

  /// Physical cycle position -> (quotient coordinate, inner code).
  struct Phys {
    u64 y;
    u64 code;
  };
  [[nodiscard]] Phys phys(u64 t) const;

  /// Guest coordinate -> physical cycle position (skipping removed nodes).
  [[nodiscard]] u64 pos_of_guest(u64 g) const;

  /// Number of removed (skipped) cycle positions.
  [[nodiscard]] u64 removed_count() const { return cycle_len - guest_len; }

  /// True iff physical position t is removed (never hosts a guest node;
  /// its image still serves as a path way-point).
  [[nodiscard]] bool is_removed(u64 t) const;

  /// Worst-case dilation this axis contributes, given the quotient mesh
  /// embedding has dilation d2 on this axis.
  [[nodiscard]] u32 dilation_bound(u32 d2) const;
};

/// The torus embedding: quotient-mesh embedding x per-axis inner rings.
class TorusEmbedding final : public Embedding {
 public:
  /// `guest` may wrap any subset of axes. `codecs` must match the guest
  /// axes; `quotient` must embed the mesh of quotient lengths.
  TorusEmbedding(Mesh guest, std::vector<AxisCodec> codecs,
                 EmbeddingPtr quotient);

  [[nodiscard]] CubeNode map(MeshIndex idx) const override;
  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override;

  [[nodiscard]] const AxisCodec& codec(u32 axis) const {
    return codecs_[axis];
  }

 private:
  [[nodiscard]] CubeNode combine(CubeNode quotient_node,
                                 const Coord& codes) const;
  /// Path for one physical cycle step t -> t+1 (mod cycle_len) on `axis`,
  /// with every other axis pinned; appended to `out` (skipping the first
  /// node if out is non-empty).
  void append_step(u32 axis, u64 t, const Coord& y_others,
                   const Coord& code_others, CubePath& out) const;

  std::vector<AxisCodec> codecs_;
  EmbeddingPtr quotient_;
  SmallVec<u32, 4> bit_offset_;  // inner field offset per axis
  u32 inner_bits_ = 0;
};

/// Planner for wraparound meshes: tries scheme combinations per axis,
/// plans the quotient with the mesh planner, and returns the best
/// certified embedding.
class TorusPlanner {
 public:
  explicit TorusPlanner(PlannerOptions opts = {});
  void set_direct_provider(DirectProvider provider);

  /// Plan a fully wrapped mesh (all axes wraparound).
  [[nodiscard]] PlanResult plan(const Shape& shape);
  /// Plan with explicit per-axis wrap flags.
  [[nodiscard]] PlanResult plan(const Mesh& guest);

 private:
  DirectProvider provider_;
  Planner mesh_planner_;
};

}  // namespace hj::torus
