// hjembed: many-to-one embeddings (Section 7 of the paper).
//
// When the mesh outgrows the machine, several mesh nodes share a cube node
// and the quality measure becomes the *load factor* (Definition 5). The
// paper's toolkit, each step built from the one-to-one machinery:
//
//   Theorem 4    the product of many-to-one embeddings multiplies load
//                factors, keeps dilation max(d1, d2), and bounds the
//                congestion by max(f1 c2, f2 c1). MeshProductEmbedding is
//                the construction; it simply stops being injective.
//   Lemma 5      contraction: an (l1 l1') x ... x (lk lk') mesh rides on an
//                embedding of the l1 x ... x lk mesh with load factor
//                f * prod l'_i, unchanged dilation, and congestion
//                c_i * prod(l'_j) / l'_i on axis i. It is Theorem 4 with an
//                inner factor that maps the l1' x ... x lk' mesh onto the
//                one node of Q0 (contract()).
//   Corollary 4  Gray code + contraction embeds an l1 2^n1 x ... mesh with
//                dilation one and optimal load factor.
//   Corollary 5  any mesh embeds into any n-cube with dilation one and
//                load factor within 2x of optimal, by extending axes to
//                l'_i 2^n_i and folding surplus cube dimensions away. The
//                fold quotients the cube by its high address bits: a
//                SubcubeEmbedding that pins no bit.
#pragma once

#include <string>

#include "core/embedding.hpp"
#include "core/planner.hpp"
#include "core/verify.hpp"

namespace hj::m2o {

/// Lemma 5: contract blocks of `factors[i]` consecutive nodes per axis i
/// onto one node of the base embedding's guest. Guest shape =
/// base guest shape * factors (elementwise). It is the Theorem 4 product
/// whose inner factor maps the `factors` mesh onto the one node of Q0, so
/// intra-block edges collapse to one-node paths and block-boundary edges
/// ride the base paths.
[[nodiscard]] EmbeddingPtr contract(EmbeddingPtr base, const Shape& factors);

/// Places an embedding into Q_{host_dim} by pinning the address bits in
/// `fixed_mask` to `fixed_value` and spreading the base host's bits over
/// the free positions: the image lives entirely inside one sub-cube. A
/// base cube larger than the free bits is folded first (Corollary 5): its
/// surplus high address bits are dropped, so hops along them collapse, and
/// folding to Q_n is the placement that pins no bit. Dilation never grows;
/// without a fold, dilation, congestion and load factor are the base's.
class SubcubeEmbedding final : public Embedding {
 public:
  SubcubeEmbedding(EmbeddingPtr base, u32 host_dim, u64 fixed_mask,
                   u64 fixed_value);

  [[nodiscard]] CubeNode map(MeshIndex idx) const override;
  [[nodiscard]] CubePath edge_path(const MeshEdge& e) const override;
  void map_all(std::vector<CubeNode>& out) const override;
  /// Injective iff the base is and nothing is folded away.
  [[nodiscard]] bool one_to_one() const noexcept override {
    return base_->one_to_one() && base_->host_dim() == free_bits_;
  }
  /// expand() maps cube neighbours to cube neighbours or, across a folded
  /// dimension, to one node.
  [[nodiscard]] bool unit_paths() const noexcept override {
    return base_->unit_paths();
  }

 private:
  [[nodiscard]] CubeNode expand(CubeNode v) const noexcept;

  EmbeddingPtr base_;
  u32 free_bits_;
  u64 fixed_mask_;
  u64 fixed_value_;
};

/// Corollary 4: Gray code on the power-of-two parts plus contraction of
/// the rest: embeds the mesh (block_counts[i] * pow2_parts[i]) per axis
/// into the cube of the pow2 parts, with dilation <= 1 and optimal load
/// factor prod(block_counts).
[[nodiscard]] EmbeddingPtr gray_contraction(const Shape& block_counts,
                                            const Shape& pow2_parts);

/// A planned many-to-one embedding (Corollary 5 pipeline).
struct ContractPlan {
  EmbeddingPtr embedding;
  VerifyReport report;
  std::string plan;
  /// ceil(|mesh| / 2^n): no embedding can do better.
  u64 optimal_load = 0;
};

/// Embed `shape` into Q_n (n may be far smaller than the mesh) with
/// dilation <= 1, minimizing the load factor over the per-axis
/// (c_i * 2^{n_i} >= l_i) decompositions with sum n_i == n (a larger sum
/// followed by a cube fold never loads less, so none is folded).
/// The paper's example: a 19x19 mesh into Q5 -> load 15, optimal 12.
[[nodiscard]] ContractPlan contract_to_cube(const Shape& shape, u32 n);

/// Corollary 5's applicability condition: some per-axis decomposition
/// l'_i 2^{n_i} >= l_i has ceil2(prod l'_i 2^{n_i}) == ceil2(prod l_i) and
/// sum n_i >= n. When it holds, contract_to_cube's load factor is within a
/// factor of two of optimal; when it fails the paper makes no promise.
[[nodiscard]] bool corollary5_condition(const Shape& shape, u32 n);

// --- Fault-tolerant degradation (the last rung of the planner ladder). ---

/// Degrade provider for Planner::plan_avoiding: when no one-to-one remap
/// dodges the fault set, find a fault-free sub-cube of Q_n (fixing up to
/// three address bits), contract the mesh into it with Lemma 5 / Corollary
/// 5 machinery (dilation 1, near-optimal load factor over the surviving
/// nodes), and place it there. Returns nothing when no such sub-cube
/// exists. The plan comes back unverified: its one certificate is the
/// caller's verify(emb, faults), as in Planner::plan_avoiding.
[[nodiscard]] DegradeProvider make_degrade_provider();

}  // namespace hj::m2o
