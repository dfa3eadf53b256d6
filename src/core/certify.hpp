// hjembed: planner certificates by construction (Theorem 3, Corollary 2).
//
// verify() measures an embedding by walking every guest edge. For the
// plans the planner builds most (Gray codes, product chains and submeshes
// of products) the same report follows from the construction: a Gray edge
// is one hop on a link of its own, and a product's report composes from
// its factors. certify() composes those reports and walks only the leaves
// that are neither and hold no stored leaf; every other embedding goes to
// verify().
#pragma once

#include <optional>

#include "core/verify.hpp"

namespace hj {

/// The most edge paths one link of a folded leaf may carry. A leaf with a
/// busier link is not folded: its chain's report is verify()'s. Every
/// committed table carries at most 3.
inline constexpr u32 kMaxLinkUsers = 6;

/// A non-Gray leaf of a product chain (a table or a search map) as
/// certify() folds it: every guest edge with the coordinate of its `a`
/// end and its path's length, and for each host link its paths use (in
/// link-key order) the edges whose paths use it.
struct ChainLeaf {
  struct Edge {
    Coord c;
    u32 axis = 0;
    u32 hops = 0;
    friend bool operator==(const Edge&, const Edge&) = default;
  };

  std::vector<Edge> edges;  // in walk order
  /// Link l's users are user_edge[user_first[l], user_first[l + 1]): the
  /// indices of the edges whose paths use it, ascending, an edge once
  /// per use.
  std::vector<u32> user_first;
  std::vector<u32> user_edge;

  [[nodiscard]] u32 links() const noexcept {
    return static_cast<u32>(user_first.size() - 1);
  }
  friend bool operator==(const ChainLeaf&, const ChainLeaf&) = default;
};

/// Reads `emb` as a chain leaf: verify() accepts it, then one walk lists
/// its edges and links. Nothing when it cannot be folded: it wraps, is
/// many-to-one, fails verify(), or a link carries more than kMaxLinkUsers
/// edge paths.
[[nodiscard]] std::optional<ChainLeaf> read_chain_leaf(const Embedding& emb);

/// The leaf stored for `emb` when its table was built (direct.hpp): the
/// table's own for a built paper or extra table, or, for a relabel of
/// one, that leaf read through the relabel's axis map into `scratch`.
/// Null for any other embedding.
[[nodiscard]] const ChainLeaf* stored_chain_leaf(const Embedding& emb,
                                                 ChainLeaf& scratch);

/// The certificate of `emb`: equal to verify(emb) in every field.
///
/// Composed without a whole-guest walk when `emb` is a Gray embedding
/// without wraparound, a MeshProductEmbedding, or a SubmeshEmbedding of
/// either. Such a plan is flattened into its leaves F0..Fm, inner first,
/// and folded left as ((F0 * F1) * ...) * Fm (the Corollary 2 product is
/// associative). Gray leaves follow from the reflected-code property; a
/// table leaf, or a relabel of one, is its stored leaf; every other leaf
/// must pass read_chain_leaf(). The report is verify(emb) itself for any
/// other embedding, and whenever a leaf is invalid, many-to-one, wraps or
/// has too busy a link, or the composed histograms do not account for
/// every guest edge, so an invalid plan keeps verify()'s exact errors.
/// Keeps no state beyond the call. `composed`, when given, is set to
/// whether the report was composed.
[[nodiscard]] VerifyReport certify(const Embedding& emb,
                                   bool* composed = nullptr);

}  // namespace hj
