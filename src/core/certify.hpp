// hjembed: planner certificates by construction (Theorem 3, Corollary 2).
//
// verify() measures an embedding by walking every guest edge. For the
// plans the planner builds most (Gray codes, product chains and submeshes
// of products) the same report follows from the construction: a Gray edge
// is one hop on a link of its own, and a product's report composes from
// its factors. certify() composes those reports and walks only the leaves
// that are neither; every other embedding goes to verify().
#pragma once

#include "core/verify.hpp"

namespace hj {

/// The certificate of `emb`: equal to verify(emb) in every field.
///
/// Composed without a whole-guest walk when `emb` is a Gray embedding
/// without wraparound, a MeshProductEmbedding, or a SubmeshEmbedding of
/// either. Such a plan is flattened into its leaves F0..Fm, inner first,
/// and folded left as ((F0 * F1) * ...) * Fm (the Corollary 2 product is
/// associative). Gray leaves follow from the reflected-code property;
/// every other leaf must pass verify() and is then walked on its own.
/// The report is verify(emb) itself for any other embedding, and whenever
/// a leaf is invalid, many-to-one or wraps, or the composed histograms do
/// not account for every guest edge, so an invalid plan keeps verify()'s
/// exact errors. Keeps no state beyond the call. `composed`, when given,
/// is set to whether the report was composed.
[[nodiscard]] VerifyReport certify(const Embedding& emb,
                                   bool* composed = nullptr);

}  // namespace hj
