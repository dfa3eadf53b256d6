// hjembed: congestion-aware path assignment.
//
// A node map fixes the dilation of every edge but not the congestion: a
// dilation-2 edge has two candidate midpoints and the choice matters. The
// paper's direct embeddings come with congestion-2 path assignments [13];
// this router recovers such assignments for any node map by greedy
// assignment followed by local-improvement passes.
#pragma once

#include <memory>
#include <optional>

#include "core/embedding.hpp"
#include "core/fault.hpp"
#include "core/verify.hpp"

namespace hj {

struct RouteStats {
  u32 congestion = 0;       // after routing
  u32 passes_used = 0;      // improvement passes actually run
  u64 rerouted_edges = 0;   // switches made during improvement
};

/// Choose cube paths for every guest edge of `emb`, minimizing the maximum
/// congestion. Dilation-1 edges are forced; dilation-2 edges pick one of
/// their two midpoints; longer edges keep their default route but still
/// count toward link loads. Paths are written back with set_edge_path().
RouteStats route_minimize_congestion(ExplicitEmbedding& emb,
                                     u32 max_passes = 16);

/// Congestion/wirelength-aware variant for the multi-objective planner:
/// race `candidates` dimension-order permutations against the default
/// fixed (e-cube) order and keep the best. Candidate 0 is the identity
/// (exactly the default order); the rest are Fisher-Yates shuffles drawn
/// from a splitmix64 stream seeded only by the candidate index, so the
/// scan is a pure function of (emb, candidates, max_passes) — bit
/// identical across runs and thread counts. Each candidate lays every
/// >= 2-hop edge along its bit order, runs the same two-hop improvement
/// passes as route_minimize_congestion, and is scored by max link load
/// then sum of squared loads (balance); ties keep the lowest index, so
/// the default order wins unless a permutation strictly helps. All paths
/// stay shortest, so wirelength is untouched — this is a congestion
/// lever only.
RouteStats route_balanced(ExplicitEmbedding& emb, u32 candidates = 8,
                          u32 max_passes = 16);

struct DetourStats {
  /// True iff every fault-affected edge found a healthy replacement path
  /// within the dilation budget (and no endpoint image is a failed node —
  /// a failed endpoint needs a node remap, which is the planner's job).
  bool ok = true;
  u64 detoured_edges = 0;     // edges rerouted around faults
  u64 unroutable_edges = 0;   // edges with no healthy path in budget
  u32 max_added_dilation = 0; // max(new path length - Hamming distance)
  u32 congestion = 0;         // max link load after detouring
};

/// Reroute every guest-edge path of `emb` that touches a failed node or
/// link onto a healthy cube path, adding at most `max_added_dilation` hops
/// over the Hamming distance of the edge image (a detour through an
/// adjacent cube dimension costs exactly 2 extra hops). Healthy paths are
/// left untouched; replacement paths are chosen by shortest-first,
/// load-greedy search, then tightened by local-improvement passes over the
/// detoured edges so congestion is re-minimized. Call after
/// route_minimize_congestion().
DetourStats route_around_faults(ExplicitEmbedding& emb,
                                const FaultSet& faults,
                                u32 max_added_dilation = 2,
                                u32 max_passes = 16);

/// A fault-avoiding candidate that passed route_and_certify.
struct CertifiedRoute {
  std::shared_ptr<ExplicitEmbedding> embedding;
  VerifyReport report;  // verify(*embedding, faults)
  DetourStats detour;
};

/// The one repair kernel: every fault-avoiding placement (the recovery
/// ladder's reroute and migrate rungs, the planner's detour and XOR-remap
/// rungs) is accepted here and nowhere else. Detours `candidate`'s
/// faulted paths in place (route_around_faults with `detour_budget`),
/// then certifies it with one verify(*candidate, faults); a caller that
/// keeps its own reference sees the routed candidate either way. Returns
/// the candidate only if every detour was found and the result is valid,
/// fault-free and of dilation at most `max_dilation`; nullopt otherwise.
[[nodiscard]] std::optional<CertifiedRoute> route_and_certify(
    std::shared_ptr<ExplicitEmbedding> candidate, const FaultSet& faults,
    u32 detour_budget, u32 max_dilation);

}  // namespace hj
