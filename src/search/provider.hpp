// hjembed search: adapter exposing the searchers as a planner
// DirectProvider.
#pragma once

#include "core/planner.hpp"

namespace hj::search {

/// A DirectProvider that runs bounded backtracking and, when inconclusive,
/// a short annealing pass. Deterministic for a fixed budget and seed, so
/// every answer — a map or "none found" — is memoized for the whole
/// process, keyed by everything the search reads (these parameters, the
/// guest's extents and per-axis wrap flags, host_dim): a repeated
/// question, from this provider or any other made with the same
/// parameters, returns the stored answer without searching again. The
/// planner and the torus mapper only ask about guests of at most
/// PlannerOptions::provider_max_nodes nodes, which keeps the memo small.
[[nodiscard]] DirectProvider make_search_provider(
    u64 backtrack_budget = 20'000'000, u64 anneal_iterations = 0,
    u32 max_dilation = 2);

}  // namespace hj::search
