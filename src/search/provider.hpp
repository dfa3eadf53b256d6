// hjembed search: adapter exposing the searchers as a planner
// DirectProvider.
#pragma once

#include "core/planner.hpp"

namespace hj::search {

/// A DirectProvider that runs bounded backtracking and, when inconclusive,
/// a short annealing pass. Deterministic for a fixed budget and seed; it
/// keeps no state, so every call searches. The planner asks it only on a
/// miss of the committed search tables (core/direct.hpp), and the planner
/// and the torus mapper only about guests of at most kProviderMaxNodes
/// nodes.
[[nodiscard]] DirectProvider make_search_provider(
    u64 backtrack_budget = 20'000'000, u64 anneal_iterations = 0,
    u32 max_dilation = 2);

}  // namespace hj::search
