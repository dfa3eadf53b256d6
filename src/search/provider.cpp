#include "search/provider.hpp"

#include "search/anneal.hpp"
#include "search/backtrack.hpp"

namespace hj::search {

DirectProvider make_search_provider(u64 backtrack_budget,
                                    u64 anneal_iterations, u32 max_dilation) {
  return [=](const Mesh& guest,
             u32 host_dim) -> std::optional<std::vector<CubeNode>> {
    BacktrackOptions bo;
    bo.max_dilation = max_dilation;
    bo.node_budget = backtrack_budget;
    BacktrackResult br = backtrack_search(guest, host_dim, bo);
    if (br.map) return br.map;
    if (br.exhausted || anneal_iterations == 0) return std::nullopt;
    AnnealOptions ao;
    ao.max_dilation = max_dilation;
    ao.iterations = anneal_iterations;
    ao.restarts = 2;
    AnnealResult ar = anneal_search(guest, host_dim, ao);
    return ar.map ? std::optional(std::move(*ar.map)) : std::nullopt;
  };
}

}  // namespace hj::search
