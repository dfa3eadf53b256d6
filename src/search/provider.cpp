#include "search/provider.hpp"

#include <map>
#include <mutex>

#include "search/anneal.hpp"
#include "search/backtrack.hpp"

namespace hj::search {
namespace {

using Answer = std::optional<std::vector<CubeNode>>;

/// The process-wide search memo: the lazily filled counterpart of the
/// built-in tables in core/direct.cpp. The key is (backtrack budget,
/// anneal iterations, max dilation, host_dim, then extent and wrap flag
/// per axis); its fixed-length prefix makes the rank unambiguous.
struct Memo {
  std::mutex mu;
  std::map<std::vector<u64>, Answer> answers;
};

Memo& memo() {
  static Memo m;
  return m;
}

Answer run_search(const Mesh& guest, u32 host_dim, u64 backtrack_budget,
                  u64 anneal_iterations, u32 max_dilation) {
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
}

}  // namespace

DirectProvider make_search_provider(u64 backtrack_budget,
                                    u64 anneal_iterations, u32 max_dilation) {
  return [=](const Mesh& guest, u32 host_dim) -> Answer {
    std::vector<u64> key{backtrack_budget, anneal_iterations, max_dilation,
                         host_dim};
    for (u32 i = 0; i < guest.dims(); ++i) {
      key.push_back(guest.shape()[i]);
      key.push_back(guest.wraps(i));
    }
    Memo& m = memo();
    {
      const std::lock_guard<std::mutex> lock(m.mu);
      const auto it = m.answers.find(key);
      if (it != m.answers.end()) return it->second;
    }
    // Search outside the lock; a racing search of the same key computes
    // the identical answer, so the first insert wins.
    Answer found = run_search(guest, host_dim, backtrack_budget,
                              anneal_iterations, max_dilation);
    const std::lock_guard<std::mutex> lock(m.mu);
    return m.answers.emplace(std::move(key), std::move(found)).first->second;
  };
}

}  // namespace hj::search
