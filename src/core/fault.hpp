// hjembed: permanent fault sets over the Boolean cube.
//
// The paper targets iPSC/nCUBE-era hypercube multiprocessors, where dead
// nodes and links were a fact of life. A FaultSet records the permanently
// failed hardware; the router detours guest-edge paths around it (a detour
// is a controlled dilation increase), the planner remaps or contracts
// embeddings away from it, and the verifier certifies that a finished
// embedding never touches it. Transient (probabilistic) link faults are a
// simulation-time concern and live in hypersim (sim::FaultModel), layered
// on top of this structural set.
#pragma once

#include <algorithm>
#include <set>
#include <vector>

#include "core/bitword.hpp"
#include "core/hypercube.hpp"

namespace hj {

/// Permanently failed cube nodes and (undirected) cube links.
///
/// Membership is a bitmap lookup: nodes below 2^kDenseNodeDimLimit are
/// bits indexed by address, links whose lower endpoint lies below
/// 2^kDenseLinkDimLimit are bits indexed by Hypercube::edge_key. Keys
/// above those ranges (a fault spec may name any u64) live in an ordered
/// set instead; every key has exactly one home.
class FaultSet {
 public:
  FaultSet() = default;

  void fail_node(CubeNode v) { nodes_.insert(v); }

  void fail_link(CubeNode a, CubeNode b) {
    require(Hypercube::adjacent(a, b),
            "FaultSet::fail_link: %llu and %llu are not cube-adjacent",
            static_cast<unsigned long long>(a),
            static_cast<unsigned long long>(b));
    links_.insert(Hypercube::edge_key(a, b));
  }

  /// Remove a previously failed link (endpoint node failures are
  /// untouched). Exists for the quarantine layer: a suspected-transient
  /// link conservatively quarantined as permanent may later be probed
  /// and returned to service (live-run LRU un-quarantine), which is only
  /// sound for links *this* process quarantined — never for diagnosed
  /// ground-truth failures.
  void heal_link(CubeNode a, CubeNode b) {
    require(Hypercube::adjacent(a, b),
            "FaultSet::heal_link: %llu and %llu are not cube-adjacent",
            static_cast<unsigned long long>(a),
            static_cast<unsigned long long>(b));
    links_.erase(Hypercube::edge_key(a, b));
  }

  [[nodiscard]] bool node_failed(CubeNode v) const {
    return nodes_.contains(v);
  }

  /// True iff the (undirected) link between adjacent nodes is failed, or
  /// either endpoint node is failed (a dead node kills its links).
  [[nodiscard]] bool link_failed(CubeNode a, CubeNode b) const {
    return node_failed(a) || node_failed(b) ||
           links_.contains(Hypercube::edge_key(a, b));
  }

  /// True iff every node and every hop of `path` is healthy.
  [[nodiscard]] bool path_avoids(const CubePath& path) const {
    if (empty()) return true;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (node_failed(path[i])) return false;
      if (i + 1 < path.size() && link_failed(path[i], path[i + 1]))
        return false;
    }
    return true;
  }

  [[nodiscard]] bool empty() const noexcept {
    return nodes_.size() == 0 && links_.size() == 0;
  }
  [[nodiscard]] std::size_t num_failed_nodes() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t num_failed_links() const noexcept {
    return links_.size();
  }
  /// Failed node addresses, ascending.
  [[nodiscard]] std::vector<CubeNode> failed_nodes() const {
    return nodes_.keys();
  }
  /// Failed links as Hypercube::edge_key values (lo << 6 | flipped bit),
  /// ascending.
  [[nodiscard]] std::vector<u64> failed_link_keys() const {
    return links_.keys();
  }

 private:
  /// One key range: keys below `Limit` are bits of a bitmap that grows
  /// (doubling) to cover the largest one, larger keys an ordered set.
  template <u64 Limit>
  class KeySet {
   public:
    void insert(u64 key) {
      if (key >= Limit) {
        sparse_.insert(key);
        return;
      }
      if (key >= bits_.size())
        bits_.resize(std::min(Limit, std::max(key + 1, 2 * bits_.size())));
      if (!bits_.test_and_set(key)) ++dense_;
    }
    void erase(u64 key) {
      if (key >= Limit) {
        sparse_.erase(key);
      } else if (contains(key)) {
        bits_.clear(key);
        --dense_;
      }
    }
    [[nodiscard]] bool contains(u64 key) const {
      if (key >= Limit) return sparse_.count(key) != 0;
      return key < bits_.size() && bits_.test(key);
    }
    [[nodiscard]] std::size_t size() const noexcept {
      return dense_ + sparse_.size();
    }
    /// Every key, ascending.
    [[nodiscard]] std::vector<u64> keys() const {
      std::vector<u64> out;
      bits_.for_each_set([&](u64 key) { out.push_back(key); });
      out.insert(out.end(), sparse_.begin(), sparse_.end());
      return out;
    }

   private:
    BitwordSet bits_;
    std::size_t dense_ = 0;  // set bits
    std::set<u64> sparse_;
  };

  KeySet<u64{1} << Hypercube::kDenseNodeDimLimit> nodes_;
  // edge_key(a, b) is below this limit iff min(a, b) < 2^kDenseLinkDimLimit.
  KeySet<u64{1} << (Hypercube::kDenseLinkDimLimit + 6)> links_;
};

}  // namespace hj
