// hjembed: the live-recovery controller — escalating repair of a running
// embedding after mid-run fault arrivals.
//
// When a node or link dies under a live computation, tearing the whole
// placement down and replanning is rarely the cheapest fix: the paper's
// own structure (Theorem 3 products, the phi~ reflection, Section 7
// contractions) makes *local* repair possible. The controller walks an
// escalation ladder, cheapest rung first:
//
//   (a) Reroute  — keep every guest node where it is; detour only the
//       edge paths that touch the new fault (route_around_faults).
//       Migration cost 0; fails when a host *node* died under a guest
//       node, or a detour would blow the dilation budget.
//   (b) Migrate  — move only the guest nodes whose hosts died to healthy
//       spare addresses within a bounded Hamming radius, preferring
//       spares inside the same factor subcube of the product plan (same
//       outer bits), then reroute. Cost = sum of Hamming distances moved.
//   (c) Replan   — full Planner::plan_avoiding walk (detour / XOR remap /
//       many-to-one contraction). Cost = every guest node's move distance
//       under the fresh plan; always the most disruptive rung.
//
// Every rung's outcome is re-certified by verify() against the updated
// FaultSet before it may be chosen: rungs (a) and (b) hand their
// candidate to route_and_certify (core/router.hpp), the repair kernel the
// planner's own rungs use too, and must additionally stay within
// `baseline_dilation + max_dilation_increase` (a detour in a cube adds an
// even number of hops, so an uncontrolled detour chain can silently
// double dilation — the budget forces escalation instead). The
// controller picks the cheapest certified rung by migration cost.
//
// Sustained pressure (fault storms, DESIGN §10) adds guard rails:
//
//   * Repair budget with exponential backoff. Each repair() call is
//     charged 2^min(consecutive_failures, 5) units against a budget that
//     start_epoch() replenishes by `kBudgetPerEpoch` (capped at
//     `kBudgetCap`). Successful repairs cost one unit; a hopeless shape
//     that keeps failing sees its charges double until the budget cannot
//     cover the next attempt, and repair() then refuses up front
//     (RepairResult::budget_exhausted) instead of thrashing the ladder
//     for the rest of the run.
//   * Rung-level retry caps. A rung that failed `kRungRetryCap` times
//     in a row is skipped (its failure mode — no spare in radius, a host
//     node dead under a guest — rarely changes between consecutive
//     storms' epochs), but probed again every 4th skipped call so a
//     network healed by quarantine eviction can re-enable the cheap
//     rungs. Replan is never skipped: it is the rung of last resort.
//   * Impossibility witnesses. When the fault set provably admits no
//     certified one-to-one repair (pigeonhole: more guest nodes than
//     healthy hosts; or isolation: the largest healthy connected
//     component is too small), the controller skips the one-to-one rungs
//     outright and, if replan also fails, reports the witness so the
//     caller can degrade gracefully instead of retrying forever.
//
// All of this state is a pure function of the repair() call sequence, so
// controller behaviour — and with it the RecoveryLog — stays bit-identical
// at every thread count.
#pragma once

#include <optional>

#include "core/planner.hpp"

namespace hj::recovery {

/// The ladder rung a repair ended on.
enum class Rung : u8 { None, Reroute, Migrate, Replan };

[[nodiscard]] const char* rung_name(Rung r) noexcept;

/// Max added hops per detoured edge handed to route_around_faults.
inline constexpr u32 kDetourBudget = 2;
/// Repair-pressure budget (see the file comment): units replenished per
/// start_epoch().
inline constexpr u32 kBudgetPerEpoch = 4;
/// Ceiling on accumulated budget units, so a long quiet stretch cannot
/// bank enough budget to thrash through a later storm.
inline constexpr u32 kBudgetCap = 32;
/// Consecutive uncertified attempts of rung (a)/(b) before that rung is
/// skipped (probed again every 4th skip).
inline constexpr u32 kRungRetryCap = 3;

struct RecoveryOptions {
  /// Rungs (a)/(b) certify only if post-repair dilation stays within
  /// baseline_dilation + this; otherwise the controller escalates.
  u32 max_dilation_increase = 1;
  /// Hamming radius of the spare search in rung (b).
  u32 max_migration_radius = 3;
  /// Skip rungs (a)/(b) and always replan — the bench baseline.
  bool force_replan = false;
  /// Providers handed to the internal planner for rung (c).
  DirectProvider direct_provider;
  DegradeProvider degrade_provider;
};

struct RepairResult {
  bool ok = false;
  Rung rung = Rung::None;
  /// The repaired, certified embedding (null when !ok).
  EmbeddingPtr embedding;
  /// verify() report of `embedding` against the fault set handed in.
  VerifyReport report;
  /// Guest nodes whose host address changed, and the migration-cost
  /// model: sum over moved nodes of hamming(old address, new address).
  u64 moved_nodes = 0;
  u64 migration_cost = 0;
  /// Human-readable repair derivation, e.g. "migrate(2 nodes, cost 3)".
  std::string desc;
  /// True when repair() refused to attempt anything because the backoff
  /// budget could not cover the next charge; the caller should stop
  /// retrying (declare the run degraded) rather than call again.
  bool budget_exhausted = false;
  /// Set on failure when the fault set provably admits no certified
  /// one-to-one repair (pigeonhole / isolation; see
  /// impossibility_witness) — the lower-bound evidence behind a
  /// Degraded verdict.
  std::string witness;
};

/// Repairs embeddings of one mesh shape. Not thread-safe (owns a
/// Planner); create one per thread and share a ShardedPlanCache.
class RecoveryController {
 public:
  explicit RecoveryController(Shape shape, RecoveryOptions opts = {});

  /// Attach a cross-controller plan memo (not owned; must outlive the
  /// controller). Only fault-free sub-plans are shared through it; see
  /// the cache-purity audit in planner.cpp.
  void set_shared_cache(ShardedPlanCache* cache);

  /// Repair `current` so it avoids `faults`, walking the ladder.
  /// `baseline_dilation` is the pre-fault certified dilation (the d in
  /// the d+1 guarantee); `factor_inner_dim` is the host-bit width of the
  /// product plan's inner factor (see inner_factor_dim()), 0 when
  /// unknown — it only steers spare preference, never correctness.
  /// Returns ok=false when no rung produces a certified embedding.
  [[nodiscard]] RepairResult repair(const Embedding& current,
                                    const FaultSet& faults,
                                    u32 baseline_dilation,
                                    u32 factor_inner_dim = 0);

  /// Replenish the backoff budget by kBudgetPerEpoch (up to kBudgetCap).
  /// Epoch-driven callers (the live run) call this once per epoch; a
  /// controller that is never replenished has kBudgetCap to spend.
  void start_epoch();

  /// Consecutive repair() failures since the last certified repair (the
  /// exponent of the next attempt's charge).
  [[nodiscard]] u32 consecutive_failures() const noexcept {
    return consecutive_failures_;
  }

 private:
  [[nodiscard]] bool rung_enabled(u32 idx);  // 0 = reroute, 1 = migrate
  [[nodiscard]] RepairResult try_reroute(const Embedding& current,
                                         const FaultSet& faults,
                                         u32 dilation_budget);
  [[nodiscard]] RepairResult try_migrate(const Embedding& current,
                                         const FaultSet& faults,
                                         u32 dilation_budget,
                                         u32 factor_inner_dim);
  [[nodiscard]] RepairResult try_replan(const Embedding& current,
                                        const FaultSet& faults);

  Shape shape_;
  RecoveryOptions opts_;
  Planner planner_;
  // Storm guard-rail state (deterministic: a pure function of the
  // repair() call sequence).
  u32 budget_ = 0;
  u32 consecutive_failures_ = 0;
  u32 rung_failures_[2] = {0, 0};  // consecutive, per skippable rung
  u32 rung_skips_[2] = {0, 0};
};

/// Host-bit width of the inner factor when `emb` is a product plan
/// (MeshProductEmbedding), else 0. Callers cache this before the first
/// repair: repaired embeddings are explicit copies (ExplicitEmbedding)
/// and no longer expose their factor structure.
[[nodiscard]] u32 inner_factor_dim(const Embedding& emb);

/// A proof that no certified one-to-one repair of `shape` into the
/// faulted Q_{host_dim} can exist, or nullopt when no such proof is
/// found. Two witnesses, in increasing cost:
///   * pigeonhole — the guest has more nodes than healthy hosts (O(F));
///   * isolation  — every edge path of a connected guest must stay
///     inside one healthy connected component, and the largest healthy
///     component is smaller than the guest (BFS over the cube; only
///     attempted for host_dim <= 16).
/// A witness rules out rungs (a)/(b) and any one-to-one replan; only a
/// many-to-one contraction (degrade provider) could still serve, at a
/// load factor the witness quantifies.
[[nodiscard]] std::optional<std::string> impossibility_witness(
    const Shape& shape, const FaultSet& faults, u32 host_dim);

}  // namespace hj::recovery
