#include "core/recovery.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "core/bitword.hpp"
#include "core/product.hpp"
#include "core/router.hpp"
#include "obs/obs.hpp"

namespace hj::recovery {
namespace {

/// Per-rung registry scope: counts the attempt and (by watching the
/// function's result object) the certified outcomes. These counts are
/// deterministic (the ladder walk is). Rung wall time is not recorded
/// here: each rung's HJ_SPAN("recovery.<rung>") is its timer.
class RungObs {
 public:
  RungObs(const char* rung, const RepairResult& result)
      : rung_(rung), result_(&result), on_(obs::enabled()) {}
  RungObs(const RungObs&) = delete;
  RungObs& operator=(const RungObs&) = delete;
  ~RungObs() {
    if (!on_) return;
    auto& reg = obs::Registry::global();
    const std::string base = std::string("recovery.") + rung_;
    reg.counter(base + ".attempts").add();
    if (result_->ok) {
      reg.counter(base + ".certified").add();
      reg.histogram("recovery.migration_cost")
          .observe(result_->migration_cost);
    }
  }

 private:
  const char* rung_;
  const RepairResult* result_;
  bool on_;
};

/// Healthy host count of Q_n under `faults` (failed addresses outside
/// the cube do not count against it).
u64 healthy_hosts(const FaultSet& faults, u32 n) {
  const u64 total = u64{1} << n;
  u64 dead = 0;
  for (const CubeNode v : faults.failed_nodes())
    if (v < total) ++dead;
  return total - dead;
}

u64 count_moves(const Embedding& from, const Embedding& to, u64& cost) {
  std::vector<CubeNode> a, b;
  from.map_all(a);
  to.map_all(b);
  u64 moved = 0;
  cost = 0;
  for (MeshIndex i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    ++moved;
    cost += hamming(a[i], b[i]);
  }
  return moved;
}

}  // namespace

const char* rung_name(Rung r) noexcept {
  switch (r) {
    case Rung::Reroute: return "reroute";
    case Rung::Migrate: return "migrate";
    case Rung::Replan: return "replan";
    case Rung::None: break;
  }
  return "none";
}

RecoveryController::RecoveryController(Shape shape, RecoveryOptions opts)
    : shape_(std::move(shape)), opts_(std::move(opts)) {
  // Standalone (non-epoch-driven) callers start with a full bank; the
  // live driver replenishes per epoch via start_epoch().
  budget_ = kBudgetCap;
  if (opts_.direct_provider)
    planner_.set_direct_provider(opts_.direct_provider);
  if (opts_.degrade_provider)
    planner_.set_degrade_provider(opts_.degrade_provider);
}

void RecoveryController::start_epoch() {
  budget_ = std::min(kBudgetCap, budget_ + kBudgetPerEpoch);
}

bool RecoveryController::rung_enabled(u32 idx) {
  if (rung_failures_[idx] < kRungRetryCap) return true;
  // Over the cap: probe every 4th skipped call so a network healed by
  // quarantine eviction can re-enable the cheap rung.
  if (++rung_skips_[idx] % 4 == 0) return true;
  if (obs::enabled())
    obs::Registry::global().counter("recovery.rung_skips").add();
  return false;
}

void RecoveryController::set_shared_cache(ShardedPlanCache* cache) {
  planner_.set_shared_cache(cache);
}

RepairResult RecoveryController::try_reroute(const Embedding& current,
                                            const FaultSet& faults,
                                            u32 dilation_budget) {
  RepairResult out;
  out.rung = Rung::Reroute;
  HJ_SPAN("recovery.reroute");
  const RungObs rung_obs("reroute", out);
  // Start from the current paths: only the faulted ones are detoured.
  auto routed = route_and_certify(ExplicitEmbedding::copy_of(current), faults,
                                  kDetourBudget, dilation_budget);
  if (!routed) return out;
  out.ok = true;
  out.embedding = std::move(routed->embedding);
  out.report = std::move(routed->report);
  char buf[96];
  std::snprintf(buf, sizeof buf, "reroute(%llu detours, +%u dil)",
                static_cast<unsigned long long>(routed->detour.detoured_edges),
                routed->detour.max_added_dilation);
  out.desc = buf;
  return out;
}

RepairResult RecoveryController::try_migrate(const Embedding& current,
                                            const FaultSet& faults,
                                            u32 dilation_budget,
                                            u32 factor_inner_dim) {
  RepairResult out;
  out.rung = Rung::Migrate;
  HJ_SPAN("recovery.migrate");
  const RungObs rung_obs("migrate", out);
  const u32 n = current.host_dim();
  const u64 nodes = current.guest().num_nodes();

  std::vector<CubeNode> node_map;
  current.map_all(node_map);
  std::unordered_set<CubeNode> used;
  std::vector<MeshIndex> displaced;
  for (MeshIndex i = 0; i < nodes; ++i) {
    used.insert(node_map[i]);
    if (faults.node_failed(node_map[i])) displaced.push_back(i);
  }
  if (displaced.empty()) return out;  // nothing to migrate: a link fault

  // Spare search, deterministic: radius ascending; within a radius,
  // spares in the same factor subcube (identical outer bits — the repair
  // stays inside one inner-factor copy of the product) before foreign
  // ones; ties by address. Greedy in guest-node order.
  const CubeNode outer_mask =
      factor_inner_dim >= n ? 0 : ~((u64{1} << factor_inner_dim) - 1);
  for (MeshIndex i : displaced) {
    const CubeNode old = node_map[i];
    CubeNode spare = old;
    bool found = false;
    for (u32 r = 1; r <= opts_.max_migration_radius && !found; ++r) {
      // The addresses at Hamming distance r, ascending.
      std::vector<CubeNode> ring = masks_of_weight(n, r);
      for (CubeNode& cand : ring) cand ^= old;
      std::sort(ring.begin(), ring.end());
      for (int same_factor = 1; same_factor >= 0 && !found; --same_factor) {
        for (const CubeNode cand : ring) {
          const bool same = (cand & outer_mask) == (old & outer_mask);
          if (same != (same_factor == 1)) continue;
          if (faults.node_failed(cand) || used.count(cand)) continue;
          spare = cand;
          found = true;
          break;
        }
      }
    }
    if (!found) return out;  // no healthy spare in radius: escalate
    used.insert(spare);
    node_map[i] = spare;
    out.migration_cost += hamming(old, spare);
    ++out.moved_nodes;
  }

  auto moved = std::make_shared<ExplicitEmbedding>(current.guest(), n,
                                                   std::move(node_map));
  route_minimize_congestion(*moved);
  auto routed = route_and_certify(std::move(moved), faults,
                                  kDetourBudget, dilation_budget);
  if (!routed) return out;
  out.ok = true;
  out.embedding = std::move(routed->embedding);
  out.report = std::move(routed->report);
  char buf[96];
  std::snprintf(buf, sizeof buf, "migrate(%llu nodes, cost %llu)",
                static_cast<unsigned long long>(out.moved_nodes),
                static_cast<unsigned long long>(out.migration_cost));
  out.desc = buf;
  return out;
}

RepairResult RecoveryController::try_replan(const Embedding& current,
                                           const FaultSet& faults) {
  RepairResult out;
  out.rung = Rung::Replan;
  HJ_SPAN("recovery.replan");
  const RungObs rung_obs("replan", out);
  try {
    PlanResult plan = planner_.plan_avoiding(shape_, faults);
    out.moved_nodes = count_moves(current, *plan.embedding,
                                  out.migration_cost);
    out.ok = true;
    out.embedding = std::move(plan.embedding);
    out.report = std::move(plan.report);
    out.desc = "replan(" + plan.plan + ")";
  } catch (const std::invalid_argument&) {
    // Every planner rung failed (e.g. no healthy subcube and no degrade
    // provider): the machine is beyond this controller's repair.
  }
  return out;
}

RepairResult RecoveryController::repair(const Embedding& current,
                                        const FaultSet& faults,
                                        u32 baseline_dilation,
                                        u32 factor_inner_dim) {
  require(current.guest().shape() == shape_,
          "RecoveryController::repair: embedding guest %s does not match "
          "the controller shape %s",
          current.guest().shape().to_string().c_str(),
          shape_.to_string().c_str());
  const u32 dilation_budget =
      baseline_dilation + opts_.max_dilation_increase;
  HJ_SPAN("recovery.repair");

  // Backoff budget: the attempt's charge doubles with every consecutive
  // failure, so hopeless repair sequences price themselves out instead
  // of thrashing to the caller's epoch cap.
  const u32 charge = u32{1} << std::min(consecutive_failures_, 5u);
  if (charge > budget_) {
    RepairResult out;
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "repair budget exhausted (charge %u > remaining %u "
                  "after %u consecutive failures)",
                  charge, budget_, consecutive_failures_);
    out.desc = buf;
    out.budget_exhausted = true;
    if (obs::enabled())
      obs::Registry::global().counter("recovery.budget_exhausted").add();
    return out;
  }
  budget_ -= charge;
  if (obs::enabled())
    obs::Registry::global().counter("recovery.budget_charged").add(charge);

  // Which rung the ladder ultimately handed back (certified outcomes
  // only); distinct from <rung>.certified, which also counts the losing
  // candidate when migrate and replan both succeed. finish() also
  // settles the backoff and per-rung retry state.
  auto finish = [&](RepairResult r) {
    if (r.ok) {
      consecutive_failures_ = 0;
      rung_failures_[0] = rung_failures_[1] = 0;
      rung_skips_[0] = rung_skips_[1] = 0;
    } else {
      ++consecutive_failures_;
      if (r.witness.empty())
        if (auto w = impossibility_witness(shape_, faults,
                                           current.host_dim()))
          r.witness = *w;
      if (!r.witness.empty() && obs::enabled())
        obs::Registry::global().counter("recovery.witness").add();
    }
    if (obs::enabled()) {
      auto& reg = obs::Registry::global();
      reg.counter("recovery.repairs").add();
      if (r.ok)
        reg.counter(std::string("recovery.chosen.") + rung_name(r.rung))
            .add();
    }
    return r;
  };

  // Pigeonhole pre-check (O(|failed nodes|)): with fewer healthy hosts
  // than guest nodes, no one-to-one rung can possibly certify — go
  // straight to replan, whose degrade provider (if any) is the only
  // option left. This is the "know when repair is provably impossible"
  // contract: the ladder is not burned through on a hopeless shape.
  const bool one_to_one_possible =
      shape_.num_nodes() <= healthy_hosts(faults, current.host_dim());

  // Rungs (a)/(b) patch an explicit placement; a many-to-one embedding
  // (load factor > 1) has no such placement to patch — replan directly.
  const bool local_repair_possible =
      !opts_.force_replan && current.one_to_one() && one_to_one_possible;

  if (local_repair_possible) {
    // (a) costs zero migration: if it certifies, nothing can beat it.
    if (rung_enabled(0)) {
      RepairResult a = try_reroute(current, faults, dilation_budget);
      if (a.ok) return finish(std::move(a));
      ++rung_failures_[0];
    }

    RepairResult b;
    if (rung_enabled(1)) {
      b = try_migrate(current, faults, dilation_budget, factor_inner_dim);
      if (!b.ok) ++rung_failures_[1];
    }
    RepairResult c = try_replan(current, faults);
    if (b.ok && (!c.ok || b.migration_cost <= c.migration_cost))
      return finish(std::move(b));
    return finish(std::move(c));
  }
  return finish(try_replan(current, faults));
}

u32 inner_factor_dim(const Embedding& emb) {
  if (const auto* p = dynamic_cast<const MeshProductEmbedding*>(&emb))
    return p->inner().host_dim();
  return 0;
}

std::optional<std::string> impossibility_witness(const Shape& shape,
                                                 const FaultSet& faults,
                                                 u32 host_dim) {
  const u64 guest = shape.num_nodes();
  const u64 healthy = healthy_hosts(faults, host_dim);
  char buf[192];
  if (guest > healthy) {
    std::snprintf(buf, sizeof buf,
                  "pigeonhole: guest %s has %llu nodes but only %llu of "
                  "%llu hosts are healthy — no one-to-one embedding "
                  "exists (load factor >= %llu is forced)",
                  shape.to_string().c_str(),
                  static_cast<unsigned long long>(guest),
                  static_cast<unsigned long long>(healthy),
                  static_cast<unsigned long long>(u64{1} << host_dim),
                  static_cast<unsigned long long>(
                      healthy ? (guest + healthy - 1) / healthy : guest));
    return std::string(buf);
  }
  // Isolation witness: a mesh is connected, and every certified edge
  // path stays on healthy hardware, so all guest images must share one
  // healthy connected component. BFS the healthy subgraph; bounded to
  // cubes small enough that the sweep stays trivial next to a replan.
  if (host_dim > 16 || faults.empty()) return std::nullopt;
  const u64 total = u64{1} << host_dim;
  std::vector<u8> seen(total, 0);
  std::vector<CubeNode> stack;
  u64 largest = 0;
  for (CubeNode start = 0; start < total; ++start) {
    if (seen[start] || faults.node_failed(start)) continue;
    u64 size = 0;
    seen[start] = 1;
    stack.push_back(start);
    while (!stack.empty()) {
      const CubeNode v = stack.back();
      stack.pop_back();
      ++size;
      for (u32 bit = 0; bit < host_dim; ++bit) {
        const CubeNode w = v ^ (u64{1} << bit);
        if (seen[w] || faults.node_failed(w) || faults.link_failed(v, w))
          continue;
        seen[w] = 1;
        stack.push_back(w);
      }
    }
    largest = std::max(largest, size);
    if (largest >= guest) return std::nullopt;  // big enough: no witness
  }
  std::snprintf(buf, sizeof buf,
                "isolation: the largest healthy connected component of "
                "Q%u has %llu nodes < guest %s's %llu — no connected "
                "one-to-one embedding exists",
                host_dim, static_cast<unsigned long long>(largest),
                shape.to_string().c_str(),
                static_cast<unsigned long long>(guest));
  return std::string(buf);
}

}  // namespace hj::recovery
