// hjembed: the embedding planner — the Section 4.2 strategy, made
// executable.
//
// Given a mesh shape, the planner assembles the best embedding it can
// certify from the library's building blocks:
//
//   1. Gray code when the axis roundings already reach the minimal cube.
//   2. A direct table (3x5, 7x9, 11x11, 3x3x3, 3x3x7).
//   3. Graph decomposition: factor every axis and combine factor plans
//      with Corollary 2 (this is the paper's contribution).
//   4. Search, only with a provider attached and only for base meshes of
//      at most kProviderMaxNodes nodes that steps 1-3 leave short of the
//      minimal cube: the committed search tables (core/direct.hpp), and
//      the provider itself only when no table covers the mesh.
//   5. Axis extension: embed the mesh as a submesh of a slightly larger,
//      better-factorable mesh (e.g. 3x3x23 inside 3x3x25), including the
//      multi-axis extension to 3*2^a / 7*2^a patterns behind Figure 2's
//      method 3.
//
// All leaves have dilation 1 (Gray) or 2 (tables/search), and products
// and submeshes preserve the maximum, so every plan has dilation <= 2;
// what varies is whether the minimal cube is reached. The search skips
// a factorization whose cube floor cannot beat the plan in hand, and
// the axis extensions once that plan reaches the minimal cube; neither
// cut changes a plan (DESIGN.md §12). The returned
// embedding always carries a fresh certificate (certify(): verify()'s
// report, composed by Theorem 3 for Gray and product plans).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/embedding.hpp"
#include "core/fault.hpp"
#include "core/verify.hpp"

namespace hj {

/// Hook for an external direct-embedding source (the search module): given
/// a mesh and a cube dimension, return a dilation-2 node map or nothing.
/// Kept as a callback so hj_core does not depend on hj_search.
using DirectProvider =
    std::function<std::optional<std::vector<CubeNode>>(const Mesh&, u32)>;

/// A degraded (typically many-to-one) plan produced when no one-to-one
/// fault-avoiding embedding exists.
struct DegradedPlan {
  EmbeddingPtr embedding;
  std::string plan;
};

/// Hook for the last rung of the degradation ladder: embed `shape` into
/// Q_{cube_dim} while avoiding `faults`, accepting load factor > 1
/// (Theorem 4 / Lemma 5 machinery). Kept as a callback so hj_core does not
/// depend on hj_manytoone; see m2o::make_degrade_provider().
using DegradeProvider = std::function<std::optional<DegradedPlan>(
    const Shape&, u32, const FaultSet&)>;

/// Guests at most this large are offered to the search: the committed
/// search tables, then the attached provider.
inline constexpr u64 kProviderMaxNodes = 150;

struct PlannerOptions {
  /// Ranking order for candidate plans. The Lexicographic default is the
  /// historical (cube, dilation) first-wins order and reproduces the
  /// pre-cost-model planner bit-for-bit; any other objective measures
  /// every candidate (certify() per candidate) and re-ranks ties by
  /// wirelength/congestion, with the balanced router racing dimension
  /// orders on search-based node maps.
  cost::Objective objective = cost::Objective::Lexicographic;
};

struct PlanResult {
  EmbeddingPtr embedding;
  /// Certified metrics (certify() of the final embedding).
  VerifyReport report;
  /// Human-readable derivation, e.g. "(direct 7x9x1 * gray 3x1x5) sub".
  std::string plan;
};

/// A finished sub-plan, as memoized by the planner: the embedding plus
/// the summary the search ranks on. Values are pure functions of the
/// memo key (planning is deterministic), which is what makes sharing
/// them across threads safe for reproducibility: a cache hit returns
/// exactly what recomputation would.
struct PlanCacheEntry {
  EmbeddingPtr emb;
  std::string desc;
  u32 cube = 0;
  u32 dil = 0;
  /// Measured secondary metrics, filled (measured = true) only when the
  /// planner's objective needs them; Lexicographic planning never
  /// measures, so the historical fast path is untouched.
  u32 cong = 0;
  u64 wl = 0;
  bool measured = false;
};

/// The one key for a canonical shape: packed extents plus the extension
/// flag. Integer extents hash and compare allocation-free (rank <= 4
/// stays inline); the factorization odometer probes thousands of times
/// per planned shape.
struct PlanKey {
  SmallVec<u64, 4> extents;
  bool extend = false;
  /// The planning objective (cost::Objective), part of the key: plans
  /// ranked under different objectives are different values, and the
  /// cache must never serve one objective's plan to another.
  u8 objective = 0;

  [[nodiscard]] static PlanKey of(const Shape& shape, bool extend,
                                  cost::Objective objective) {
    return PlanKey{shape.extents(), extend, static_cast<u8>(objective)};
  }

  friend bool operator==(const PlanKey& a, const PlanKey& b) noexcept {
    return a.extend == b.extend && a.objective == b.objective &&
           a.extents == b.extents;
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept {
    // FNV-1a over the extents, seeded with the extension flag and the
    // objective tag.
    u64 h = 14695981039346656037ull ^ static_cast<u64>(k.extend) ^
            (static_cast<u64>(k.objective) << 1);
    for (u64 e : k.extents) {
      h ^= e;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// The in-memory plan memo: a planner's own, one shared by the worker
/// planners of a batch (a factor mesh inside many product plans is
/// planned once per batch, not once per worker), or the serve daemon's
/// certified plans. Shard choice hashes the key, so unrelated shapes
/// rarely contend; reads take a shared lock (~2:1 hits at steady state,
/// every hit a pure read), so only the first planner of a shape takes a
/// shard's exclusive lock.
///
/// Purity invariant: keys carry no fault information, so ONLY fault-free
/// canonical plans may be stored. Planner::best() is the planner's sole
/// writer; plan_avoiding() treats its fault-constrained results as
/// uncacheable (see the audit comment in planner.cpp).
class ShardedPlanCache {
 public:
  [[nodiscard]] std::optional<PlanCacheEntry> get(const PlanKey& key) const;
  void put(const PlanKey& key, const PlanCacheEntry& entry);
  /// Total entries across shards (diagnostic; takes all shard locks).
  [[nodiscard]] u64 size() const;

 private:
  static constexpr u32 kShards = 64;
  [[nodiscard]] static u32 shard_of(const PlanKey& key);

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<PlanKey, PlanCacheEntry, PlanKeyHash> map;
  };
  std::array<Shard, kShards> shards_;
};

/// Plans embeddings of (non-wrapped) meshes into minimal-or-near-minimal
/// cubes. Not thread-safe; create one per thread. Sub-plans are memoized
/// across calls in a ShardedPlanCache, so reusing one planner amortizes
/// sweeps.
class Planner {
 public:
  explicit Planner(PlannerOptions opts = {});

  /// Attach a search-based direct embedding source.
  void set_direct_provider(DirectProvider provider);

  /// Attach a many-to-one fallback source (m2o::make_degrade_provider());
  /// used by plan_avoiding when no one-to-one remap dodges the faults.
  void set_degrade_provider(DegradeProvider provider);

  /// Attach a cross-planner memo (not owned; must outlive the planner)
  /// in place of the planner's own; nullptr detaches it. Used by
  /// plan_batch to share factor plans between worker planners.
  void set_shared_cache(ShardedPlanCache* cache);

  /// Best certified embedding of `shape`. Always succeeds (Gray is always
  /// available); inspect result.report for dilation / minimality.
  [[nodiscard]] PlanResult plan(const Shape& shape);

  /// Best certified embedding of `shape` that avoids `faults`, walking the
  /// degradation ladder:
  ///   1. detour — keep the planned node map, reroute affected edge paths
  ///      around failed links (adds <= 2 dilation per detour);
  ///   2. healthy remap — translate/reflect the node map across cube
  ///      dimensions (an XOR automorphism into the healthy sub-cube, which
  ///      expansion slack allows), then detour-route;
  ///   3. many-to-one contraction onto surviving nodes via the attached
  ///      degrade provider (Theorem 4 machinery).
  /// The chosen rung is recorded in PlanResult::plan, and the returned
  /// report is certified fault-free by the extended verify(). Throws
  /// std::invalid_argument when every rung fails (e.g. a fault set with no
  /// healthy sub-cube and no degrade provider attached).
  [[nodiscard]] PlanResult plan_avoiding(const Shape& shape,
                                         const FaultSet& faults);

 private:
  using Entry = PlanCacheEntry;

  /// The shared cache, else the owned one (on the heap: it cannot move).
  ShardedPlanCache& cache();
  Entry best(const Shape& shape, bool may_extend);
  void consider(Entry& incumbent, Entry candidate) const;
  /// Fill candidate.cong/wl (one certify()) when the objective ranks on
  /// them; a no-op under Lexicographic or when already measured.
  void measure(Entry& e) const;
  /// True when a cube tie is still worth building under the objective
  /// (non-lex objectives can win ties on secondary metrics).
  [[nodiscard]] bool tie_viable() const;
  Entry gray_entry(const Shape& shape) const;
  /// The plan string of a finished entry: its derivation, plus the
  /// " [obj=...]" gap suffix under a non-default objective.
  [[nodiscard]] std::string plan_string(const Entry& e) const;
  void try_factorizations(const Shape& shape, Entry& incumbent);
  /// A search leaf for a base mesh: the committed search table, else the
  /// provider; only with a provider attached.
  void try_search(const Shape& shape, Entry& incumbent);
  void try_extensions(const Shape& shape, Entry& incumbent);
  void try_pattern_extension(const Shape& shape, Entry& incumbent);

  PlannerOptions opts_;
  DirectProvider provider_;
  DegradeProvider degrade_provider_;
  ShardedPlanCache* shared_ = nullptr;
  std::unique_ptr<ShardedPlanCache> owned_;
};

/// Factory handed to plan_batch instead of a DirectProvider because each
/// worker planner needs its own provider instance (a provider closure is
/// not required to be reentrant). Called once per worker.
using DirectProviderFactory = std::function<DirectProvider()>;

/// Plan a batch of shapes concurrently on the par:: engine (HJ_THREADS /
/// --threads). Inputs are deduplicated by canonical (sorted) shape —
/// meshes are isomorphic under axis permutation — so each canonical
/// class is planned exactly once per batch, then relabeled to the
/// requested axis order with relabel_plan, which keeps the canonical
/// certificate. Worker planners share a ShardedPlanCache, so factor meshes
/// recurring across product plans are planned once. Results are in input
/// order and bit-identical at every thread count.
///
/// `cache`, when given, persists the shared memo across batches (it is
/// not cleared); pass nullptr for a per-call cache.
[[nodiscard]] std::vector<PlanResult> plan_batch(
    const std::vector<Shape>& shapes, const PlannerOptions& opts = {},
    const DirectProviderFactory& provider_factory = nullptr,
    ShardedPlanCache* cache = nullptr);

/// Relabel a finished plan to `target`, an axis permutation of its guest
/// shape. The relabel keeps the node images and host paths and maps the
/// edges one-to-one, so it inherits `canon.report` unchanged (DESIGN.md
/// §13). The checks are O(k): the sorted shapes match, the report
/// describes `canon.embedding`, and RelabelEmbedding accepts the axis
/// map. `target` equal to the plan's shape returns `canon`.
[[nodiscard]] PlanResult relabel_plan(const PlanResult& canon,
                                      const Shape& target);

/// "perm<target>(desc)": the plan string of a relabel (relabel_plan, serve).
inline std::string relabel_desc(const Shape& target, const std::string& desc) {
  return "perm<" + target.to_string() + ">(" + desc + ")";
}

}  // namespace hj
