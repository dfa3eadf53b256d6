#include "core/planner.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "core/bitword.hpp"
#include "core/certify.hpp"
#include "core/coverage.hpp"
#include "core/direct.hpp"
#include "core/parallel.hpp"
#include "core/product.hpp"
#include "core/router.hpp"
#include "obs/obs.hpp"

namespace hj {
namespace {

// Axis lengths in practice have few divisors; 16 inline slots cover every
// length below 2^4 * 3^2 * 5 * 7 without touching the heap.
SmallVec<u64, 16> divisors(u64 n) {
  SmallVec<u64, 16> out;
  for (u64 d = 1; d * d <= n; ++d) {
    if (n % d) continue;
    out.push_back(d);
    if (d != n / d) out.push_back(n / d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

u64 product_of(const Shape& s) { return s.num_nodes(); }

/// Top-level plans try axis extensions (strategy 3 of Section 4.2); the
/// factor and extension sub-plans they build do not.
constexpr bool kExtendTopLevel = true;

/// plan_batch plans its canonical shapes in chunks of this many. Fixed,
/// not derived from the thread count, as the par:: determinism contract
/// asks: small enough that the self-scheduled workers stay busy to the
/// end of a mixed-size batch, large enough that a chunk's Planner set-up
/// stays negligible.
constexpr u64 kPlanGrain = 4;

cost::CostVector cost_of(const PlanCacheEntry& e) {
  return cost::CostVector{e.cube, e.dil, e.cong, e.wl};
}

}  // namespace

u32 ShardedPlanCache::shard_of(const PlanKey& key) {
  return static_cast<u32>(PlanKeyHash{}(key) % kShards);
}

std::optional<PlanCacheEntry> ShardedPlanCache::get(const PlanKey& key) const {
  std::optional<PlanCacheEntry> hit;
  {
    const Shard& s = shards_[shard_of(key)];
    const std::shared_lock<std::shared_mutex> lock(s.mu);
    if (auto it = s.map.find(key); it != s.map.end()) hit = it->second;
  }
  // Timing-kind: whether a worker hits depends on which worker published
  // the key first, i.e. on scheduling — only the *results* served are
  // deterministic, never the hit counts.
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    static obs::Counter& lookups =
        reg.counter("plancache.lookups", obs::Kind::Timing);
    static obs::Counter& hits =
        reg.counter("plancache.hits", obs::Kind::Timing);
    lookups.add();
    if (hit) hits.add();
  }
  return hit;
}

void ShardedPlanCache::put(const PlanKey& key, const PlanCacheEntry& entry) {
  bool inserted;
  {
    Shard& s = shards_[shard_of(key)];
    const std::unique_lock<std::shared_mutex> lock(s.mu);
    // First writer wins; a racing writer computed the same value anyway
    // (planning is deterministic), so dropping the duplicate is safe.
    inserted = s.map.try_emplace(key, entry).second;
  }
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    static obs::Counter& puts =
        reg.counter("plancache.puts", obs::Kind::Timing);
    static obs::Counter& inserts =
        reg.counter("plancache.inserts", obs::Kind::Timing);
    puts.add();
    if (inserted) inserts.add();
  }
}

u64 ShardedPlanCache::size() const {
  u64 n = 0;
  for (const Shard& s : shards_) {
    const std::shared_lock<std::shared_mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

Planner::Planner(PlannerOptions opts) : opts_(opts) {}

void Planner::set_direct_provider(DirectProvider provider) {
  provider_ = std::move(provider);
  // Cached plans may improve with the provider attached. A shared cache
  // is kept: plan_batch attaches it first, and other workers read it.
  owned_.reset();
}

void Planner::set_degrade_provider(DegradeProvider provider) {
  degrade_provider_ = std::move(provider);
}

void Planner::set_shared_cache(ShardedPlanCache* cache) { shared_ = cache; }

ShardedPlanCache& Planner::cache() {
  if (shared_) return *shared_;
  if (!owned_) owned_ = std::make_unique<ShardedPlanCache>();
  return *owned_;
}

void Planner::measure(Entry& e) const {
  if (!cost::needs_measurement(opts_.objective) || !e.emb || e.measured)
    return;
  const VerifyReport r = certify(*e.emb);
  e.dil = r.dilation;
  e.cong = r.congestion;
  e.wl = r.wirelength;
  e.measured = true;
}

bool Planner::tie_viable() const {
  return cost::needs_measurement(opts_.objective);
}

void Planner::consider(Entry& incumbent, Entry candidate) const {
  if (!candidate.emb) return;
  measure(candidate);
  if (!incumbent.emb) {
    incumbent = std::move(candidate);
    return;
  }
  if (!cost::better(opts_.objective, cost_of(candidate), cost_of(incumbent)))
    return;
  // Deterministic-kind: whether the objective's secondary keys overrode
  // the historical order is a pure function of the two entries.
  if (obs::enabled() &&
      !cost::better(cost::Objective::Lexicographic, cost_of(candidate),
                    cost_of(incumbent))) {
    obs::Registry::global()
        .counter(std::string("planner.wins.") +
                 cost::objective_name(opts_.objective))
        .add();
  }
  incumbent = std::move(candidate);
}

Planner::Entry Planner::gray_entry(const Shape& shape) const {
  Entry e;
  e.emb = std::make_shared<GrayEmbedding>(Mesh(shape));
  e.desc = "gray " + shape.to_string();
  e.cube = shape.gray_cube_dim();
  e.dil = shape.num_nodes() > 1 ? 1 : 0;
  return e;
}

Planner::Entry Planner::best(const Shape& shape, bool may_extend) {
  // Timing-kind: how often best() runs (vs being memo-served) depends on
  // which worker planner owned which chunk of the batch.
  if (obs::enabled()) {
    static obs::Counter& calls = obs::Registry::global().counter(
        "planner.best_calls", obs::Kind::Timing);
    calls.add();
  }
  const PlanKey key = PlanKey::of(shape, may_extend, opts_.objective);
  if (auto hit = cache().get(key)) {
    if (obs::enabled()) {
      static obs::Counter& hits = obs::Registry::global().counter(
          "planner.memo_hits", obs::Kind::Timing);
      hits.add();
    }
    return *std::move(hit);
  }
  // Only final plans are published (a shared cache must not serve another
  // worker a provisional one); the recursion is acyclic: factor meshes
  // are smaller, and extensions recurse with may_extend = false.
  Entry incumbent = gray_entry(shape);
  measure(incumbent);

  // The paper's order (Section 4.2, methods 1-4): Gray code, a direct
  // table, decomposition; a search only for base meshes nothing else
  // reaches; then axis extensions.
  const u32 minimal = shape.minimal_cube_dim();
  if (incumbent.cube > minimal) {
    if (auto d = direct_embedding(shape)) {
      Entry e;
      e.emb = *d;
      e.desc = "direct " + shape.to_string();
      e.cube = (*d)->host_dim();
      e.dil = 2;
      consider(incumbent, std::move(e));
    }
    if (incumbent.cube > minimal) try_factorizations(shape, incumbent);
    if (incumbent.cube > minimal) try_search(shape, incumbent);
    if (incumbent.cube > minimal && may_extend) {
      try_pattern_extension(shape, incumbent);
      if (incumbent.cube > minimal) try_extensions(shape, incumbent);
    }
  }

  cache().put(key, incumbent);
  return incumbent;
}

void Planner::try_search(const Shape& shape, Entry& incumbent) {
  if (!provider_ || shape.num_nodes() > kProviderMaxNodes) return;
  // The committed search tables answer every question the canonical
  // shapes of up to 512 nodes raise; the live provider only sees misses.
  const u32 minimal = shape.minimal_cube_dim();
  std::optional<std::vector<CubeNode>> m = search_table_map(shape);
  if (!m) m = provider_(Mesh(shape), minimal);
  if (!m) return;
  auto emb = std::make_shared<ExplicitEmbedding>(Mesh(shape), minimal,
                                                 std::move(*m));
  // Non-dilation objectives get the balanced router's seeded
  // dimension-order race; the default keeps the historical paths.
  if (cost::needs_measurement(opts_.objective))
    route_balanced(*emb);
  else
    route_minimize_congestion(*emb);
  Entry e;
  e.emb = std::move(emb);
  e.desc = "search " + shape.to_string();
  e.cube = minimal;
  e.dil = 2;
  consider(incumbent, std::move(e));
}

void Planner::try_factorizations(const Shape& shape, Entry& incumbent) {
  // A product of factors of n1 and n2 nodes needs at least
  // log2_ceil(n1) + log2_ceil(n2) dimensions. A measuring objective
  // builds cube ties; Lexicographic needs a lower cube, as a tie never
  // wins there (DESIGN.md §12 has the proof).
  const auto can_win = [&](u64 n1, u64 n2) {
    const u32 cube_floor = log2_ceil(n1) + log2_ceil(n2);
    if (tie_viable() ? cube_floor <= incumbent.cube
                     : cube_floor < incumbent.cube)
      return true;
    // Timing-kind: which best() calls run at all depends on which worker
    // published a shared sub-plan first.
    if (obs::enabled()) {
      static obs::Counter& cuts = obs::Registry::global().counter(
          "planner.factor.cut", obs::Kind::Timing);
      cuts.add();
    }
    return false;
  };
  const u32 k = shape.dims();
  std::vector<SmallVec<u64, 16>> divs(k);
  for (u32 i = 0; i < k; ++i) divs[i] = divisors(shape[i]);

  // Odometer over per-axis divisor choices for the first factor.
  SmallVec<u32, 4> pick(k, 0);
  for (;;) {
    SmallVec<u64, 4> f1, f2;
    u64 n1 = 1;
    for (u32 i = 0; i < k; ++i) {
      const u64 d = divs[i][pick[i]];
      f1.push_back(d);
      f2.push_back(shape[i] / d);
      n1 *= d;
    }
    const u64 n2 = shape.num_nodes() / n1;
    // Skip trivial splits and canonicalize (the pair is unordered; the
    // lower-dilation factor is placed inner regardless).
    if (n1 > 1 && n2 > 1 && n1 <= n2 && can_win(n1, n2)) {
      Shape s1{f1}, s2{f2};
      Entry e1 = best(s1, false);
      Entry e2 = best(s2, false);
      Entry e;
      e.cube = e1.cube + e2.cube;
      e.dil = std::max(e1.dil, e2.dil);
      // Under a measuring objective a cube tie can still win on the
      // secondary metrics, so the candidate must be built and measured.
      if (!incumbent.emb || e.cube < incumbent.cube ||
          (e.cube == incumbent.cube &&
           (e.dil < incumbent.dil || tie_viable()))) {
        const Entry& inner = e1.dil <= e2.dil ? e1 : e2;
        const Entry& outer = e1.dil <= e2.dil ? e2 : e1;
        e.emb = std::make_shared<MeshProductEmbedding>(inner.emb, outer.emb);
        e.desc = "(" + inner.desc + " * " + outer.desc + ")";
        consider(incumbent, std::move(e));
      }
    }
    // Advance the odometer.
    u32 axis = 0;
    while (axis < k && ++pick[axis] == divs[axis].size()) pick[axis++] = 0;
    if (axis == k) break;
  }
}

void Planner::try_extensions(const Shape& shape, Entry& incumbent) {
  const u64 total = product_of(shape);
  const u64 budget = ceil_pow2(total);
  const u32 minimal = log2_ceil(total);
  for (u32 i = 0; i < shape.dims(); ++i) {
    const u64 rest = total / shape[i];
    const u64 vmax = budget / rest;  // keep the extended mesh within the
                                     // minimal cube of the original
    for (u64 v = shape[i] + 1; v <= vmax; ++v) {
      // Every extension stays within the original's minimal cube, so
      // once the incumbent sits there none can win (DESIGN.md §12).
      if (!tie_viable() && incumbent.cube == minimal) {
        if (obs::enabled()) {
          static obs::Counter& cuts = obs::Registry::global().counter(
              "planner.extend.cut", obs::Kind::Timing);
          cuts.add();
        }
        return;
      }
      SmallVec<u64, 4> ext = shape.extents();
      ext[i] = v;
      Shape bigger{ext};
      Entry grown = best(bigger, false);
      Entry e;
      e.cube = grown.cube;
      e.dil = grown.dil;
      if (grown.cube < incumbent.cube ||
          (grown.cube == incumbent.cube &&
           (grown.dil < incumbent.dil || tie_viable()))) {
        e.emb = std::make_shared<SubmeshEmbedding>(grown.emb, shape);
        e.desc = "sub<" + shape.to_string() + ">(" + grown.desc + ")";
        consider(incumbent, std::move(e));
      }
    }
  }
}

void Planner::try_pattern_extension(const Shape& shape, Entry& incumbent) {
  // Multi-axis extension to the 3*2^a / 7*2^a patterns of Figure 2's
  // method 3 (only meaningful for 3D shapes; other ranks skip).
  if (shape.dims() != 3) return;
  // The direct table of each pattern; the paper's tables reach the
  // minimal cube (core/direct.hpp), so a table's cube is log2_ceil of
  // its node count.
  static constexpr u64 kTables[][3] = {
      {3, 3, 3}, {7, 3, 3}, {3, 7, 3}, {3, 3, 7}};
  for (const u64(&c)[3] : kTables) {
    SmallVec<u64, 4> inner_ext;
    u32 cube = log2_ceil(c[0] * c[1] * c[2]);
    bool exact = true;
    for (u32 i = 0; i < 3; ++i) {
      const u64 li = shape[i];
      const u64 pow = li <= c[i] ? 1 : ceil_pow2((li + c[i] - 1) / c[i]);
      inner_ext.push_back(pow);
      cube += log2_ceil(pow);
      if (pow * c[i] < li) exact = false;
    }
    if (!exact) continue;
    if (cube > incumbent.cube || (cube == incumbent.cube && !tie_viable()))
      continue;
    const Shape table_shape{c[0], c[1], c[2]};
    auto table = direct_embedding(table_shape);
    if (!table) continue;
    auto inner = std::make_shared<GrayEmbedding>(Mesh(Shape{inner_ext}));
    auto prod = std::make_shared<MeshProductEmbedding>(inner, *table);
    assert(prod->host_dim() == cube);
    Entry e;
    e.cube = cube;
    e.dil = 2;
    e.emb = prod->guest().shape() == shape
                ? EmbeddingPtr(prod)
                : EmbeddingPtr(std::make_shared<SubmeshEmbedding>(prod, shape));
    e.desc = "sub<" + shape.to_string() + ">(gray " +
             Shape{inner_ext}.to_string() + " * direct " +
             table_shape.to_string() + ")";
    consider(incumbent, std::move(e));
  }
}

PlanResult Planner::plan(const Shape& shape) {
  HJ_SPAN("plan");
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    static obs::Counter& plans = reg.counter("planner.plans");
    plans.add();
    reg.counter(std::string("planner.plans.") +
                cost::objective_name(opts_.objective))
        .add();
  }
  Entry e = best(shape, kExtendTopLevel);
  PlanResult out;
  out.embedding = e.emb;
  bool composed = false;
  {
    HJ_SPAN("plan.certify");
    out.report = certify(*e.emb, &composed);
  }
  // Deterministic-kind: plan() runs once per canonical shape of a batch,
  // and which path certified a plan is a function of the plan.
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    static obs::Counter& composed_plans =
        reg.counter("planner.certify.composed");
    static obs::Counter& walked_plans = reg.counter("planner.certify.walked");
    (composed ? composed_plans : walked_plans).add();
  }
  out.plan = plan_string(e);
  // Timing-kind: plan() runs on batch worker threads, so emission order
  // is scheduling-dependent even though each payload is deterministic.
  if (obs::events_on())
    obs::Event("planner.plan", obs::Kind::Timing, obs::Severity::Info,
               "planner")
        .kv("shape", shape.to_string())
        .kv("cube", static_cast<u64>(out.report.host_dim))
        .kv("dil", static_cast<u64>(out.report.dilation))
        .emit();
  return out;
}

std::string Planner::plan_string(const Entry& e) const {
  // Non-default objectives record the achieved gaps in the plan string
  // (the default keeps the historical strings, which golden tests pin).
  // Their entries are always measured, so cong/wl are certify()'s values.
  if (opts_.objective == cost::Objective::Lexicographic) return e.desc;
  const cost::Bounds b = cost::lower_bounds(e.emb->guest(), e.emb->host_dim(),
                                            e.emb->one_to_one());
  char buf[128];
  std::snprintf(buf, sizeof buf, " [obj=%s wl %llu (%.2fx) cong %u (%.2fx)]",
                cost::objective_name(opts_.objective),
                static_cast<unsigned long long>(e.wl),
                cost::gap(static_cast<double>(e.wl),
                          static_cast<double>(b.wirelength)),
                e.cong, cost::gap(e.cong, b.congestion));
  return e.desc + buf;
}

PlanResult Planner::plan_avoiding(const Shape& shape, const FaultSet& faults) {
  HJ_SPAN("plan_avoiding");
  if (obs::enabled()) {
    static obs::Counter& avoiding =
        obs::Registry::global().counter("planner.avoiding");
    avoiding.add();
  }
  if (faults.empty()) return plan(shape);
  // Cache-purity audit: the ShardedPlanCache is keyed by (shape,
  // extension flag, objective) only — no fault information — so a
  // fault-constrained plan must NEVER be inserted under such a key, or a
  // later fault-free plan() of the same shape would be served a detoured
  // or remapped embedding. This function therefore only *reads* the
  // caches, via the best() call below (whose fault-free result is the
  // legitimate cacheable object); every faulted embedding it builds is
  // returned directly and never written back. The base plan is never
  // returned, so it is not verified: each returned plan carries exactly
  // one certificate, its verify(emb, faults).
  const Entry base = best(shape, kExtendTopLevel);
  const std::string base_plan = plan_string(base);

  const u32 n = base.emb->host_dim();
  const u64 cube = u64{1} << n;
  const u64 nodes = shape.num_nodes();
  require(nodes <= (u64{1} << 24),
          "plan_avoiding: mesh with %llu nodes is too large to materialize",
          static_cast<unsigned long long>(nodes));

  std::vector<CubeNode> map;
  base.emb->map_all(map);
  BitwordSet used(cube);
  for (MeshIndex i = 0; i < nodes; ++i) used.set(map[i]);

  // Rungs 1-2 of the degradation ladder: an XOR translation t of the node
  // map (t = 0 keeps the map and only detours edge paths; a single-bit t
  // is a reflection across that cube dimension). The map avoids every
  // failed node iff f ^ t is an unused address for each failed node f, so
  // candidates are screened in O(#faults) before any routing work.
  const std::vector<CubeNode> failed = faults.failed_nodes();
  const auto dodges_failed_nodes = [&](u64 t) {
    for (CubeNode f : failed)
      if ((f ^ t) < cube && used.test(f ^ t)) return false;
    return true;
  };
  const auto attempt = [&](u64 t) -> std::optional<PlanResult> {
    std::vector<CubeNode> m(map);
    if (t)
      for (CubeNode& v : m) v ^= t;
    auto emb = std::make_shared<ExplicitEmbedding>(Mesh(shape), n,
                                                   std::move(m));
    route_minimize_congestion(*emb);
    // Detour budget 2, no dilation cap: the planner rungs trade dilation
    // for availability.
    auto routed = route_and_certify(std::move(emb), faults, 2, ~u32{0});
    if (!routed) return std::nullopt;
    std::string desc = base_plan;
    if (const u64 d = routed->detour.detoured_edges)
      desc = "detour[" + std::to_string(d) + "](" + desc + ")";
    if (t) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "remap[xor 0x%llx]",
                    static_cast<unsigned long long>(t));
      desc = std::string(buf) + "(" + desc + ")";
    }
    PlanResult out;
    out.embedding = std::move(routed->embedding);
    out.report = std::move(routed->report);
    out.plan = std::move(desc);
    return out;
  };

  // Routing attempts are O(E) each; bound them so a dense fault set cannot
  // turn the translation scan quadratic.
  u32 routing_budget = 64;
  if (dodges_failed_nodes(0)) {
    if (auto r = attempt(0)) return *r;
    --routing_budget;
  }
  if (n <= 20) {
    // Small cube: scan every translation (screening is near-free).
    for (u64 t = 1; t < cube && routing_budget > 0; ++t) {
      if (!dodges_failed_nodes(t)) continue;
      if (auto r = attempt(t)) return *r;
      --routing_budget;
    }
  } else {
    // Large cube: single- and double-dimension reflections only.
    for (u32 d1 = 0; d1 < n && routing_budget > 0; ++d1)
      for (u32 d2 = d1; d2 < n && routing_budget > 0; ++d2) {
        const u64 t = (u64{1} << d1) | (u64{1} << d2);
        if (!dodges_failed_nodes(t)) continue;
        if (auto r = attempt(t)) return *r;
        --routing_budget;
      }
  }

  // Rung 3: many-to-one contraction onto surviving nodes.
  if (degrade_provider_) {
    if (auto degraded = degrade_provider_(shape, n, faults)) {
      VerifyReport r = verify(*degraded->embedding, faults);
      if (r.valid && r.fault_free) {
        PlanResult out;
        out.embedding = std::move(degraded->embedding);
        out.report = std::move(r);
        out.plan = "degrade(" + degraded->plan + ")";
        return out;
      }
    }
  }
  require(false,
          "plan_avoiding: no fault-avoiding plan for %s in Q%u "
          "(%zu failed nodes, %zu failed links)",
          shape.to_string().c_str(), n, faults.num_failed_nodes(),
          faults.num_failed_links());
  return {};  // unreachable
}

PlanResult relabel_plan(const PlanResult& canon, const Shape& target) {
  const Mesh& base = canon.embedding->guest();
  if (target == base.shape()) return canon;
  require(target.sorted() == base.shape().sorted(),
          "relabel_plan: target is not an axis permutation of the plan");
  require(canon.report.guest_nodes == base.num_nodes() &&
              canon.report.guest_edges == base.num_edges() &&
              canon.report.host_dim == canon.embedding->host_dim(),
          "relabel_plan: the report does not certify the plan");
  return {RelabelEmbedding::onto(canon.embedding, target), canon.report,
          relabel_desc(target, canon.plan)};
}

std::vector<PlanResult> plan_batch(const std::vector<Shape>& shapes,
                                   const PlannerOptions& opts,
                                   const DirectProviderFactory& provider_factory,
                                   ShardedPlanCache* cache) {
  HJ_SPAN_N("plan_batch", shapes.size());
  ShardedPlanCache local_cache;
  if (!cache) cache = &local_cache;

  // Deduplicate by canonical (sorted) shape: axis order only permutes
  // the guest labelling, so each canonical class is planned once.
  std::vector<Shape> uniq;
  std::vector<std::size_t> canon_of(shapes.size());
  {
    std::unordered_map<PlanKey, std::size_t, PlanKeyHash> slot;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      Shape canon = shapes[i].sorted();
      const auto [it, fresh] = slot.try_emplace(
          PlanKey::of(canon, kExtendTopLevel, opts.objective),
          uniq.size());
      if (fresh) uniq.push_back(std::move(canon));
      canon_of[i] = it->second;
    }
  }
  // Deterministic-kind: request and canonical counts are pure functions
  // of the input batch (the dedup-effectiveness numerator/denominator).
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("plan.batch.calls").add();
    reg.counter("plan.batch.shapes").add(shapes.size());
    reg.counter("plan.batch.unique").add(uniq.size());
  }

  // Plan the canonical shapes. Every worker planner reads and publishes
  // through the shared cache, so factor plans are reused across chunks.
  // Each canonical plan is a pure function of the shape, so scheduling
  // cannot change any result.
  std::vector<PlanResult> canon_plans(uniq.size());
  {
    HJ_SPAN_N("plan_batch.plan_canonical", uniq.size());
    par::parallel_for(0, uniq.size(), kPlanGrain, [&](u64 lo, u64 hi) {
      Planner planner(opts);
      planner.set_shared_cache(cache);
      if (provider_factory) planner.set_direct_provider(provider_factory());
      for (u64 i = lo; i < hi; ++i) canon_plans[i] = planner.plan(uniq[i]);
    });
  }

  // Relabel each canonical plan to the requested axis order. A relabel
  // inherits its canonical plan's certificate (see relabel_plan).
  std::vector<PlanResult> out(shapes.size());
  {
    HJ_SPAN("plan_batch.relabel");
    par::parallel_for(0, shapes.size(), /*grain=*/16, [&](u64 lo, u64 hi) {
      for (u64 i = lo; i < hi; ++i)
        out[i] = relabel_plan(canon_plans[canon_of[i]], shapes[i]);
    });
  }
  // Result-quality distributions and the relabel count are functions of
  // the (deterministic) results, computed serially on the calling thread
  // so the loop itself adds no sync and the batch summary is a legitimate
  // Deterministic event, independent of worker scheduling.
  if (obs::enabled() || obs::events_on()) {
    u64 relabeled = 0;
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out[i].embedding != canon_plans[canon_of[i]].embedding) ++relabeled;
    if (obs::enabled()) {
      auto& reg = obs::Registry::global();
      obs::Histogram& dil = reg.histogram("plan.dilation");
      obs::Histogram& slack = reg.histogram("plan.cube_slack");
      for (std::size_t i = 0; i < out.size(); ++i) {
        dil.observe(out[i].report.dilation);
        slack.observe(out[i].report.host_dim - shapes[i].minimal_cube_dim());
      }
      reg.counter("plan.batch.relabeled").add(relabeled);
    }
    if (obs::events_on()) {
      obs::Event("plan.batch", obs::Kind::Deterministic, obs::Severity::Info,
                 "planner")
          .kv("shapes", static_cast<u64>(shapes.size()))
          .kv("unique", static_cast<u64>(uniq.size()))
          .kv("relabeled", relabeled)
          .emit();
    }
  }
  return out;
}

}  // namespace hj
