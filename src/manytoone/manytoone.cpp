#include "manytoone/manytoone.hpp"

#include <bit>

#include "core/bitword.hpp"
#include "core/product.hpp"

namespace hj::m2o {

EmbeddingPtr contract(EmbeddingPtr base, const Shape& factors) {
  auto point = std::make_shared<SubcubeEmbedding>(
      std::make_shared<GrayEmbedding>(Mesh(factors)), 0, 0, 0);
  return std::make_shared<MeshProductEmbedding>(std::move(point),
                                                std::move(base));
}

SubcubeEmbedding::SubcubeEmbedding(EmbeddingPtr base, u32 host_dim,
                                   u64 fixed_mask, u64 fixed_value)
    : Embedding(base->guest(), host_dim),
      base_(std::move(base)),
      free_bits_(host_dim - static_cast<u32>(std::popcount(fixed_mask))),
      fixed_mask_(fixed_mask),
      fixed_value_(fixed_value) {
  require(host_dim <= 63, "SubcubeEmbedding: cube too large");
  require((fixed_value & ~fixed_mask) == 0,
          "SubcubeEmbedding: fixed value 0x%llx outside its mask 0x%llx",
          static_cast<unsigned long long>(fixed_value),
          static_cast<unsigned long long>(fixed_mask));
  require(fixed_mask < (u64{1} << host_dim),
          "SubcubeEmbedding: mask outside the host cube");
  require(base_->host_dim() >= free_bits_,
          "SubcubeEmbedding: base Q%u does not fill the Q%u sub-cube",
          base_->host_dim(), free_bits_);
}

CubeNode SubcubeEmbedding::expand(CubeNode v) const noexcept {
  // Fold away the base's surplus high bits, then open a zero at each
  // fixed position, lowest first, so the base bits fill the free ones.
  v &= (u64{1} << free_bits_) - 1;
  for (u64 rest = fixed_mask_; rest != 0; rest &= rest - 1) {
    const u64 below = (rest & (~rest + 1)) - 1;
    v = (v & below) | ((v & ~below) << 1);
  }
  return v | fixed_value_;
}

CubeNode SubcubeEmbedding::map(MeshIndex idx) const {
  return expand(base_->map(idx));
}

void SubcubeEmbedding::map_all(std::vector<CubeNode>& out) const {
  base_->map_all(out);
  for (CubeNode& v : out) v = expand(v);
}

CubePath SubcubeEmbedding::edge_path(const MeshEdge& e) const {
  CubePath out;
  for (CubeNode v : base_->edge_path(e)) {
    const CubeNode w = expand(v);
    // Hops along folded dimensions collapse to nothing.
    if (out.empty() || out.back() != w) out.push_back(w);
  }
  return out;
}

// ---------------------------------------------------------------------------

EmbeddingPtr gray_contraction(const Shape& block_counts,
                              const Shape& pow2_parts) {
  require(block_counts.dims() == pow2_parts.dims(),
          "gray_contraction: rank mismatch");
  for (u32 i = 0; i < pow2_parts.dims(); ++i)
    require(is_pow2(pow2_parts[i]),
            "gray_contraction: pow2_parts must be powers of two");
  return contract(std::make_shared<GrayEmbedding>(Mesh(pow2_parts)),
                  block_counts);
}

namespace {

/// Corollary 5's decompositions of `shape`: every per-axis p_i in
/// [0, ceil(log2 l_i)], axis 0 fastest, extends axis i to c_i 2^{p_i} >= l_i
/// with c_i = ceil(l_i / 2^{p_i}). Calls fn(p, prod c_i, sum p_i) for each
/// and stops at the first call that returns true; returns whether one did.
bool any_decomposition(
    const Shape& shape,
    FnRef<bool(const SmallVec<u32, 4>&, u64, u32)> fn) {
  const u32 k = shape.dims();
  SmallVec<u32, 4> p(k, 0);
  for (;;) {
    u64 blocks = 1;
    u32 bits = 0;
    for (u32 i = 0; i < k; ++i) {
      blocks *= (shape[i] + (u64{1} << p[i]) - 1) >> p[i];
      bits += p[i];
    }
    if (fn(p, blocks, bits)) return true;
    u32 axis = 0;
    while (axis < k && ++p[axis] > log2_ceil(shape[axis])) p[axis++] = 0;
    if (axis == k) return false;
  }
}

/// contract_to_cube's construction step, placed into the sub-cube of Q_n
/// whose `mask` bits read `value` (all of Q_n when the mask is empty): the
/// embedding and its plan string, not yet verified.
DegradedPlan build_contraction(const Shape& shape, u32 n, u64 mask = 0,
                               u64 value = 0) {
  require(n <= 63, "contract_to_cube: cube too large");
  const u32 m = n - static_cast<u32>(std::popcount(mask));

  // Pick the decomposition with sum p == m minimizing the load factor
  // prod(c), the first in odometer order. One with sum p > m never wins:
  // lowering one of its p_i >= 1 by one at most doubles prod(c), so keeps
  // the load prod(c) * 2^(sum p - m), and comes earlier.
  SmallVec<u32, 4> best;
  u64 best_load = ~u64{0};
  any_decomposition(shape, [&](const SmallVec<u32, 4>& p, u64 blocks,
                               u32 bits) {
    if (bits == m && blocks < best_load) {
      best = p;
      best_load = blocks;
    }
    return false;
  });
  require(best_load != ~u64{0}, "contract_to_cube: no feasible decomposition");

  SmallVec<u64, 4> counts, pows;
  for (u32 i = 0; i < shape.dims(); ++i) {
    counts.push_back((shape[i] + (u64{1} << best[i]) - 1) >> best[i]);
    pows.push_back(u64{1} << best[i]);
  }

  EmbeddingPtr emb = gray_contraction(Shape{counts}, Shape{pows});
  std::string plan = "contract[" + Shape{counts}.to_string() + " * gray " +
                     Shape{pows}.to_string() + "]";
  // The contracted guest may exceed the requested shape: shrink to it.
  if (!(emb->guest().shape() == shape))
    emb = std::make_shared<SubmeshEmbedding>(std::move(emb), shape);
  if (mask != 0)
    emb = std::make_shared<SubcubeEmbedding>(std::move(emb), n, mask, value);
  return {std::move(emb), std::move(plan)};
}

}  // namespace

ContractPlan contract_to_cube(const Shape& shape, u32 n) {
  DegradedPlan built = build_contraction(shape, n);
  ContractPlan out;
  out.report = verify(*built.embedding);
  out.embedding = std::move(built.embedding);
  out.plan = std::move(built.plan);
  out.optimal_load =
      (shape.num_nodes() + (u64{1} << n) - 1) >> n;
  return out;
}

// ---------------------------------------------------------------------------

DegradeProvider make_degrade_provider() {
  return [](const Shape& shape, u32 n,
            const FaultSet& faults) -> std::optional<DegradedPlan> {
    // A sub-cube (fix the bits in `mask` to `value`) survives iff it
    // contains no failed node and no failed link with both endpoints
    // inside it (a link across a fixed dimension leaves the sub-cube).
    const std::vector<CubeNode> failed_nodes = faults.failed_nodes();
    const std::vector<u64> failed_links = faults.failed_link_keys();
    const auto healthy = [&](u64 mask, u64 value) {
      for (CubeNode f : failed_nodes)
        if ((f & mask) == value) return false;
      for (u64 key : failed_links) {
        const CubeNode lo = key >> 6;
        const u32 bit = static_cast<u32>(key & 63);
        if (mask & (u64{1} << bit)) continue;  // crosses a fixed dimension
        if ((lo & mask) == value) return false;
      }
      return true;
    };

    // Fewest fixed bits first: every pinned bit halves the surviving
    // machine and roughly doubles the load factor.
    u64 mask = 0, value = 0;
    bool found = false;
    for (u32 k = 1; k <= 3 && !found; ++k) {
      for (const u64 m : masks_of_weight(n, k)) {
        for (u64 sub = 0; sub < (u64{1} << k) && !found; ++sub) {
          // Scatter `sub` over the set bits of `m`, lowest first.
          u64 v = 0, rest = m;
          for (u32 i = 0; i < k; ++i, rest &= rest - 1)
            if (sub >> i & 1) v |= rest & (~rest + 1);
          if (healthy(m, v)) {
            mask = m;
            value = v;
            found = true;
          }
        }
        if (found) break;
      }
    }
    if (!found) return std::nullopt;

    // Unverified here: plan_avoiding certifies the placed embedding
    // against the faults, and that one verify also checks validity.
    DegradedPlan out = build_contraction(shape, n, mask, value);
    char buf[64];
    std::snprintf(buf, sizeof buf, " into subcube[mask=0x%llx val=0x%llx]",
                  static_cast<unsigned long long>(mask),
                  static_cast<unsigned long long>(value));
    out.plan += buf;
    return out;
  };
}

bool corollary5_condition(const Shape& shape, u32 n) {
  const u64 target = ceil_pow2(shape.num_nodes());
  return any_decomposition(shape, [&](const SmallVec<u32, 4>&, u64 blocks,
                                      u32 bits) {
    return bits >= n && bits < 64 && ceil_pow2(blocks << bits) == target;
  });
}

}  // namespace hj::m2o
