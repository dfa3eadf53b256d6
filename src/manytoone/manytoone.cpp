#include "manytoone/manytoone.hpp"

#include <algorithm>

#include "core/bitword.hpp"
#include "core/product.hpp"

namespace hj::m2o {

ContractionEmbedding::ContractionEmbedding(EmbeddingPtr base, Shape factors)
    : Embedding(Mesh(base->guest().shape() * factors), base->host_dim()),
      base_(std::move(base)),
      factors_(std::move(factors)) {
  require(!base_->guest().any_wrap(),
          "ContractionEmbedding: wraparound bases are not supported");
}

MeshIndex ContractionEmbedding::block_of(MeshIndex idx) const {
  const Shape& s = guest().shape();
  const Shape& sb = base_->guest().shape();
  const Coord z = s.coord(idx);
  Coord b(sb.dims(), 0);
  for (u32 i = 0; i < sb.dims(); ++i) b[i] = z[i] / factors_[i];
  return sb.index(b);
}

CubeNode ContractionEmbedding::map(MeshIndex idx) const {
  return base_->map(block_of(idx));
}

void ContractionEmbedding::map_all(std::vector<CubeNode>& out) const {
  std::vector<CubeNode> bm;
  base_->map_all(bm);
  const Shape& s = guest().shape();
  const Shape& sb = base_->guest().shape();
  const u64 n = s.num_nodes();
  out.resize(n);
  if (n == 0) return;
  const u32 k = s.dims();
  // Row-major odometer over the guest, fastest axis last: r[j] counts
  // through the block of factors_[j] nodes, b[j] is the block coordinate
  // and bi the base index of the current block.
  Coord r(k, 0), b(k, 0);
  u64 bi = 0;
  for (u64 idx = 0;;) {
    out[idx] = bm[bi];
    if (++idx == n) break;
    for (u32 j = k; j-- > 0;) {
      if (r[j] + 1 < factors_[j]) {
        ++r[j];
        break;
      }
      r[j] = 0;
      if (b[j] + 1 < sb[j]) {
        ++b[j];
        bi += sb.stride(j);
        break;
      }
      bi -= b[j] * sb.stride(j);
      b[j] = 0;
    }
  }
}

CubePath ContractionEmbedding::edge_path(const MeshEdge& e) const {
  const MeshIndex ba = block_of(e.a), bb = block_of(e.b);
  if (ba == bb) {
    // Intra-block edge: both endpoints share an image; zero-length path.
    return CubePath{map(e.a)};
  }
  const MeshIndex lo = std::min(ba, bb), hi = std::max(ba, bb);
  CubePath p = base_->edge_path(MeshEdge{lo, hi, e.axis, false});
  if (ba > bb) p.reverse();
  return p;
}

// ---------------------------------------------------------------------------

CubeFoldEmbedding::CubeFoldEmbedding(EmbeddingPtr base, u32 folded_dim)
    : Embedding(base->guest(), folded_dim),
      base_(std::move(base)),
      mask_((u64{1} << folded_dim) - 1) {
  require(folded_dim <= base_->host_dim(),
          "CubeFoldEmbedding: cannot fold to a larger cube");
}

CubeNode CubeFoldEmbedding::map(MeshIndex idx) const {
  return base_->map(idx) & mask_;
}

void CubeFoldEmbedding::map_all(std::vector<CubeNode>& out) const {
  base_->map_all(out);
  for (CubeNode& v : out) v &= mask_;
}

CubePath CubeFoldEmbedding::edge_path(const MeshEdge& e) const {
  CubePath folded;
  for (CubeNode v : base_->edge_path(e)) {
    const CubeNode w = v & mask_;
    // Hops along folded dimensions collapse to nothing.
    if (folded.empty() || folded.back() != w) folded.push_back(w);
  }
  return folded;
}

// ---------------------------------------------------------------------------

EmbeddingPtr gray_contraction(const Shape& block_counts,
                              const Shape& pow2_parts) {
  require(block_counts.dims() == pow2_parts.dims(),
          "gray_contraction: rank mismatch");
  for (u32 i = 0; i < pow2_parts.dims(); ++i)
    require(is_pow2(pow2_parts[i]),
            "gray_contraction: pow2_parts must be powers of two");
  auto gray = std::make_shared<GrayEmbedding>(Mesh(pow2_parts));
  return std::make_shared<ContractionEmbedding>(std::move(gray),
                                                block_counts);
}

namespace {

/// contract_to_cube's construction step: the embedding and its plan
/// string, not yet verified.
DegradedPlan build_contraction(const Shape& shape, u32 n) {
  require(n <= 63, "contract_to_cube: cube too large");
  const u32 k = shape.dims();

  // Per-axis options: (c, p) with c * 2^p >= l, c = ceil(l / 2^p).
  struct Option {
    u64 c;
    u32 p;
  };
  std::vector<std::vector<Option>> options(k);
  for (u32 i = 0; i < k; ++i)
    for (u32 p = 0; p <= log2_ceil(shape[i]); ++p)
      options[i].push_back({(shape[i] + (u64{1} << p) - 1) >> p, p});

  // Pick the combination minimizing the load factor prod(c) * 2^(sum p - n)
  // subject to sum p >= n.
  struct Choice {
    SmallVec<u32, 4> pick;
    u64 load = ~u64{0};
  } best;
  SmallVec<u32, 4> pick(k, 0);
  for (;;) {
    u64 blocks = 1;
    u32 bits = 0;
    for (u32 i = 0; i < k; ++i) {
      blocks *= options[i][pick[i]].c;
      bits += options[i][pick[i]].p;
    }
    if (bits >= n && bits < 64) {
      const u64 load = blocks << (bits - n);
      if (load < best.load) best = {pick, load};
    }
    u32 axis = 0;
    while (axis < k && ++pick[axis] == options[axis].size()) pick[axis++] = 0;
    if (axis == k) break;
  }
  require(best.load != ~u64{0}, "contract_to_cube: no feasible decomposition");

  SmallVec<u64, 4> counts, pows;
  u32 bits = 0;
  for (u32 i = 0; i < k; ++i) {
    const Option& o = options[i][best.pick[i]];
    counts.push_back(o.c);
    pows.push_back(u64{1} << o.p);
    bits += o.p;
  }

  EmbeddingPtr emb = gray_contraction(Shape{counts}, Shape{pows});
  std::string plan = "contract[" + Shape{counts}.to_string() + " * gray " +
                     Shape{pows}.to_string() + "]";
  // The contracted guest may exceed the requested shape: shrink to it.
  if (!(emb->guest().shape() == shape))
    emb = std::make_shared<SubmeshEmbedding>(std::move(emb), shape);
  if (bits > n) {
    emb = std::make_shared<CubeFoldEmbedding>(std::move(emb), n);
    plan += " folded to Q" + std::to_string(n);
  }

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

SubcubeEmbedding::SubcubeEmbedding(EmbeddingPtr base, u32 host_dim,
                                   u64 fixed_mask, u64 fixed_value)
    : Embedding(base->guest(), host_dim),
      base_(std::move(base)),
      fixed_mask_(fixed_mask),
      fixed_value_(fixed_value) {
  require(host_dim <= 63, "SubcubeEmbedding: cube too large");
  require((fixed_value & ~fixed_mask) == 0,
          "SubcubeEmbedding: fixed value 0x%llx outside its mask 0x%llx",
          static_cast<unsigned long long>(fixed_value),
          static_cast<unsigned long long>(fixed_mask));
  require(fixed_mask < (u64{1} << host_dim),
          "SubcubeEmbedding: mask outside the host cube");
  const u32 free_bits =
      host_dim - static_cast<u32>(std::popcount(fixed_mask));
  require(base_->host_dim() == free_bits,
          "SubcubeEmbedding: base Q%u does not fill the Q%u sub-cube",
          base_->host_dim(), free_bits);
}

CubeNode SubcubeEmbedding::expand(CubeNode v) const noexcept {
  // Spread the base address bits over the free positions, low to high.
  CubeNode out = fixed_value_;
  u32 src = 0;
  for (u32 j = 0; j < host_dim(); ++j) {
    if (fixed_mask_ & (u64{1} << j)) continue;
    out |= ((v >> src) & 1) << j;
    ++src;
  }
  return out;
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
  for (CubeNode v : base_->edge_path(e)) out.push_back(expand(v));
  return out;
}

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
    const u32 m = n - static_cast<u32>(std::popcount(mask));
    DegradedPlan out = build_contraction(shape, m);
    out.embedding = std::make_shared<SubcubeEmbedding>(
        std::move(out.embedding), n, mask, value);
    char buf[64];
    std::snprintf(buf, sizeof buf, " into subcube[mask=0x%llx val=0x%llx]",
                  static_cast<unsigned long long>(mask),
                  static_cast<unsigned long long>(value));
    out.plan += buf;
    return out;
  };
}

bool corollary5_condition(const Shape& shape, u32 n) {
  const u32 k = shape.dims();
  const u64 target = ceil_pow2(shape.num_nodes());
  SmallVec<u32, 4> pick(k, 0);
  std::vector<std::vector<u64>> ext(k);  // candidate c * 2^p per axis
  std::vector<std::vector<u32>> pow(k);
  for (u32 i = 0; i < k; ++i)
    for (u32 p = 0; p <= log2_ceil(shape[i]); ++p) {
      const u64 c = (shape[i] + (u64{1} << p) - 1) >> p;
      ext[i].push_back(c << p);
      pow[i].push_back(p);
    }
  for (;;) {
    u64 prod = 1;
    u32 bits = 0;
    for (u32 i = 0; i < k; ++i) {
      prod *= ext[i][pick[i]];
      bits += pow[i][pick[i]];
    }
    if (bits >= n && ceil_pow2(prod) == target) return true;
    u32 axis = 0;
    while (axis < k && ++pick[axis] == ext[axis].size()) pick[axis++] = 0;
    if (axis == k) break;
  }
  return false;
}

}  // namespace hj::m2o
