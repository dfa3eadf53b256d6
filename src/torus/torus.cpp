#include "torus/torus.hpp"

#include <algorithm>

#include "core/gray.hpp"

namespace hj::torus {
namespace {

/// Explicit small rings (the paper's Figure 5-(e) special cases), one per
/// non-power-of-two length <= 7, in the minimal bit field. Odd rings have
/// one dilation-2 closing edge (the cube is bipartite, so dilation 1 is
/// impossible for odd cycles); ring 6 is dilation 1.
constexpr CubeNode kRing3[] = {0, 1, 3};
constexpr CubeNode kRing5[] = {0, 1, 3, 7, 6};
constexpr CubeNode kRing6[] = {0, 1, 3, 2, 6, 4};
constexpr CubeNode kRing7[] = {0, 1, 3, 2, 6, 7, 5};

const CubeNode* ring_table(u64 len) {
  switch (len) {
    case 3: return kRing3;
    case 5: return kRing5;
    case 6: return kRing6;
    case 7: return kRing7;
    default: return nullptr;
  }
}

}  // namespace

const char* to_string(AxisScheme s) {
  switch (s) {
    case AxisScheme::Pass: return "pass";
    case AxisScheme::Gray: return "gray";
    case AxisScheme::Ring: return "ring";
    case AxisScheme::Half: return "half";
    case AxisScheme::Quarter: return "quarter";
  }
  return "?";
}

AxisCodec AxisCodec::make(AxisScheme scheme, u64 len, bool wrapped) {
  AxisCodec c;
  c.scheme = scheme;
  c.guest_len = len;
  switch (scheme) {
    case AxisScheme::Pass:
      require(!wrapped || len <= 2,
              "Pass scheme needs an unwrapped axis (or length <= 2)");
      c.quotient_len = len;
      c.bits = 0;
      c.cycle_len = len;
      break;
    case AxisScheme::Gray:
      require(wrapped && is_pow2(len), "Gray scheme needs power-of-two length");
      c.quotient_len = 1;
      c.bits = log2_ceil(len);
      c.cycle_len = len;
      break;
    case AxisScheme::Ring:
      require(wrapped && ring_table(len) != nullptr,
              "Ring scheme covers lengths 3, 5, 6, 7");
      c.quotient_len = 1;
      c.bits = log2_ceil(len);
      c.cycle_len = len;
      break;
    case AxisScheme::Half:
      require(wrapped && len >= 2, "Half scheme needs a wrapped axis");
      c.quotient_len = (len + 1) / 2;
      c.bits = 1;
      c.cycle_len = 2 * c.quotient_len;
      break;
    case AxisScheme::Quarter:
      require(wrapped && (len + 3) / 4 >= 3,
              "Quarter scheme needs ceil(len/4) >= 3");
      c.quotient_len = (len + 3) / 4;
      c.bits = 2;
      c.cycle_len = 4 * c.quotient_len;
      break;
  }
  return c;
}

AxisCodec::Phys AxisCodec::phys(u64 t) const {
  assert(t < cycle_len);
  switch (scheme) {
    case AxisScheme::Pass:
      return {t, 0};
    case AxisScheme::Gray:
      return {0, gray(t)};
    case AxisScheme::Ring:
      return {0, ring_table(guest_len)[t]};
    case AxisScheme::Half:
      // Down the x=0 column, back up the x=1 column.
      return t < quotient_len ? Phys{t, 0}
                              : Phys{cycle_len - 1 - t, 1};
    case AxisScheme::Quarter: {
      // Down the x=0 column, then snake rows upward through x in {1,2,3}.
      // The inner code is the cyclic 2-bit Gray of the ring position x.
      if (t < quotient_len) return {t, gray(0)};
      const u64 u = t - quotient_len;
      const u64 row_from_top = u / 3;         // 0 = bottom row (y = m-1)
      const u64 s = u % 3;                    // step within the row
      const u64 y = quotient_len - 1 - row_from_top;
      const u64 x = (row_from_top % 2 == 0) ? 1 + s : 3 - s;
      return {y, gray(x)};
    }
  }
  return {0, 0};
}

bool AxisCodec::is_removed(u64 t) const {
  const u64 c = removed_count();
  if (c == 0) return false;
  switch (scheme) {
    case AxisScheme::Half:
      // Remove the top of the x=1 column: its neighbors are the x-flip at
      // y = m-1 (dilation 1) and a quotient edge (dilation d), so the
      // bridge costs d+1 (Lemma 3's alpha node).
      return t == quotient_len;
    case AxisScheme::Quarter: {
      // Remove "row middles" (x = 2): both bridge hops are ring edges, so
      // a bridge costs exactly 2 (Lemma 4).
      if (t < quotient_len) return false;
      const u64 u = t - quotient_len;
      return u % 3 == 1 && u / 3 < c;
    }
    default:
      return false;
  }
}

u64 AxisCodec::pos_of_guest(u64 g) const {
  assert(g < guest_len);
  const u64 c = removed_count();
  if (c == 0) return g;
  if (scheme == AxisScheme::Half) return g < quotient_len ? g : g + 1;
  // Quarter: removed positions are q + 3j + 1 for j < c; guest slots after
  // the x=0 column come in rows of 3 with the middle skipped in the first
  // c rows.
  if (g <= quotient_len) return g;
  const u64 v = g - quotient_len;  // 1-based index into the snake part
  u64 x;
  if (v <= 2 * c) {
    const u64 j = (v - 1) / 2;
    x = 3 * j + 2 + (v - 1) % 2;
  } else {
    x = 3 * c + (v - 2 * c);
  }
  return quotient_len + x;
}

u32 AxisCodec::dilation_bound(u32 d2) const {
  switch (scheme) {
    case AxisScheme::Pass: return d2;
    case AxisScheme::Gray: return guest_len > 1 ? 1 : 0;
    case AxisScheme::Ring: return guest_len == 6 ? 1 : 2;
    case AxisScheme::Half:
      return removed_count() ? d2 + 1 : std::max(d2, 1u);
    case AxisScheme::Quarter:
      return std::max(d2, removed_count() ? 2u : 1u);
  }
  return d2;
}

// ---------------------------------------------------------------------------

TorusEmbedding::TorusEmbedding(Mesh guest, std::vector<AxisCodec> codecs,
                               EmbeddingPtr quotient)
    : Embedding(guest, quotient->host_dim() +
                           [&] {
                             u32 b = 0;
                             for (const auto& c : codecs) b += c.bits;
                             return b;
                           }()),
      codecs_(std::move(codecs)),
      quotient_(std::move(quotient)) {
  const Shape& s = this->guest().shape();
  require(codecs_.size() == s.dims(), "TorusEmbedding: one codec per axis");
  SmallVec<u64, 4> qshape;
  for (u32 i = 0; i < s.dims(); ++i) {
    require(codecs_[i].guest_len == s[i],
            "TorusEmbedding: codec length mismatch");
    qshape.push_back(codecs_[i].quotient_len);
  }
  require(quotient_->guest().shape() == Shape{qshape},
          "TorusEmbedding: quotient shape mismatch");
  require(!quotient_->guest().any_wrap(),
          "TorusEmbedding: quotient must be a plain mesh");
  bit_offset_.assign(s.dims(), 0);
  u32 acc = 0;
  for (u32 i = s.dims(); i-- > 0;) {
    bit_offset_[i] = acc;
    acc += codecs_[i].bits;
  }
  inner_bits_ = acc;
}

CubeNode TorusEmbedding::combine(CubeNode quotient_node,
                                 const Coord& codes) const {
  CubeNode v = quotient_node << inner_bits_;
  for (u32 i = 0; i < codes.size(); ++i) v |= codes[i] << bit_offset_[i];
  return v;
}

CubeNode TorusEmbedding::map(MeshIndex idx) const {
  const Shape& s = guest().shape();
  const Coord g = s.coord(idx);
  Coord y(s.dims(), 0), codes(s.dims(), 0);
  for (u32 i = 0; i < s.dims(); ++i) {
    const auto p = codecs_[i].phys(codecs_[i].pos_of_guest(g[i]));
    y[i] = p.y;
    codes[i] = p.code;
  }
  return combine(quotient_->map(quotient_->guest().shape().index(y)), codes);
}

void TorusEmbedding::append_step(u32 axis, u64 t, const Coord& y_all,
                                 const Coord& code_all, CubePath& out) const {
  const AxisCodec& c = codecs_[axis];
  const auto from = c.phys(t);
  const auto to = c.phys((t + 1) % c.cycle_len);
  const Shape& qs = quotient_->guest().shape();

  auto emit = [&](CubeNode v) {
    if (out.empty() || out.back() != v) out.push_back(v);
  };

  if (from.y == to.y) {
    // Inner ring step: the quotient node is pinned; the inner code moves
    // by one ring position (Hamming 1 except for the explicit Ring tables'
    // dilation-2 edges, which route through the e-cube midpoint).
    Coord y = y_all;
    y[axis] = from.y;
    const CubeNode q = quotient_->map(qs.index(y));
    Coord codes = code_all;
    codes[axis] = from.code;
    const CubeNode n1 = combine(q, codes);
    codes[axis] = to.code;
    const CubeNode n2 = combine(q, codes);
    for (CubeNode v : Hypercube::ecube_path(n1, n2)) emit(v);
  } else {
    // Quotient step: the inner code is pinned; the quotient embedding
    // carries the path (possibly walked high-to-low).
    assert(from.code == to.code);
    const bool down = to.y < from.y;
    Coord y = y_all;
    y[axis] = down ? to.y : from.y;
    const MeshIndex lo = qs.index(y);
    CubePath qpath = quotient_->edge_path(
        MeshEdge{lo, lo + qs.stride(axis), axis, false});
    if (down) qpath.reverse();
    Coord codes = code_all;
    codes[axis] = from.code;
    for (CubeNode q : qpath) {
      Coord cc = codes;
      emit(combine(q, cc));
    }
  }
}

CubePath TorusEmbedding::edge_path(const MeshEdge& e) const {
  const Shape& s = guest().shape();
  const u32 axis = e.axis;
  const AxisCodec& c = codecs_[axis];
  const Coord ga = s.coord(e.a), gb = s.coord(e.b);

  Coord y_all(s.dims(), 0), code_all(s.dims(), 0);
  for (u32 i = 0; i < s.dims(); ++i) {
    const auto p = codecs_[i].phys(codecs_[i].pos_of_guest(ga[i]));
    y_all[i] = p.y;
    code_all[i] = p.code;
  }

  const u64 pa = c.pos_of_guest(ga[axis]);
  const u64 pb = c.pos_of_guest(gb[axis]);
  const u64 fwd = (pb + c.cycle_len - pa) % c.cycle_len;
  const u64 start = fwd <= 2 ? pa : pb;
  const u64 steps = fwd <= 2 ? fwd : (pa + c.cycle_len - pb) % c.cycle_len;
  require(steps >= 1 && steps <= 2, "TorusEmbedding: not a torus edge");

  CubePath path;
  for (u64 k = 0; k < steps; ++k)
    append_step(axis, (start + k) % c.cycle_len, y_all, code_all, path);
  if (fwd > 2) path.reverse();
  return path;
}

// ---------------------------------------------------------------------------

TorusPlanner::TorusPlanner(PlannerOptions opts) : mesh_planner_(opts) {}

void TorusPlanner::set_direct_provider(DirectProvider provider) {
  provider_ = provider;
  mesh_planner_.set_direct_provider(std::move(provider));
}

PlanResult TorusPlanner::plan(const Shape& shape) {
  return plan(Mesh::torus(shape));
}

PlanResult TorusPlanner::plan(const Mesh& guest) {
  const Shape& s = guest.shape();
  std::vector<std::vector<AxisScheme>> options(s.dims());
  for (u32 i = 0; i < s.dims(); ++i) {
    const u64 l = s[i];
    if (!guest.wraps(i) || l <= 2) {
      options[i] = {AxisScheme::Pass};
    } else if (is_pow2(l)) {
      options[i] = {AxisScheme::Gray};
    } else if (ring_table(l)) {
      options[i] = {AxisScheme::Ring, AxisScheme::Half};
    } else if ((l + 3) / 4 >= 3) {
      options[i] = {AxisScheme::Quarter, AxisScheme::Half};
    } else {
      options[i] = {AxisScheme::Half};
    }
  }

  struct Best {
    std::shared_ptr<TorusEmbedding> emb;
    std::string desc;
    u32 cube = ~0u;
    u32 dil = ~0u;
  } best;

  SmallVec<u32, 4> pick(s.dims(), 0);
  for (;;) {
    std::vector<AxisCodec> codecs;
    SmallVec<u64, 4> qshape;
    u32 inner_bits = 0;
    for (u32 i = 0; i < s.dims(); ++i) {
      codecs.push_back(
          AxisCodec::make(options[i][pick[i]], s[i], guest.wraps(i)));
      qshape.push_back(codecs.back().quotient_len);
      inner_bits += codecs.back().bits;
    }
    PlanResult qplan = mesh_planner_.plan(Shape{qshape});
    const u32 cube = qplan.report.host_dim + inner_bits;
    u32 dil = 0;
    for (u32 i = 0; i < s.dims(); ++i)
      dil = std::max(dil, codecs[i].dilation_bound(qplan.report.dilation));
    if (cube < best.cube || (cube == best.cube && dil < best.dil)) {
      best.emb = std::make_shared<TorusEmbedding>(guest, std::move(codecs),
                                                  qplan.embedding);
      best.cube = cube;
      best.dil = dil;
      std::string schemes;
      for (u32 i = 0; i < s.dims(); ++i) {
        if (i) schemes += ",";
        schemes += to_string(options[i][pick[i]]);
      }
      best.desc = "torus[" + schemes + "](" + qplan.plan + ")";
    }
    u32 axis = 0;
    while (axis < s.dims() && ++pick[axis] == options[axis].size())
      pick[axis++] = 0;
    if (axis == s.dims()) break;
  }

  PlanResult out;
  out.embedding = best.emb;
  out.report = verify(*best.emb);
  out.plan = best.desc;

  // When the scheme constructions miss the minimal cube (or dilation 2),
  // small tori fall to a whole-guest direct search — the torus analogue of
  // the mesh planner's search leaf.
  const u32 minimal = s.minimal_cube_dim();
  const bool want_search =
      provider_ && guest.num_nodes() <= kProviderMaxNodes &&
      (out.report.host_dim > minimal ||
       (out.report.dilation > 2 && guest.num_nodes() > 2));
  if (want_search) {
    if (auto m = provider_(guest, minimal)) {
      auto direct = std::make_shared<ExplicitEmbedding>(guest, minimal, *m);
      VerifyReport r = verify(*direct);
      if (r.valid && (r.host_dim < out.report.host_dim ||
                      (r.host_dim == out.report.host_dim &&
                       r.dilation < out.report.dilation))) {
        out.embedding = std::move(direct);
        out.report = std::move(r);
        out.plan = "torus-search " + s.to_string();
      }
    }
  }
  return out;
}

}  // namespace hj::torus
