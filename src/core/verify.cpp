#include "core/verify.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "core/bitword.hpp"
#include "core/parallel.hpp"

namespace hj {
namespace {

constexpr std::size_t kMaxErrors = 8;

void add_error(VerifyReport& r, std::string msg) {
  r.valid = false;
  if (r.errors.size() < kMaxErrors) r.errors.push_back(std::move(msg));
}

/// A histogram counted in a fixed local array, so the per-edge and
/// per-link counts never resize a vector; only bins past the array
/// (paths or loads no construction comes near) go to a map. write()
/// yields one entry per bin up to the largest bin counted, none if none
/// was: the vector the report has always held.
class BinCounter {
 public:
  void add(u64 bin) {
    if (bin < kBins)
      ++bins_[bin];
    else
      ++overflow_[bin];
    top_ = std::max(top_, bin + 1);
  }

  void write(std::vector<u64>& out) const {
    out.assign(top_, 0);
    for (u64 b = 0; b < std::min<u64>(top_, kBins); ++b) out[b] = bins_[b];
    for (const auto& [b, count] : overflow_) out[b] = count;
  }

 private:
  static constexpr u64 kBins = 16;
  u64 bins_[kBins] = {};
  u64 top_ = 0;  // largest bin counted + 1
  std::map<u64, u64> overflow_;
};

/// Per-thread scratch arena. verify() used to allocate (and zero) a node
/// map, a 2^n load array and a 2^n*n congestion array per call; under the
/// persistent pool each worker now keeps these buffers across calls and
/// clears only the entries it actually dirtied, so a batch of thousands
/// of verifies does thousands of memsets' less work. Buffers only grow.
struct VerifyScratch {
  std::vector<CubeNode> node_map;  // fully overwritten by map_all
  std::vector<u32> dense_load;     // all-zero between calls
  std::vector<u32> dense_cong;     // all-zero between calls
  std::vector<u64> cong_dirty;     // first-touch keys into dense_cong
  std::vector<u64> walk_seen;      // EdgeCover's bitmap; all-zero between calls
};

VerifyScratch& scratch() {
  thread_local VerifyScratch s;
  return s;
}

/// The exact-cover check of an edge walk: verify() trusts an embedding's
/// walk_edge_paths walk to visit every guest edge once, and this is
/// where that trust is checked. One bit per slot axis * n + a lives in
/// the scratch arena. The slots at an axis's last coordinate are no
/// guest edge's `a` end, so they start set and any claim on one fails
/// as taken; wrap edges (checked by division, they are few) use a second
/// bank of slots. The walk covers the guest exactly when every claim
/// succeeds and the claims number guest_edges.
class EdgeCover {
 public:
  EdgeCover(const Mesh& g, VerifyScratch& s)
      : g_(g), k_(g.dims()), n_(g.num_nodes()) {
    stride_.assign(k_, 0);
    for (u32 i = 0; i < k_; ++i) stride_[i] = g.shape().stride(i);
    words_ = ((g.any_wrap() ? 2 : 1) * k_ * n_ + 63) / 64;
    if (s.walk_seen.size() < words_) s.walk_seen.resize(words_, 0);
    bits_ = s.walk_seen.data();
    for (u32 j = 0; j < k_; ++j) {
      const u64 l = g.shape()[j], st = stride_[j];
      for (u64 line = (l - 1) * st; line < n_; line += l * st)
        for (u64 r = 0; r < st; ++r) mark(j * n_ + line + r);
    }
  }

  // Scrub every word this check could have touched: the arena must read
  // all-zero for the next verify on this thread.
  ~EdgeCover() { std::fill_n(bits_, words_, 0); }

  EdgeCover(const EdgeCover&) = delete;
  EdgeCover& operator=(const EdgeCover&) = delete;

  /// Marks `e` visited; false unless `e` is a guest edge not seen before.
  bool claim(const MeshEdge& e) {
    if (e.axis >= k_ || e.a >= n_) return false;
    if (!e.wrap) return e.b == e.a + stride_[e.axis] && mark(e.axis * n_ + e.a);
    return is_wrap_edge(e) && mark((k_ + e.axis) * n_ + e.a);
  }

  /// Why claim(e) failed: no guest edge, or one visited before.
  [[nodiscard]] std::string why_not(const MeshEdge& e) const {
    bool edge = e.axis < k_ && e.a < n_;
    if (edge && !e.wrap) {
      const u64 st = stride_[e.axis], l = g_.shape()[e.axis];
      edge = (e.a / st) % l != l - 1 && e.b == e.a + st;
    } else if (edge) {
      edge = is_wrap_edge(e);
    }
    std::string out = edge ? "edge walk visits edge (" : "edge walk visits (";
    out += std::to_string(e.a);
    out += ',';
    out += std::to_string(e.b);
    out += ") on axis ";
    out += std::to_string(e.axis);
    return out += edge ? " twice" : ", which is no guest edge";
  }

 private:
  /// Sets bit `slot`; false if it was already set.
  bool mark(u64 slot) {
    const u64 w = bits_[slot >> 6], m = u64{1} << (slot & 63);
    bits_[slot >> 6] = w | m;
    return (w & m) == 0;
  }
  /// A wrap edge runs from coordinate l-1 back to 0 on a wrapped axis;
  /// wrap edges are few, so this check may divide.
  [[nodiscard]] bool is_wrap_edge(const MeshEdge& e) const {
    const u64 st = stride_[e.axis], l = g_.shape()[e.axis];
    return g_.wraps(e.axis) && l > 2 && (e.a / st) % l == l - 1 &&
           e.b == e.a - (l - 1) * st;
  }

  const Mesh& g_;
  u32 k_;
  u64 n_;
  u64* bits_ = nullptr;
  u64 words_ = 0;
  SmallVec<u64, 4> stride_;
};

/// Congestion accumulator: dense array for small cubes, hash map beyond.
/// The dense array lives in the scratch arena with a first-touch dirty
/// list, so both collection and the end-of-call cleanup cost O(edges
/// used), not O(2^n * n). Collection visits used edges in first-touch
/// order — deterministic (the edge scan is serial) and irrelevant to the
/// outputs, which are all commutative aggregates.
class CongestionCounter {
 public:
  CongestionCounter(u32 dim, VerifyScratch& s) : dim_(dim), s_(s) {
    if (dim_ <= Hypercube::kDenseLinkDimLimit && dim_ > 0) {
      dense_ = true;
      const u64 want = (u64{1} << dim_) * dim_;
      if (s_.dense_cong.size() < want) s_.dense_cong.resize(want, 0);
    }
    s_.cong_dirty.clear();
  }

  ~CongestionCounter() {
    if (dense_)
      for (u64 k : s_.cong_dirty) s_.dense_cong[k] = 0;
  }

  void add(CubeNode a, CubeNode b) {
    if (dense_) {
      const u64 k = Hypercube::dense_link_index(a, b, dim_);
      if (s_.dense_cong[k]++ == 0) s_.cong_dirty.push_back(k);
    } else {
      ++sparse_[Hypercube::edge_key(a, b)];
    }
  }

  /// (max congestion, sum over used edges, count of used edges, histogram
  /// over used edges). Unused edges are added to the histogram by the
  /// caller, which knows |E(H)|.
  void collect(u32& max_c, u64& sum, u64& used, std::vector<u64>& hist) const {
    max_c = 0;
    sum = 0;
    used = 0;
    BinCounter bins;
    auto account = [&](u64 c) {
      if (c == 0) return;
      max_c = std::max<u32>(max_c, static_cast<u32>(c));
      sum += c;
      ++used;
      bins.add(c);
    };
    if (dense_)
      for (u64 k : s_.cong_dirty) account(s_.dense_cong[k]);
    else
      for (const auto& [k, c] : sparse_) account(c);
    bins.write(hist);
  }

 private:
  u32 dim_;
  VerifyScratch& s_;
  bool dense_ = false;
  std::unordered_map<u64, u64> sparse_;
};

}  // namespace

namespace {

VerifyReport verify_impl(const Embedding& emb, const FaultSet* faults) {
  VerifyReport r;
  const Mesh& guest = emb.guest();
  const Hypercube host = emb.host();

  r.guest_nodes = guest.num_nodes();
  r.guest_edges = guest.num_edges();
  r.host_dim = emb.host_dim();
  r.expansion = emb.expansion();
  r.minimal_expansion = emb.minimal_expansion();

  VerifyScratch& s = scratch();
  std::vector<CubeNode>& nm = s.node_map;
  emb.map_all(nm);

  // --- Node map: range, injectivity / load factor. ---
  {
    std::unordered_map<CubeNode, u64> load;
    const bool dense = r.host_dim <= Hypercube::kDenseNodeDimLimit;
    if (dense && s.dense_load.size() < (u64{1} << r.host_dim))
      s.dense_load.resize(u64{1} << r.host_dim, 0);
    u64 max_load = 0;
    for (MeshIndex i = 0; i < r.guest_nodes; ++i) {
      const CubeNode v = nm[i];
      if (!host.contains(v)) {
        add_error(r, "node " + std::to_string(i) + " mapped outside the cube");
        continue;
      }
      if (faults && faults->node_failed(v)) {
        // Fault hits are certified separately from structural validity:
        // the embedding may be perfectly well-formed, just not usable on
        // this particular broken machine.
        ++r.faulted_nodes;
        r.fault_free = false;
      }
      const u64 l = dense ? ++s.dense_load[v] : ++load[v];
      max_load = std::max(max_load, l);
    }
    r.load_factor = max_load;
    if (emb.one_to_one() && max_load > 1)
      add_error(r, "embedding claims one-to-one but load factor is " +
                       std::to_string(max_load));
    // Scrub exactly the entries this call touched; the arena must read
    // all-zero for the next verify on this thread.
    if (dense)
      for (MeshIndex i = 0; i < r.guest_nodes; ++i)
        if (host.contains(nm[i])) s.dense_load[nm[i]] = 0;
  }

  // --- Edge paths: validity, dilation, congestion. ---
  CongestionCounter cong(r.host_dim, s);
  u64 dil_sum = 0;
  u32 dil_max = 0;
  BinCounter dil_bins;
  u64 bad_paths = 0;
  // The invalid edge the report names: the one with the smallest slot
  // axis * num_nodes + a, i.e. the first in for_each_edge order, whatever
  // order the path walk visits edges in.
  MeshEdge first_bad;
  u64 first_bad_slot = ~u64{0};
  // Generic per-edge accounting: checks the assigned path hop by hop.
  // Every aggregate is commutative, so the visiting order is free. The
  // unit-path scan below is an exact shortcut of this.
  const auto generic = [&](const MeshEdge& e, const CubePath& p) {
    bool ok = !p.empty() && p.front() == nm[e.a] && p.back() == nm[e.b];
    for (std::size_t i = 0; ok && i + 1 < p.size(); ++i)
      ok = Hypercube::adjacent(p[i], p[i + 1]) && host.contains(p[i + 1]);
    if (!ok) {
      ++bad_paths;
      const u64 slot = e.axis * r.guest_nodes + e.a;
      if (slot < first_bad_slot) {
        first_bad_slot = slot;
        first_bad = e;
      }
      return;
    }
    const u32 d = static_cast<u32>(p.size() - 1);
    dil_sum += d;
    dil_max = std::max(dil_max, d);
    dil_bins.add(d);
    if (faults && !faults->path_avoids(p)) {
      ++r.faulted_paths;
      r.fault_free = false;
    }
    for (std::size_t i = 0; i + 1 < p.size(); ++i) cong.add(p[i], p[i + 1]);
  };
  if (emb.unit_paths()) {
    // Unit contract: edge_path(e) == [map(e.a), map(e.b)] for every edge,
    // so the path needs no materializing — its validity, dilation, fault
    // exposure and congestion follow from the two endpoint images. Any
    // edge that breaks the contract (endpoint images neither equal nor
    // adjacent) falls back to the generic scan, which keeps the report
    // bit-identical to the non-shortcut verifier even then.
    guest.for_each_edge([&](const MeshEdge& e) {
      const CubeNode va = nm[e.a], vb = nm[e.b];
      if (va == vb) {
        // Degenerate single-node path [va]: valid, dilation 0, no hops.
        dil_bins.add(0);
        if (faults) {
          CubePath p;
          p.push_back(va);
          if (!faults->path_avoids(p)) {
            ++r.faulted_paths;
            r.fault_free = false;
          }
        }
        return;
      }
      const u64 x = va ^ vb;
      if ((x & (x - 1)) == 0 && host.contains(vb)) {
        // One hop va-vb. Note the generic scan only range-checks p[i+1],
        // never p[0]; mirror that exactly.
        dil_sum += 1;
        dil_max = std::max<u32>(dil_max, 1);
        dil_bins.add(1);
        if (faults) {
          CubePath p;
          p.push_back(va);
          p.push_back(vb);
          if (!faults->path_avoids(p)) {
            ++r.faulted_paths;
            r.fault_free = false;
          }
        }
        cong.add(va, vb);
        return;
      }
      generic(e, emb.edge_path(e));
    });
  } else {
    // The embedding's own walk: check that it covers the guest exactly
    // before trusting its edges. A rejected claim is no guest edge (or
    // one already counted), so none of its path is measured.
    EdgeCover cover(guest, s);
    u64 covered = 0, bad_claims = 0;
    std::string first_claim;
    emb.walk_edge_paths(
        [&](const MeshEdge& e, const Coord&, const CubePath& p) {
          if (cover.claim(e)) {
            ++covered;
            generic(e, p);
          } else if (bad_claims++ == 0) {
            first_claim = cover.why_not(e);
          }
        });
    if (bad_claims > 0) add_error(r, first_claim);
    if (covered != r.guest_edges)
      add_error(r, "edge walk covers " + std::to_string(covered) + " of " +
                       std::to_string(r.guest_edges) + " guest edges");
  }
  if (bad_paths > 0)
    add_error(r, "invalid path for edge (" + std::to_string(first_bad.a) +
                     "," + std::to_string(first_bad.b) + ") on axis " +
                     std::to_string(first_bad.axis));
  if (bad_paths > 1)
    add_error(r, std::to_string(bad_paths) + " invalid edge paths in total");
  dil_bins.write(r.dilation_histogram);

  r.dilation = dil_max;
  r.avg_dilation =
      r.guest_edges ? static_cast<double>(dil_sum) /
                          static_cast<double>(r.guest_edges)
                    : 0.0;

  u32 cmax = 0;
  u64 csum = 0, cused = 0;
  cong.collect(cmax, csum, cused, r.congestion_histogram);
  r.congestion = cmax;
  // The double-counting identity: total path length == total link load.
  // Both sides count hops — a hop is one unit of wirelength on the path
  // side and one unit of load on the link it occupies.
  r.wirelength = dil_sum;
  assert(csum == dil_sum);
  static_cast<void>(csum);
  const u64 host_edges = host.num_edges();
  if (!r.congestion_histogram.empty())
    r.congestion_histogram[0] = host_edges - cused;
  else if (host_edges > 0)
    r.congestion_histogram.assign(1, host_edges);
  r.avg_congestion =
      host_edges ? static_cast<double>(csum) / static_cast<double>(host_edges)
                 : 0.0;

  r.bounds = cost::lower_bounds(guest, r.host_dim, emb.one_to_one());
  return r;
}

}  // namespace

VerifyReport verify(const Embedding& emb) { return verify_impl(emb, nullptr); }

VerifyReport verify(const Embedding& emb, const FaultSet& faults) {
  return verify_impl(emb, &faults);
}

namespace {

std::vector<VerifyReport> verify_batch_impl(
    const std::vector<EmbeddingPtr>& embs, const FaultSet* faults) {
  for (std::size_t i = 0; i < embs.size(); ++i)
    require(embs[i] != nullptr, "verify_batch: null embedding at index %zu",
            i);
  std::vector<VerifyReport> reports(embs.size());
  // Each slot is owned by exactly one chunk; verify_impl only reads the
  // (immutable) embedding, so no further synchronization is needed.
  par::parallel_for(0, embs.size(), /*grain=*/1, [&](u64 lo, u64 hi) {
    for (u64 i = lo; i < hi; ++i) reports[i] = verify_impl(*embs[i], faults);
  });
  return reports;
}

}  // namespace

std::vector<VerifyReport> verify_batch(const std::vector<EmbeddingPtr>& embs) {
  return verify_batch_impl(embs, nullptr);
}

std::vector<VerifyReport> verify_batch(const std::vector<EmbeddingPtr>& embs,
                                       const FaultSet& faults) {
  return verify_batch_impl(embs, &faults);
}

std::string summary(const VerifyReport& r, const Embedding& emb) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s -> Q%u: exp %.3f%s, dil %u (avg %.3f), cong %u (avg "
                "%.3f), load %llu%s",
                emb.guest().shape().to_string().c_str(), r.host_dim,
                r.expansion, r.minimal_expansion ? " (minimal)" : "",
                r.dilation, r.avg_dilation, r.congestion, r.avg_congestion,
                static_cast<unsigned long long>(r.load_factor),
                r.valid ? "" : "  [INVALID]");
  std::string out(buf);
  if (!r.fault_free) out += "  [FAULTED]";
  return out;
}

std::string gap_summary(const VerifyReport& r) {
  char buf[192];
  std::snprintf(
      buf, sizeof buf,
      "bounds: dil %u/%u (%.2fx), wl %llu/%llu (%.2fx), cong %u/%u (%.2fx)",
      r.dilation, r.bounds.dilation,
      cost::gap(r.dilation, r.bounds.dilation),
      static_cast<unsigned long long>(r.wirelength),
      static_cast<unsigned long long>(r.bounds.wirelength),
      cost::gap(static_cast<double>(r.wirelength),
                static_cast<double>(r.bounds.wirelength)),
      r.congestion, r.bounds.congestion,
      cost::gap(r.congestion, r.bounds.congestion));
  return buf;
}

std::string detailed_summary(const VerifyReport& r, const Embedding& emb) {
  std::string out = summary(r, emb);
  out += "\n  ";
  out += gap_summary(r);
  out += "\n  dilation histogram:   ";
  for (std::size_t d = 0; d < r.dilation_histogram.size(); ++d) {
    out += 'd';
    out += std::to_string(d);
    out += ':';
    out += std::to_string(r.dilation_histogram[d]);
    out += ' ';
  }
  out += "\n  congestion histogram: ";
  for (std::size_t c = 0; c < r.congestion_histogram.size(); ++c) {
    out += 'c';
    out += std::to_string(c);
    out += ':';
    out += std::to_string(r.congestion_histogram[c]);
    out += ' ';
  }
  out += '\n';
  return out;
}

}  // namespace hj
