// hjembed: certified measurement of embeddings (Definitions 1-3, 5).
//
// Every embedding construction in this library is checked by this verifier
// in the test suite, and the planner's certificate (certify()) is its
// report, composed by Theorem 3 for Gray and product plans. The
// verifier trusts nothing: it walks every guest edge, re-validates the
// assigned cube path, and measures dilation, congestion, expansion and
// load factor exactly as the paper defines them.
#pragma once

#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/embedding.hpp"
#include "core/fault.hpp"

namespace hj {

/// Everything the paper measures about an embedding, plus the structural
/// validity checks the definitions implicitly assume.
struct VerifyReport {
  /// True iff the embedding is structurally sound: the map stays inside
  /// the cube, is injective when one_to_one() is claimed, and every edge
  /// path is a real cube path between the images of the edge endpoints.
  bool valid = true;
  /// Human-readable reasons when !valid (capped at a few entries).
  std::vector<std::string> errors;

  u64 guest_nodes = 0;
  u64 guest_edges = 0;
  u32 host_dim = 0;

  /// Definition 1. |V(H)| / |V(G)|.
  double expansion = 0.0;
  /// True iff the host is the minimal cube for the guest node count.
  bool minimal_expansion = false;

  /// Definition 2. Maximum, mean and distribution of edge-path lengths.
  u32 dilation = 0;
  double avg_dilation = 0.0;
  std::vector<u64> dilation_histogram;  // histogram[d] = #edges of dilation d

  /// Total wirelength: the sum of all edge-path lengths. Satisfies the
  /// double-counting identity
  ///   wirelength == sum_d d * dilation_histogram[d]
  ///              == sum_c c * congestion_histogram[c]
  /// (every hop is one unit of path length and one unit of load on one
  /// cube link); the verifier asserts it.
  u64 wirelength = 0;

  /// Computable lower bounds for this guest in this cube (cost model;
  /// arXiv 1807.06787-style). Every bound is <= its measured value, so
  /// value / bound is a certified optimality gap >= 1.
  cost::Bounds bounds;

  /// Definition 3. Maximum and mean number of guest edge paths crossing a
  /// cube edge. The mean is taken over all |E(H)| cube edges, as in the
  /// paper's "average congestion is similarly defined".
  u32 congestion = 0;
  double avg_congestion = 0.0;
  std::vector<u64> congestion_histogram;  // histogram[c] = #cube edges used c times

  /// Definition 5. Maximum number of guest nodes sharing a cube node
  /// (1 for a valid one-to-one embedding).
  u64 load_factor = 0;

  /// True iff no image node and no routed path touches the fault set the
  /// verification ran against (trivially true when verified without one).
  bool fault_free = true;
  /// Image nodes / edge paths found on failed hardware.
  u64 faulted_nodes = 0;
  u64 faulted_paths = 0;
};

/// Measure (and validate) an embedding. Never throws on a bad embedding;
/// inspect report.valid / report.errors. With a fault set, additionally
/// certify that the embedding avoids every failed node and link
/// (report.fault_free); fault hits are reported, not treated as structural
/// invalidity.
[[nodiscard]] VerifyReport verify(const Embedding& emb);
[[nodiscard]] VerifyReport verify(const Embedding& emb,
                                  const FaultSet& faults);

/// Certify a batch of embeddings concurrently on the par:: engine
/// (HJ_THREADS / --threads); embeddings are immutable after
/// construction, so sharing them across worker threads is safe. Returns
/// one report per input, in input order, bit-identical to calling
/// verify() serially. Null entries are rejected (std::invalid_argument).
[[nodiscard]] std::vector<VerifyReport> verify_batch(
    const std::vector<EmbeddingPtr>& embs);
[[nodiscard]] std::vector<VerifyReport> verify_batch(
    const std::vector<EmbeddingPtr>& embs, const FaultSet& faults);

/// One-line summary, e.g.
/// "7x9 -> Q6: exp 1.016 (minimal), dil 2 (avg 1.08), cong 2 (avg 0.61)".
[[nodiscard]] std::string summary(const VerifyReport& r,
                                  const Embedding& emb);

/// Multi-line report with the dilation and congestion histograms and the
/// lower-bound gap line.
[[nodiscard]] std::string detailed_summary(const VerifyReport& r,
                                           const Embedding& emb);

/// One-line optimality-gap report, e.g.
/// "bounds: dil 2/2 (1.00x), wl 160/139 (1.15x), cong 2/1 (2.00x)".
/// Values are the measured metrics, denominators the certified lower
/// bounds from the cost model.
[[nodiscard]] std::string gap_summary(const VerifyReport& r);

}  // namespace hj
