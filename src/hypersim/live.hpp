// hjembed: the live-recovery driver — a stencil computation that survives
// mid-run fault arrivals.
//
// Drives the epoch loop: simulate traffic with CubeNetwork::run_live
// until the detection layer raises suspicions, diagnose the suspects
// against the (ground-truth) FaultSchedule, fold confirmed arrivals into
// the cumulative known FaultSet (persistent transients are conservatively
// quarantined as permanent links), hand the broken embedding to
// recovery::RecoveryController, resume with the repaired embedding, and
// retransmit every undelivered message. The run ends when all traffic
// drains; a final audit sweep re-certifies the embedding against every
// fault that arrived during the run, repairing once more if an arrival
// slipped past detection (possible when no remaining traffic crossed it).
//
// Storm hardening (DESIGN §10). Under sustained correlated failures the
// driver must neither thrash nor lie:
//
//   * Quarantine is capacity-limited with LRU probing. Unexplained
//     suspects (persistent transients, flapping links) are quarantined as
//     permanent link faults, but only `quarantine_capacity` at a time;
//     inserting past capacity un-quarantines (heals) the least-recently
//     quarantined link, probing it back into service. A genuinely bad
//     link re-trips detection and is re-quarantined (moving to
//     most-recently-used); a healed flapping link serves traffic again.
//     Only quarantined links are ever healed — ground-truth diagnosed
//     faults are permanent and never enter the LRU.
//   * Repairs run under the controller's per-epoch budget with
//     exponential backoff (RecoveryOptions); a failed repair no longer
//     aborts the run — the next epoch re-detects and retries at a doubled
//     charge until the budget refuses (budget_exhausted), which ends the
//     run with an honest verdict instead of a thrash loop.
//   * Every run terminates in an explicit Verdict: Certified (everything
//     delivered, final embedding certified), Degraded (a valid partial
//     embedding survives; the result carries the uncovered guest nodes
//     and, when repair is provably impossible, the lower-bound witness),
//     or Failed (truncated/invalid — nothing trustworthy survived).
//
// Determinism: the schedule is a canonical sorted object, run_live is
// sequential with deterministic arbitration, detections are raised in
// (cycle, message id) order, diagnosis is a pure function of (suspect,
// schedule), and repair planning is deterministic at every thread count —
// so the same seed and schedule yield a bit-identical RecoveryLog and
// final embedding at HJ_THREADS in {1, 2, 8}.
#pragma once

#include <string>
#include <vector>

#include "core/recovery.hpp"
#include "hypersim/network.hpp"

namespace hj::sim {

/// One repair epoch of a live run (a RecoveryLog entry).
struct RecoveryEpochLog {
  /// Earliest diagnosed ground-truth arrival behind this epoch's
  /// detections; equals detect_cycle for a quarantined transient.
  u64 arrival_cycle = 0;
  /// Absolute cycle the detection layer paused the simulator.
  u64 detect_cycle = 0;
  /// detect_cycle - arrival_cycle: cycles the fault ran undetected.
  u64 detect_latency = 0;
  /// Diagnosed cause(s), e.g. "node 5" / "link 3-7" / "quarantine 3-7",
  /// ';'-joined when one epoch detected several.
  std::string fault;
  /// Ladder rung the repair ended on (recovery::rung_name).
  std::string rung;
  u64 moved_nodes = 0;
  u64 migration_cost = 0;
  /// Post-repair certified metrics.
  u32 dilation = 0;
  u32 congestion = 0;
  std::string plan;
};

/// Terminal verdict of a live run (see the file comment). Ordered from
/// best to worst; exit-code policy is "0 only for Certified".
enum class Verdict : u8 { Certified, Degraded, Failed };

[[nodiscard]] const char* verdict_name(Verdict v) noexcept;

struct LiveRunResult {
  /// True iff every message was delivered-or-accounted, no epoch was
  /// truncated, and the final embedding is verify()-certified against
  /// every fault that arrived during the run.
  bool ok = false;
  /// The explicit terminal verdict: Certified iff ok; Degraded when a
  /// valid partial embedding survives (see uncovered / witness); Failed
  /// when the run was truncated or the final embedding is invalid.
  Verdict verdict = Verdict::Failed;
  /// Absolute cycle the run ended at.
  u64 cycles = 0;
  /// Logical messages: guest edges x 2 directions (contracted edges are
  /// same-processor and count as delivered instantly).
  u64 messages = 0;
  u64 delivered = 0;
  /// Accounted-but-undeliverable messages (epoch budget exhausted).
  u64 failed = 0;
  u64 dropped_flits = 0;
  u32 epochs = 0;
  std::vector<RecoveryEpochLog> log;
  /// The final (possibly repaired) embedding and its certificate against
  /// the ground-truth arrived faults.
  EmbeddingPtr embedding;
  VerifyReport report;
  /// Cumulative known faults when the run ended (diagnosed arrivals,
  /// quarantined transients, and anything found by the audit sweep).
  FaultSet faults;
  /// Guest nodes with at least one undelivered incident message — the
  /// uncovered-node report backing a Degraded verdict (empty when ok).
  std::vector<MeshIndex> uncovered;
  /// Lower-bound evidence for a Degraded verdict when repair was provably
  /// impossible (recovery::impossibility_witness), or the controller's
  /// refusal reason when the backoff budget ran dry. Empty otherwise.
  std::string witness;
  /// Quarantine traffic over the run: insertions (a re-quarantined link
  /// counts again) and LRU probe evictions.
  u64 quarantined = 0;
  u64 quarantine_evictions = 0;
  /// repair() calls refused up front by the backoff budget.
  u64 repairs_denied = 0;
  /// Watchdog firings deferred as "saturated, not dead" (summed over
  /// epochs; see LiveEpochResult::deferred_watchdogs).
  u64 deferred_watchdogs = 0;
};

/// Safety bound on repair epochs before undelivered messages are
/// declared failed (accounted, ok = false).
inline constexpr u32 kMaxLiveEpochs = 64;

struct LiveOptions {
  /// Per-epoch simulator configuration. cube_dim is taken from the
  /// embedding; `faults` may carry pre-existing permanent faults and the
  /// transient model, and is copied (the original is not mutated).
  SimConfig sim;
  recovery::RecoveryOptions recovery;
  /// Max links quarantined at once; inserting past capacity heals the
  /// least-recently quarantined link (the LRU probe). 0 disables the cap
  /// (quarantine grows without bound, the pre-storm behaviour).
  u32 quarantine_capacity = 16;
};

/// Run a full stencil exchange (every guest edge, both directions) on
/// `base` while `schedule`'s faults arrive mid-run, repairing and
/// retransmitting until everything is delivered or accounted.
[[nodiscard]] LiveRunResult run_stencil_with_recovery(
    EmbeddingPtr base, const FaultSchedule& schedule,
    const LiveOptions& opts);

/// The RecoveryLog as a deterministic JSON document (the CLI `recover`
/// subcommand's output).
[[nodiscard]] std::string recovery_log_json(const LiveRunResult& r);

}  // namespace hj::sim
