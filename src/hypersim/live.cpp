#include "hypersim/live.hpp"

#include <algorithm>
#include <sstream>

#include "core/certify.hpp"
#include "obs/obs.hpp"

namespace hj::sim {

const char* verdict_name(Verdict v) noexcept {
  switch (v) {
    case Verdict::Certified: return "certified";
    case Verdict::Degraded: return "degraded";
    case Verdict::Failed: return "failed";
  }
  return "?";
}

LiveRunResult run_stencil_with_recovery(EmbeddingPtr base,
                                        const FaultSchedule& schedule,
                                        const LiveOptions& opts) {
  require(base != nullptr, "run_stencil_with_recovery: null embedding");
  HJ_SPAN("live.run");
  if (obs::enabled()) {
    static obs::Counter& runs = obs::Registry::global().counter("live.runs");
    runs.add();
  }
  LiveRunResult result;
  result.embedding = base;

  // The pre-fault certificate fixes the d of the d+1 repair guarantee
  // (certify() equals verify() and composes product plans without a
  // whole-guest walk), and the product structure (lost once a repair
  // copies the embedding) is cached up front for spare-search preference.
  const u32 baseline_dilation = certify(*base).dilation;
  const u32 factor_dim = recovery::inner_factor_dim(*base);
  recovery::RecoveryController controller(base->guest().shape(),
                                          opts.recovery);

  // Logical traffic, retransmitted across epochs until delivered: every
  // guest edge in for_each_edge order, both directions — message 2k runs
  // e.a -> e.b along edge k's path, message 2k+1 runs it reversed.
  const Mesh& guest = base->guest();
  result.messages = 2 * guest.num_edges();
  std::vector<u8> delivered(result.messages, 0);

  // Cumulative known faults live in a copy of the caller's fault model,
  // so the transient layer (if any) keeps operating across epochs.
  FaultModel faults = opts.sim.faults ? *opts.sim.faults : FaultModel{};
  SimConfig cfg = opts.sim;
  cfg.faults = &faults;

  // Quarantine LRU (see the file comment): canonical endpoint pairs in
  // least-recently-quarantined-first order. Only links in this list are
  // ever healed — diagnosed ground-truth faults never enter it.
  std::vector<std::pair<CubeNode, CubeNode>> quarantine;

  u64 now = 0;
  bool hard_truncated = false;  // max_cycles cap: the network is gone
  bool budget_stop = false;     // controller refused: degrade, don't thrash
  while (result.epochs < kMaxLiveEpochs) {
    HJ_SPAN_N("live.epoch", result.epochs);
    controller.start_epoch();
    const Embedding& emb = *result.embedding;
    cfg.cube_dim = emb.host_dim();
    CubeNetwork net(cfg);
    // Queue this epoch's retransmissions on the current embedding, in
    // message order; each undelivered edge's path is derived once.
    // Contracted (same-processor) routes deliver without the network.
    std::vector<std::size_t> queued;  // sim message id -> message index
    std::size_t i = 0;
    guest.for_each_edge([&](const MeshEdge& e) {
      const std::size_t fwd = i, rev = i + 1;
      i += 2;
      if (delivered[fwd] && delivered[rev]) return;
      CubePath route = emb.edge_path(e);
      if (route.size() < 2) {
        for (const std::size_t m : {fwd, rev}) {
          if (delivered[m]) continue;
          delivered[m] = 1;
          ++result.delivered;
        }
        return;
      }
      if (!delivered[fwd]) {
        (void)net.add_message(route);
        queued.push_back(fwd);
      }
      if (!delivered[rev]) {
        route.reverse();
        (void)net.add_message(std::move(route));
        queued.push_back(rev);
      }
    });
    if (queued.empty()) break;  // everything delivered
    if (obs::enabled()) {
      static obs::Counter& retx =
          obs::Registry::global().counter("live.retransmits");
      retx.add(queued.size());
    }

    const LiveEpochResult epoch = net.run_live(now, schedule);
    now = epoch.end_cycle;
    result.dropped_flits += epoch.dropped_flits;
    result.deferred_watchdogs += epoch.deferred_watchdogs;
    for (std::size_t m = 0; m < queued.size(); ++m) {
      if (epoch.message_delivered[m]) {
        delivered[queued[m]] = 1;
        ++result.delivered;
      }
    }
    if (epoch.truncated) {
      hard_truncated = true;
      break;
    }
    if (!epoch.detected) {
      if (epoch.drained()) break;
      ++result.epochs;  // retry-exhausted transients: plain retransmit
      continue;
    }

    // Diagnose the suspects against the ground-truth schedule; an
    // unexplained suspect is a persistent transient and is quarantined
    // as a permanent link (conservative: we only ever route *around* a
    // healthy-but-unlucky link, never through a dead one).
    HJ_SPAN_N("live.diagnose", epoch.detections.size());
    RecoveryEpochLog entry;
    entry.detect_cycle = epoch.detections.front().cycle;
    entry.arrival_cycle = entry.detect_cycle;
    std::vector<std::string> causes;  // deduped, in detection order
    for (const DetectionEvent& det : epoch.detections) {
      auto diag = schedule.diagnose(det.from, det.to, epoch.end_cycle);
      std::string cause;
      if (diag) {
        if (diag->is_node)
          faults.permanent().fail_node(diag->a);
        else
          faults.permanent().fail_link(diag->a, diag->b);
        entry.arrival_cycle = std::min(entry.arrival_cycle, diag->cycle);
        cause = diag->to_string();
      } else {
        // Unexplained suspect: quarantine it, under the LRU capacity cap.
        const auto link = std::minmax(det.from, det.to);
        const auto pos = std::find(quarantine.begin(), quarantine.end(),
                                   std::pair(link.first, link.second));
        if (pos != quarantine.end()) {
          quarantine.erase(pos);  // re-suspected: refresh to MRU below
        } else if (opts.quarantine_capacity > 0 &&
                   quarantine.size() >= opts.quarantine_capacity) {
          // Probe the coldest quarantined link back into service; a
          // genuinely bad one re-trips detection and comes straight back.
          const auto [pa, pb] = quarantine.front();
          quarantine.erase(quarantine.begin());
          faults.permanent().heal_link(pa, pb);
          ++result.quarantine_evictions;
        }
        quarantine.emplace_back(link.first, link.second);
        faults.permanent().fail_link(det.from, det.to);
        ++result.quarantined;
        cause = "quarantine " + std::to_string(det.from) + "-" +
                std::to_string(det.to);
        // Serial driver + deterministic detection order, so the event
        // stream is a pure function of the workload (Kind contract).
        if (obs::events_on())
          obs::Event("live.quarantine", obs::Kind::Deterministic,
                     obs::Severity::Warn, "live")
              .kv("epoch", result.epochs)
              .kv("from", static_cast<u64>(det.from))
              .kv("to", static_cast<u64>(det.to))
              .kv("occupancy", static_cast<u64>(quarantine.size()))
              .emit();
      }
      // Several detections often share one cause (every link into a dead
      // node trips its own counter); log each cause once.
      if (std::find(causes.begin(), causes.end(), cause) == causes.end())
        causes.push_back(std::move(cause));
    }
    for (const std::string& cause : causes) {
      if (!entry.fault.empty()) entry.fault += ';';
      entry.fault += cause;
    }
    entry.detect_latency = entry.detect_cycle - entry.arrival_cycle;
    if (obs::events_on())
      obs::Event("live.detect", obs::Kind::Deterministic,
                 obs::Severity::Warn, "live")
          .kv("epoch", result.epochs)
          .kv("detect_cycle", entry.detect_cycle)
          .kv("latency", entry.detect_latency)
          .kv("causes", entry.fault)
          .emit();

    if (obs::enabled()) {
      static obs::Histogram& occ =
          obs::Registry::global().histogram("live.quarantine.occupancy");
      occ.observe(quarantine.size());
    }

    recovery::RepairResult repair = controller.repair(
        *result.embedding, faults.permanent(), baseline_dilation,
        factor_dim);
    if (!repair.ok) {
      if (obs::events_on())
        obs::Event("live.repair.denied", obs::Kind::Deterministic,
                   obs::Severity::Warn, "live")
            .kv("epoch", result.epochs)
            .kv("reason", repair.budget_exhausted ? "budget"
                          : !repair.witness.empty() ? "impossible"
                                                    : "transient")
            .kv("desc", repair.desc)
            .emit();
      if (!repair.witness.empty()) result.witness = repair.witness;
      if (repair.budget_exhausted || !repair.witness.empty()) {
        // Terminal: either the backoff budget priced this repair sequence
        // out, or the fault set provably admits no certified repair at
        // all. Stop with an honest Degraded verdict instead of thrashing
        // the ladder for the rest of the run.
        if (repair.budget_exhausted) ++result.repairs_denied;
        if (result.witness.empty()) result.witness = repair.desc;
        budget_stop = true;
        break;
      }
      // A transiently-failed repair (no impossibility proof) is retried
      // next epoch: the fault re-trips detection, and the controller's
      // doubled charge caps how long this can go on.
      entry.rung = recovery::rung_name(recovery::Rung::None);
      entry.plan = repair.desc;
      result.log.push_back(std::move(entry));
      ++result.epochs;
      continue;
    }
    entry.rung = recovery::rung_name(repair.rung);
    entry.moved_nodes = repair.moved_nodes;
    entry.migration_cost = repair.migration_cost;
    entry.dilation = repair.report.dilation;
    entry.congestion = repair.report.congestion;
    entry.plan = repair.desc;
    if (obs::events_on())
      obs::Event("live.repair", obs::Kind::Deterministic,
                 obs::Severity::Info, "live")
          .kv("epoch", result.epochs)
          .kv("rung", entry.rung)
          .kv("moved_nodes", entry.moved_nodes)
          .kv("migration_cost", entry.migration_cost)
          .kv("dilation", static_cast<u64>(entry.dilation))
          .emit();
    result.log.push_back(std::move(entry));
    result.embedding = repair.embedding;
    ++result.epochs;
  }

  // Audit sweep: an arrival no remaining traffic crossed is invisible to
  // detection, but the final embedding must still avoid it. Certify
  // against the ground truth of everything that arrived, repairing once
  // more when the certificate fails.
  FaultSet truth = opts.sim.faults ? opts.sim.faults->permanent()
                                   : FaultSet{};
  std::size_t cursor = 0;
  schedule.apply_until(now, truth, cursor);
  result.report = verify(*result.embedding, truth);
  if (!hard_truncated && !budget_stop &&
      (!result.report.fault_free || !result.report.valid)) {
    recovery::RepairResult repair = controller.repair(
        *result.embedding, truth, baseline_dilation, factor_dim);
    if (!repair.ok && result.witness.empty())
      result.witness =
          !repair.witness.empty()
              ? repair.witness
              : repair.budget_exhausted ? repair.desc : std::string{};
    if (repair.ok) {
      RecoveryEpochLog entry;
      entry.arrival_cycle = now;
      entry.detect_cycle = now;
      entry.fault = "audit";
      entry.rung = recovery::rung_name(repair.rung);
      entry.moved_nodes = repair.moved_nodes;
      entry.migration_cost = repair.migration_cost;
      entry.dilation = repair.report.dilation;
      entry.congestion = repair.report.congestion;
      entry.plan = repair.desc;
      result.log.push_back(std::move(entry));
      result.embedding = repair.embedding;
      ++result.epochs;
      result.report = verify(*result.embedding, truth);
    }
  }
  for (const FaultEvent& e : schedule.events())
    if (e.cycle <= now) {
      if (e.is_node)
        faults.permanent().fail_node(e.a);
      else
        faults.permanent().fail_link(e.a, e.b);
    }
  result.faults = faults.permanent();

  result.cycles = now;
  result.failed = result.messages - result.delivered;
  result.ok = !hard_truncated && result.failed == 0 && result.report.valid &&
              result.report.fault_free;

  // Verdict and, for a Degraded run, the uncovered-node report: every
  // guest node with an undelivered incident message. A Failed verdict is
  // reserved for runs with nothing trustworthy left — the max_cycles cap
  // fired (the network is dead beyond diagnosis) or the final embedding
  // does not even map the guest validly.
  if (result.ok) {
    result.verdict = Verdict::Certified;
  } else if (!hard_truncated && result.report.valid) {
    result.verdict = Verdict::Degraded;
    std::vector<u8> covered(guest.num_nodes(), 1);
    std::size_t i = 0;
    guest.for_each_edge([&](const MeshEdge& e) {
      if (!delivered[i] || !delivered[i + 1]) covered[e.a] = covered[e.b] = 0;
      i += 2;
    });
    for (MeshIndex v = 0; v < covered.size(); ++v)
      if (!covered[v]) result.uncovered.push_back(v);
  } else {
    result.verdict = Verdict::Failed;
  }
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter(std::string("live.verdict.") + verdict_name(result.verdict))
        .add();
    reg.counter("live.quarantined").add(result.quarantined);
    reg.counter("live.quarantine_evictions").add(result.quarantine_evictions);
    reg.counter("live.repairs_denied").add(result.repairs_denied);
    reg.counter("live.deferred_watchdogs").add(result.deferred_watchdogs);
  }
  if (obs::events_on())
    obs::Event("live.verdict", obs::Kind::Deterministic,
               result.verdict == Verdict::Certified ? obs::Severity::Info
               : result.verdict == Verdict::Degraded ? obs::Severity::Warn
                                                     : obs::Severity::Error,
               "live")
        .kv("verdict", verdict_name(result.verdict))
        .kv("epochs", result.epochs)
        .kv("delivered", result.delivered)
        .kv("messages", result.messages)
        .kv("quarantined", result.quarantined)
        .emit();
  // A Failed verdict means nothing trustworthy is left — snapshot the
  // flight ring now (like a crash would) so the postmortem includes the
  // epochs that led here even though the process lives on.
  if (result.verdict == Verdict::Failed) (void)obs::flight::dump_to_configured();
  return result;
}

std::string recovery_log_json(const LiveRunResult& r) {
  std::ostringstream os;
  os << "{\n"
     << "  \"ok\": " << (r.ok ? "true" : "false") << ",\n"
     << "  \"verdict\": \"" << verdict_name(r.verdict) << "\",\n"
     << "  \"cycles\": " << r.cycles << ",\n"
     << "  \"messages\": " << r.messages << ",\n"
     << "  \"delivered\": " << r.delivered << ",\n"
     << "  \"failed\": " << r.failed << ",\n"
     << "  \"dropped_flits\": " << r.dropped_flits << ",\n"
     << "  \"epochs\": " << r.epochs << ",\n"
     << "  \"quarantined\": " << r.quarantined << ",\n"
     << "  \"quarantine_evictions\": " << r.quarantine_evictions << ",\n"
     << "  \"repairs_denied\": " << r.repairs_denied << ",\n"
     << "  \"deferred_watchdogs\": " << r.deferred_watchdogs << ",\n"
     << "  \"witness\": \"" << obs::json_escape(r.witness) << "\",\n"
     << "  \"uncovered\": [";
  for (std::size_t i = 0; i < r.uncovered.size(); ++i)
    os << (i ? ", " : "") << r.uncovered[i];
  os << "],\n"
     << "  \"final\": {\"valid\": " << (r.report.valid ? "true" : "false")
     << ", \"fault_free\": " << (r.report.fault_free ? "true" : "false")
     << ", \"dilation\": " << r.report.dilation
     << ", \"congestion\": " << r.report.congestion
     << ", \"load_factor\": " << r.report.load_factor
     << ", \"failed_nodes\": " << r.faults.num_failed_nodes()
     << ", \"failed_links\": " << r.faults.num_failed_links() << "},\n"
     << "  \"recoveries\": [";
  for (std::size_t i = 0; i < r.log.size(); ++i) {
    const RecoveryEpochLog& e = r.log[i];
    os << (i ? ",\n    {" : "\n    {")
       << "\"arrival_cycle\": " << e.arrival_cycle
       << ", \"detect_cycle\": " << e.detect_cycle
       << ", \"detect_latency\": " << e.detect_latency
       << ", \"fault\": \"" << obs::json_escape(e.fault) << "\""
       << ", \"rung\": \"" << obs::json_escape(e.rung) << "\""
       << ", \"moved_nodes\": " << e.moved_nodes
       << ", \"migration_cost\": " << e.migration_cost
       << ", \"dilation\": " << e.dilation
       << ", \"congestion\": " << e.congestion
       << ", \"plan\": \"" << obs::json_escape(e.plan) << "\"}";
  }
  os << (r.log.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return os.str();
}

}  // namespace hj::sim
