#include "store/serve.hpp"

#include <chrono>
#include <fstream>
#include <iostream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "core/io.hpp"
#include "core/verify.hpp"
#include "obs/obs.hpp"

namespace hj::store {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] u64 elapsed_us(Clock::time_point since) noexcept {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now() - since)
                              .count());
}

/// Cached handles for the store lookup counters (the obs.hpp idiom): the
/// registry map is probed once, at first use, and every later add() is
/// one relaxed atomic.
struct Counters {
  obs::Counter& store_hits;
  obs::Counter& store_misses;
  obs::Counter& store_corrupt;

  static Counters& get() {
    static Counters c{
        obs::Registry::global().counter("store.hits", obs::Kind::Timing),
        obs::Registry::global().counter("store.misses", obs::Kind::Timing),
        obs::Registry::global().counter("store.corrupt", obs::Kind::Timing),
    };
    return c;
  }
};

/// A verified plan and the certificate of its one verify() call.
PlanCacheEntry certified_entry(const PlanResult& res) {
  const VerifyReport& r = res.report;
  require(r.valid, "plan failed verification");
  return {res.embedding, res.plan, r.host_dim, r.dilation,
          r.congestion, r.wirelength, /*measured=*/true};
}

}  // namespace

const char* verdict_name(Verdict v) noexcept {
  switch (v) {
    case Verdict::ServedWarm: return "served-warm";
    case Verdict::ServedCold: return "served-cold";
    case Verdict::Degraded: return "degraded";
    case Verdict::Shed: return "shed";
  }
  return "unknown";
}

Server::Server(const PlanStore* store, ServeOptions opts,
               const DirectProviderFactory& provider_factory)
    : store_(store), opts_(opts), planner_(opts.planner) {
  if (provider_factory) planner_.set_direct_provider(provider_factory());
}

PlanCacheEntry Server::canonical_plan(const Shape& canon, Verdict& verdict,
                                      PhaseUs& ph) {
  const PlanKey cache_key =
      PlanKey::of(canon, /*extend=*/true, opts_.planner.objective);
  const Clock::time_point t = Clock::now();
  std::optional<PlanCacheEntry> cached = certified_.get(cache_key);
  ph.lookup_us += elapsed_us(t);
  if (cached) {
    verdict = Verdict::ServedWarm;
    return *std::move(cached);
  }

  verdict = Verdict::ServedCold;
  std::optional<PlanCacheEntry> plan;
  if (store_ && canon.dims() <= kMaxRank) {
    const Key key = Key::of(canon);
    const Clock::time_point tl = Clock::now();
    const PlanStore::Lookup hit = store_->lookup(key);
    ph.lookup_us += elapsed_us(tl);
    switch (hit.status) {
      case PlanStore::Status::Hit: {
        if (obs::enabled()) Counters::get().store_hits.add();
        // Never serve an uncertified plan: the on-disk certificate is
        // advisory only. Re-parse and re-verify before first use; a
        // record that parses but does not verify is as bad as a flipped
        // checksum and gets quarantined the same way.
        const Clock::time_point tv = Clock::now();
        try {
          const std::shared_ptr<ExplicitEmbedding> emb =
              io::from_text(hit.record.emb_text);
          if (emb->guest().shape() == canon)
            plan = certified_entry({emb, verify(*emb), hit.record.plan});
        } catch (const std::exception&) {
          // fall through to quarantine + live planner
        }
        ph.verify_us += elapsed_us(tv);
        if (plan) {
          verdict = Verdict::ServedWarm;
          break;
        }
        store_->quarantine(key);
        if (obs::enabled()) Counters::get().store_corrupt.add();
        verdict = Verdict::Degraded;
        break;
      }
      case PlanStore::Status::Corrupt:
        if (obs::enabled()) Counters::get().store_corrupt.add();
        verdict = Verdict::Degraded;
        break;
      case PlanStore::Status::Miss:
        if (obs::enabled()) Counters::get().store_misses.add();
        break;
    }
  }

  if (!plan) {
    // Live planner fallback (cold miss or degraded corruption path). The
    // planner re-verifies its result by construction.
    const Clock::time_point tp = Clock::now();
    std::lock_guard<std::mutex> lk(mu_);
    plan = certified_entry(planner_.plan(canon));
    ph.plan_us += elapsed_us(tp);
  }
  certified_.put(cache_key, *plan);
  return *std::move(plan);
}

Reply Server::handle(const Shape& shape, u64 queue_us) {
  const Clock::time_point t0 = Clock::now();
  Reply rep;
  rep.phase.queue_us = queue_us;
  try {
    require(shape.num_nodes() >= 1 && shape.num_nodes() <= (u64{1} << 26),
            "request too large: at most 2^26 mesh nodes");
    const Shape canon = shape.sorted();
    Verdict verdict = Verdict::ServedCold;
    PlanCacheEntry served = canonical_plan(canon, verdict, rep.phase);
    // A permuted request inherits the canonical certificate (relabel_plan).
    if (shape != canon) served.desc = relabel_desc(shape, served.desc);
    rep.verdict = verdict;
    rep.ok = true;
    rep.cube = served.cube;
    rep.dil = served.dil;
    rep.cong = served.cong;
    rep.wl = served.wl;
    rep.plan = std::move(served.desc);
  } catch (const std::exception& e) {
    rep.ok = false;
    rep.error = e.what();
  }
  rep.latency_us = elapsed_us(t0) + queue_us;

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.requests += 1;
    if (!rep.ok) {
      stats_.errors += 1;
    } else {
      switch (rep.verdict) {
        case Verdict::ServedWarm: stats_.warm += 1; break;
        case Verdict::ServedCold: stats_.cold += 1; break;
        case Verdict::Degraded: stats_.degraded += 1; break;
        case Verdict::Shed: stats_.shed += 1; break;
      }
    }
  }
  // Always-on phase attribution: these relaxed-atomic observes are what
  // the live `stats` command and --stats-every snapshots answer from,
  // so they are not gated on obs::enabled().
  phase_queue_.observe(rep.phase.queue_us);
  phase_lookup_.observe(rep.phase.lookup_us);
  phase_verify_.observe(rep.phase.verify_us);
  phase_plan_.observe(rep.phase.plan_us);
  phase_total_.observe(rep.latency_us);
  return rep;
}

void Server::note_shed() {
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.requests += 1;
  stats_.shed += 1;
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

std::map<std::string, obs::HistogramSnapshot> Server::phase_snapshot() const {
  return {{"queue", phase_queue_.snapshot()},
          {"lookup", phase_lookup_.snapshot()},
          {"verify", phase_verify_.snapshot()},
          {"plan", phase_plan_.snapshot()},
          {"total", phase_total_.snapshot()}};
}

namespace {

struct Request {
  u64 id = 0;
  Shape shape;
  Clock::time_point admitted;
};

/// Parse a request line ("3x5x7", "3 5 7", optional leading "plan").
/// Returns the shape or an error message via `err`.
std::optional<Shape> parse_shape_line(const std::string& line,
                                      std::string& err) {
  std::string s = line;
  for (char& c : s)
    if (c == 'x' || c == 'X' || c == ',') c = ' ';
  std::istringstream ls(s);
  std::string tok;
  SmallVec<u64, 4> ext;
  u64 prod = 1;
  bool first = true;
  while (ls >> tok) {
    if (first && tok == "plan") {
      first = false;
      continue;
    }
    first = false;
    u64 v = 0;
    std::size_t pos = 0;
    try {
      v = std::stoull(tok, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != tok.size() || v == 0) {
      err = "bad extent '" + tok + "'";
      return std::nullopt;
    }
    if (v > (u64{1} << 26) || prod > (u64{1} << 26) / v) {
      err = "shape too large (at most 2^26 nodes)";
      return std::nullopt;
    }
    prod *= v;
    ext.push_back(v);
  }
  if (ext.empty()) {
    err = "empty request";
    return std::nullopt;
  }
  return Shape{std::move(ext)};
}

std::string format_reply(u64 id, const Shape& shape, const Reply& rep) {
  std::ostringstream os;
  if (!rep.ok) {
    os << "id=" << id << " error=" << rep.error;
    return os.str();
  }
  os << "id=" << id << " verdict=" << verdict_name(rep.verdict)
     << " shape=" << shape.to_string() << " cube=" << rep.cube
     << " dil=" << rep.dil << " cong=" << rep.cong << " wl=" << rep.wl
     << " us=" << rep.latency_us << " plan=" << rep.plan;
  return os.str();
}

/// The `stats` protocol reply: the historical one-line counter summary
/// followed by one `phase <name> ...` line per always-on histogram, so
/// a live client reads per-phase p50/p99/max without restarting the
/// daemon.
std::string format_stats(const Server& server) {
  const ServeStats st = server.stats();
  std::ostringstream os;
  os << "stats requests=" << st.requests << " warm=" << st.warm
     << " cold=" << st.cold << " degraded=" << st.degraded
     << " shed=" << st.shed << " errors=" << st.errors;
  if (const PlanStore* ps = server.plan_store())
    os << " store_records=" << ps->record_count()
       << " quarantined=" << ps->quarantined_count();
  for (const auto& [name, s] : server.phase_snapshot())
    os << "\nphase " << name << " count=" << s.count
       << " p50_us=" << s.quantile(0.50) << " p99_us=" << s.quantile(0.99)
       << " max_us=" << s.max;
  return os.str();
}

/// One-line JSON snapshot for --stats-every (flat keys so a shell
/// `python -c "json.loads(line)"` or jq one-liner can gate on it).
std::string snapshot_json(const Server& server) {
  const ServeStats st = server.stats();
  std::ostringstream os;
  os << "{\"requests\":" << st.requests << ",\"warm\":" << st.warm
     << ",\"cold\":" << st.cold << ",\"degraded\":" << st.degraded
     << ",\"shed\":" << st.shed << ",\"errors\":" << st.errors;
  for (const auto& [name, s] : server.phase_snapshot())
    os << ",\"" << name << "_p50_us\":" << s.quantile(0.50) << ",\"" << name
       << "_p99_us\":" << s.quantile(0.99) << ",\"" << name
       << "_max_us\":" << s.max;
  os << "}";
  return os.str();
}

}  // namespace

int run_serve(std::istream& in, std::ostream& out, Server& server) {
  BoundedQueue<Request> queue(server.options().queue_cap);
  std::mutex out_mu;
  const auto emit = [&](const std::string& line) {
    std::lock_guard<std::mutex> lk(out_mu);
    out << line << '\n';
    out.flush();
  };

  // --stats-every sink: a file (append, crash-tail-parseable) or stderr.
  const u64 stats_every = server.options().stats_every;
  std::ofstream stats_file;
  std::ostream* stats_sink = nullptr;
  if (stats_every > 0) {
    if (!server.options().stats_out.empty()) {
      stats_file.open(server.options().stats_out, std::ios::app);
      require(stats_file.is_open(), "cannot open stats file '%s' for writing",
              server.options().stats_out.c_str());
      stats_sink = &stats_file;
    } else {
      stats_sink = &std::cerr;
    }
  }

  std::thread worker([&] {
    u64 processed = 0;
    while (std::optional<Request> r = queue.pop()) {
      const u64 queue_us = elapsed_us(r->admitted);
      const u64 deadline = server.options().deadline_us;
      if (deadline && queue_us > deadline) {
        server.note_shed();
        if (obs::events_on()) {
          obs::Event("serve.shed", obs::Kind::Timing, obs::Severity::Warn,
                     "serve")
              .kv("id", r->id)
              .kv("reason", "deadline")
              .kv("queue_us", queue_us)
              .emit();
        }
        emit("id=" + std::to_string(r->id) + " verdict=shed reason=deadline");
      } else {
        const Reply rep = server.handle(r->shape, queue_us);
        if (obs::events_on()) {
          obs::Event ev("serve.reply", obs::Kind::Timing,
                        rep.ok ? obs::Severity::Info : obs::Severity::Error,
                        "serve");
          ev.kv("id", r->id).kv("shape", r->shape.to_string());
          if (rep.ok)
            ev.kv("verdict", verdict_name(rep.verdict));
          else
            ev.kv("error", rep.error);
          ev.kv("us", rep.latency_us)
              .kv("queue_us", rep.phase.queue_us)
              .kv("lookup_us", rep.phase.lookup_us)
              .kv("verify_us", rep.phase.verify_us)
              .kv("plan_us", rep.phase.plan_us)
              .emit();
        }
        emit(format_reply(r->id, r->shape, rep));
      }
      ++processed;
      if (stats_sink && processed % stats_every == 0) {
        *stats_sink << snapshot_json(server) << '\n';
        stats_sink->flush();
      }
    }
  });

  std::string line;
  u64 next_id = 0;
  while (std::getline(in, line)) {
    // Strip a trailing CR and surrounding whitespace; skip blanks/comments.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.pop_back();
    std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    const std::string body = line.substr(start);
    if (body[0] == '#') continue;
    if (body == "quit") break;
    if (body == "stats") {
      emit(format_stats(server));
      continue;
    }
    const u64 id = ++next_id;
    std::string err;
    const std::optional<Shape> shape = parse_shape_line(body, err);
    if (!shape) {
      emit("id=" + std::to_string(id) + " error=" + err);
      continue;
    }
    // The admission event is the flight recorder's in-flight marker: a
    // crash mid-request leaves this line (with no matching serve.reply)
    // as the last words naming what was being served.
    if (obs::events_on()) {
      obs::Event("serve.request", obs::Kind::Timing, obs::Severity::Info,
                 "serve")
          .kv("id", id)
          .kv("shape", shape->to_string())
          .emit();
    }
    if (!queue.try_push(Request{id, *shape, Clock::now()})) {
      server.note_shed();
      if (obs::events_on()) {
        obs::Event("serve.shed", obs::Kind::Timing, obs::Severity::Warn,
                   "serve")
            .kv("id", id)
            .kv("reason", "queue-full")
            .emit();
      }
      emit("id=" + std::to_string(id) + " verdict=shed reason=queue-full");
    }
  }
  queue.close();
  worker.join();
  return 0;
}

}  // namespace hj::store
