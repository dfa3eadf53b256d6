// Workload serve_zipf: the plan-store daemon under open-loop load.
//
// Set-up builds a plan store with the real precompute pass (budget
// kBudget nodes, the search provider attached as the CLI attaches it)
// and opens it. One daemon — store::run_serve on a Server, reading
// requests from a pipe and writing replies to another — is then fed by
// one generator in this process over that one connection: a sender (the
// main thread) writes each request line when it falls due, and a reader
// thread timestamps every reply line. The sender, the reader and the
// daemon get CPUs of their own (see pin_to).
//
// Traffic: Zipf(1) popularity over the store's canonical shapes, each
// request in a seeded random axis order. The steps: Poisson arrivals at
// a nominal and a busy rate (latency, timed from each request's due
// time to its reply being read, so generator stalls count against the
// daemon, with the generator's own lateness reported), one open-loop
// overload step far above capacity (served rate and sheds), and a
// closed-loop saturation step (capacity). A step's figures are medians
// over kWindowNs windows. The bounded throughput figure is the served
// rate at the busy step: on a shared virtualised host both capacity
// figures varied by a quarter from run to run, more than any bound the
// benchmark may set, so they are reported per layer instead.
//
// Gate: every served reply's cube/dil/cong/wl must equal an independent
// verify() of the shape's store record relabelled to the requested axis
// order; any reply that is not ok at the nominal and busy rates fails.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <random>
#include <streambuf>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/io.hpp"
#include "obs/obs.hpp"
#include "store/precompute.hpp"
#include "store/serve.hpp"
#include "store/store.hpp"

namespace perfbench {
namespace {

constexpr u64 kBudget = 64;

/// Daemon configuration: the CLI defaults, except an admission queue
/// deep enough that the burst a generator sends after a host stall of
/// up to ~100 ms at the busy rate is not shed below capacity (hj_embed
/// serve --queue=4096). The overload step still sheds at admission.
hj::store::ServeOptions daemon_options() {
  hj::store::ServeOptions o;
  o.queue_cap = 4096;
  return o;
}

struct Step {
  const char* name;
  /// Open loop: offered requests per second (Poisson arrivals). Closed
  /// loop (rate 0): `window` requests kept outstanding.
  double rate;
  double share;  // share of --seconds
  bool counted;  // non-ok replies are failures (not overload sheds)
  bool latency;  // a latency step: idle daemon CPUs spin (IdleSpinners)
  u32 window = 0;
};

constexpr Step kNominal{"nominal", 10000, 0.35, true, true};
constexpr Step kBusy{"busy", 40000, 0.2, true, true};
constexpr Step kOverload{"overload", 200000, 0.2, false, false};
/// Capacity: a closed loop deep enough to keep the worker busy and
/// shallow enough (below the admission queue) that nothing is shed, so
/// the served rate is not muddied by shedding work contending with the
/// worker, as it is at the open-loop overload step.
constexpr Step kSaturation{"saturation", 0, 0.25, true, false, 256};
/// Requests generated for the saturation step per second of its share:
/// about the daemon's capacity on a 4-core x86 box, so the step lasts
/// about its share.
constexpr double kSaturationPerSecond = 100000;

// --- pipe stream buffers --------------------------------------------

void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("pipe write failed");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

class FdReadBuf : public std::streambuf {
 public:
  explicit FdReadBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, buf_, sizeof buf_);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
  }

 private:
  int fd_;
  char buf_[1 << 16];
};

class FdWriteBuf : public std::streambuf {
 public:
  explicit FdWriteBuf(int fd) : fd_(fd) { setp(buf_, buf_ + sizeof buf_); }

 protected:
  int_type overflow(int_type c) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    try {
      write_all(fd_, pbase(), static_cast<std::size_t>(pptr() - pbase()));
    } catch (const std::exception&) {
      return -1;
    }
    setp(buf_, buf_ + sizeof buf_);
    return 0;
  }

 private:
  int fd_;
  char buf_[1 << 13];
};

/// Pin the calling thread (and the threads it creates later) to CPUs
/// [lo, hi). The generator's spinning sender and its reply reader each
/// get a CPU of their own and the daemon gets the rest, so the load
/// generator never delays the daemon's threads on a shared CPU. A no-op
/// on machines with fewer than four CPUs.
void pin_to(unsigned lo, unsigned hi) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = lo; c < hi; ++c) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// While alive, one lowest-priority (SCHED_IDLE) spinner on each CPU of
/// [lo, hi). A spinner runs only when its CPU would otherwise idle, so
/// an idle vCPU never halts, and waking a daemon thread costs an
/// interrupt instead of the host rescheduling a halted vCPU — the
/// difference between a steady and a host-dominated median latency on
/// a virtualised machine. Used during the latency steps only.
class IdleSpinners {
 public:
  IdleSpinners(unsigned lo, unsigned hi) {
    try {
      for (unsigned c = lo; c < hi; ++c)
        threads_.emplace_back([this, c] {
          pin_to(c, c + 1);
          sched_param sp{};
          (void)sched_setscheduler(0, SCHED_IDLE, &sp);
          while (!stop_.load(std::memory_order_relaxed)) {
          }
        });
    } catch (...) {
      stop();
      throw;
    }
  }
  ~IdleSpinners() { stop(); }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  void stop() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --- request stream ---------------------------------------------------

/// Axis order code: position k of the request holds canonical axis
/// (code >> 2k) & 3.
hj::Shape permuted(const hj::Shape& canon, u32 code) {
  hj::SmallVec<u64, 4> ext;
  for (u32 k = 0; k < canon.dims(); ++k) ext.push_back(canon[(code >> (2 * k)) & 3]);
  return hj::Shape{ext};
}

enum Status : hj::u8 { kNone, kWarm, kCold, kDegraded, kShedQueue, kShedDeadline, kError };

struct Reply {
  hj::u8 status = kNone;
  u32 cube = 0, dil = 0, cong = 0;
  u64 wl = 0, us = 0;
};

/// All requests of a run, in send order (request i has daemon id i+1).
struct Stream {
  std::vector<u32> canon;
  std::vector<u32> order;
  std::vector<u64> due;   // ns after its step's start
  std::vector<u64> sent;  // absolute ns
  std::vector<u64> recv;  // absolute ns
  std::vector<Reply> reply;
  std::string text;             // every request line, concatenated
  std::vector<std::size_t> end;  // end offset of request i's line
};

class Generator {
 public:
  /// The popularity order of the shapes is part of the workload, fixed
  /// across seeds, so that which shapes are hot does not change the
  /// daemon's cost per request from seed to seed; the seed draws the
  /// requests, their axis orders and their arrival times.
  Generator(const std::vector<hj::Shape>& canon, u64 seed)
      : canon_(canon), rng_(seed) {
    std::vector<u32> by_rank(canon.size());
    for (u32 i = 0; i < by_rank.size(); ++i) by_rank[i] = i;
    std::mt19937_64 fixed(0x21FF);
    std::shuffle(by_rank.begin(), by_rank.end(), fixed);
    by_rank_ = std::move(by_rank);
    std::vector<double> w(canon.size());
    for (std::size_t r = 0; r < w.size(); ++r) w[r] = 1.0 / static_cast<double>(r + 1);
    pick_ = std::discrete_distribution<u32>(w.begin(), w.end());
  }

  /// Append a Poisson step of `seconds` at `rate` to the stream; returns
  /// the index range [first, last).
  std::pair<std::size_t, std::size_t> add_step(Stream& s, double rate,
                                               double seconds) {
    const std::size_t first = s.canon.size();
    std::exponential_distribution<double> gap(rate);
    for (double t = gap(rng_); t < seconds; t += gap(rng_)) add(s, t);
    return finish(s, first);
  }

  /// Append `n` requests for a closed-loop step (due when sent).
  std::pair<std::size_t, std::size_t> add_requests(Stream& s, std::size_t n) {
    const std::size_t first = s.canon.size();
    for (std::size_t i = 0; i < n; ++i) add(s, 0);
    return finish(s, first);
  }

 private:
  void add(Stream& s, double t) {
    const u32 c = by_rank_[pick_(rng_)];
    u32 axes[3] = {0, 1, 2};
    const u32 rank = canon_[c].dims();
    std::shuffle(axes, axes + rank, rng_);
    u32 code = 0;
    for (u32 k = 0; k < rank; ++k) code |= axes[k] << (2 * k);
    s.canon.push_back(c);
    s.order.push_back(code);
    s.due.push_back(static_cast<u64>(t * 1e9));
    s.text += permuted(canon_[c], code).to_string();
    s.text += '\n';
    s.end.push_back(s.text.size());
  }

  static std::pair<std::size_t, std::size_t> finish(Stream& s, std::size_t first) {
    const std::size_t last = s.canon.size();
    s.sent.resize(last, 0);
    s.recv.resize(last, 0);
    s.reply.resize(last);
    return {first, last};
  }

  const std::vector<hj::Shape>& canon_;
  std::mt19937_64 rng_;
  std::vector<u32> by_rank_;
  std::discrete_distribution<u32> pick_;
};

/// Parse "key=<unsigned>" after `key` in `line`; 0 when absent.
u64 field(const char* line, const char* key) {
  const char* p = std::strstr(line, key);
  return p ? std::strtoull(p + std::strlen(key), nullptr, 10) : 0;
}

void parse_reply(const char* line, Stream& s, u64 t) {
  const u64 id = field(line, "id=");
  if (id == 0 || id > s.reply.size()) return;
  Reply& r = s.reply[id - 1];
  if (std::strstr(line, " error=")) {
    r.status = kError;
  } else if (std::strstr(line, "verdict=shed")) {
    r.status = std::strstr(line, "reason=deadline") ? kShedDeadline : kShedQueue;
  } else {
    r.status = std::strstr(line, "verdict=served-warm") ? kWarm
               : std::strstr(line, "verdict=degraded")  ? kDegraded
                                                         : kCold;
    r.cube = static_cast<u32>(field(line, " cube="));
    r.dil = static_cast<u32>(field(line, " dil="));
    r.cong = static_cast<u32>(field(line, " cong="));
    r.wl = field(line, " wl=");
    r.us = field(line, " us=");
  }
  s.recv[id - 1] = t;
}

/// Reply reader: timestamps and parses every reply line until EOF.
void read_replies(int fd, Stream& s, std::atomic<u64>& count) {
  std::string carry;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    const u64 t = now_ns();
    carry.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    u64 lines = 0;
    for (std::size_t nl; (nl = carry.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      carry[nl] = '\0';
      parse_reply(carry.c_str() + start, s, t);
      ++lines;
    }
    carry.erase(0, start);
    count.fetch_add(lines, std::memory_order_release);
  }
}

struct StepResult {
  std::string name;
  double offered = 0, seconds = 0, ok_rps = 0;
  std::size_t windows = 0;
  u64 requests = 0, ok = 0, shed_queue = 0, shed_deadline = 0, errors = 0;
  double p50_us = 0, p99_us = 0;
  double late_p50_us = 0, late_p99_us = 0, client_overhead_p50_us = 0;
  bool valid = true;
  std::map<std::string, hj::obs::HistogramSnapshot> phases;
};

/// A generator falling this far behind a due time (p99) invalidates the
/// latency figures of a step.
constexpr double kMaxLateUs = 1000;
/// Width of the windows a step's figures are medians over.
constexpr u64 kWindowNs = 250'000'000;
/// The sender busy-waits this close to a due time and sleeps before.
constexpr u64 kSpinNs = 1'000'000;

std::map<std::string, hj::obs::HistogramSnapshot> phase_diff(
    const std::map<std::string, hj::obs::HistogramSnapshot>& after,
    const std::map<std::string, hj::obs::HistogramSnapshot>& before) {
  auto out = after;
  for (auto& [name, h] : out) {
    const auto it = before.find(name);
    if (it == before.end()) continue;
    h.count -= it->second.count;
    h.sum -= it->second.sum;
    for (std::size_t b = 0; b < h.buckets.size() && b < it->second.buckets.size(); ++b)
      h.buckets[b] -= it->second.buckets[b];
  }
  return out;
}

/// Send [first, last) on schedule, then wait for every reply.
StepResult run_step(const Step& step, std::pair<std::size_t, std::size_t> range, Stream& s, int fd,
                    const std::atomic<u64>& replies,
                    const hj::store::Server& server) {
  const auto [first, last] = range;
  const auto phases_before = server.phase_snapshot();
  const u64 t0 = now_ns() + 1'000'000;  // 1 ms to get going
  for (std::size_t i = first; step.window && i < last;) {
    // Closed loop: top the window up whenever replies free a slot; each
    // request is due when it is sent.
    const u64 done = replies.load(std::memory_order_acquire);
    if (i - done >= step.window) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    const std::size_t j = std::min<std::size_t>(last, done + step.window);
    const u64 t = now_ns();
    for (std::size_t k = i; k < j; ++k) s.due[k] = t - t0;
    const std::size_t from = i ? s.end[i - 1] : 0;
    write_all(fd, s.text.data() + from, s.end[j - 1] - from);
    for (std::size_t k = i; k < j; ++k) s.sent[k] = t;
    i = j;
  }
  for (std::size_t i = first; !step.window && i < last;) {
    u64 now = now_ns();
    const u64 due = t0 + s.due[i];
    if (now < due) {
      // Spin: a sleeping sender wakes up late by up to milliseconds on
      // a virtualised host, which would show as daemon latency. Only
      // gaps far longer than the nominal rate's mean are slept through.
      if (due - now > kSpinNs)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
      while ((now = now_ns()) < due) {
      }
    }
    std::size_t j = i + 1;
    while (j < last && t0 + s.due[j] <= now) ++j;
    const std::size_t from = i ? s.end[i - 1] : 0;
    write_all(fd, s.text.data() + from, s.end[j - 1] - from);
    const u64 t = now_ns();
    for (std::size_t k = i; k < j; ++k) s.sent[k] = t;
    i = j;
  }
  const u64 deadline = now_ns() + 60'000'000'000ull;
  while (replies.load(std::memory_order_acquire) < last) {
    if (now_ns() > deadline) throw std::runtime_error("daemon stopped replying");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  StepResult r;
  r.name = step.name;
  r.offered = step.rate;
  r.requests = last - first;
  // The step's latency percentiles and served rate are medians over
  // kWindowNs windows, so a millisecond-scale host stall moves one
  // window's figure, not the step's.
  u64 end = t0;
  for (std::size_t i = first; i < last; ++i) end = std::max(end, s.recv[i]);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>((end - t0) / kWindowNs));
  std::vector<std::vector<double>> win_lat(windows);
  std::vector<double> win_ok(windows, 0.0);
  std::vector<double> late, overhead;
  for (std::size_t i = first; i < last; ++i) {
    const Reply& rep = s.reply[i];
    late.push_back(static_cast<double>(s.sent[i] - (t0 + s.due[i])) * 1e-3);
    switch (rep.status) {
      case kShedQueue: ++r.shed_queue; continue;
      case kShedDeadline: ++r.shed_deadline; continue;
      case kWarm: case kCold: case kDegraded: break;
      default: ++r.errors; continue;
    }
    ++r.ok;
    const double us = static_cast<double>(s.recv[i] - (t0 + s.due[i])) * 1e-3;
    overhead.push_back(us - static_cast<double>(rep.us));
    win_lat[std::min<std::size_t>(windows - 1, s.due[i] / kWindowNs)].push_back(us);
    const std::size_t w = (s.recv[i] - t0) / kWindowNs;
    if (w < windows) win_ok[w] += 1.0;
  }
  std::vector<double> p50s, p99s;
  for (const std::vector<double>& w : win_lat) {
    p50s.push_back(percentile(w, 0.5));
    p99s.push_back(percentile(w, 0.99));
  }
  r.seconds = secs(end - t0);
  r.windows = windows;
  r.p50_us = median(p50s);
  r.p99_us = median(p99s);
  r.ok_rps = median(win_ok) * 1e9 / kWindowNs;
  r.late_p50_us = percentile(late, 0.5);
  r.late_p99_us = percentile(late, 0.99);
  r.client_overhead_p50_us = percentile(overhead, 0.5);
  r.valid = r.late_p99_us <= kMaxLateUs;
  r.phases = phase_diff(server.phase_snapshot(), phases_before);
  return r;
}

std::string step_json(const StepResult& r) {
  Json j;
  j.str("step", r.name)
      .num("offered_rps", r.offered)
      .num("seconds", r.seconds)
      .num("requests", static_cast<double>(r.requests))
      .num("windows", static_cast<double>(r.windows))
      .num("ok", static_cast<double>(r.ok))
      .num("ok_rps", r.ok_rps)
      .num("shed_queue_full", static_cast<double>(r.shed_queue))
      .num("shed_deadline", static_cast<double>(r.shed_deadline))
      .num("errors", static_cast<double>(r.errors))
      .num("p50_us", r.p50_us)
      .num("p99_us", r.p99_us)
      .num("late_p50_us", r.late_p50_us)
      .num("late_p99_us", r.late_p99_us)
      .num("client_overhead_p50_us", r.client_overhead_p50_us)
      .flag("valid", r.valid);
  for (const auto& [name, h] : r.phases) {
    j.num("phase_" + name + "_mean_us",
          h.count ? static_cast<double>(h.sum) / static_cast<double>(h.count) : 0.0);
    j.num("phase_" + name + "_p99_us", static_cast<double>(h.quantile(0.99)));
  }
  return j.dump();
}

/// Certified metrics a reply must carry, from an independent decode and
/// verify of the store record relabelled to the requested order.
struct Expected {
  u32 cube = 0, dil = 0, cong = 0;
  u64 wl = 0;
  bool ok = false;
};

/// The benchmark's own verify() calls: count, time and guest edges.
struct VerifyTally {
  u64 calls = 0, ns = 0, edges = 0;
};

hj::PlanResult decode_record(const hj::store::PlanStore& st, const hj::Shape& canon,
                             VerifyTally* tally = nullptr) {
  hj::store::PlanStore::Lookup lk;
  {
    ScopedSpan span("store.lookup");
    lk = st.lookup(hj::store::Key::of(canon));
  }
  if (lk.status != hj::store::PlanStore::Status::Hit)
    throw std::runtime_error("store has no record for " + canon.to_string());
  hj::PlanResult p;
  {
    ScopedSpan span("core.io.decode");
    p.embedding = hj::io::from_text(lk.record.emb_text);
  }
  {
    ScopedSpan span("core.verify");
    const u64 t0 = now_ns();
    p.report = hj::verify(*p.embedding);
    if (tally) {
      tally->calls += 1;
      tally->ns += now_ns() - t0;
      tally->edges += p.report.guest_edges;
    }
  }
  p.plan = lk.record.plan;
  return p;
}

hj::PlanResult relabel(const hj::PlanResult& canon, const hj::Shape& target) {
  ScopedSpan span("core.relabel");
  return hj::relabel_plan(canon, target);
}

}  // namespace

RunResult run_serve_zipf(const RunContext& ctx) {
  RunResult res;
  ProviderStats pstats;
  const hj::DirectProviderFactory provider = counted_search_provider(pstats);
  const auto build_store = [&](const std::string& tag) {
    const std::string path = ctx.tmp + "/store-" + tag + ".hjs";
    std::remove(path.c_str());
    std::remove(hj::store::journal_path(path).c_str());
    hj::store::PrecomputeOptions po;
    po.max_nodes = kBudget;
    const hj::store::PrecomputeResult pre = hj::store::precompute(path, po, provider);
    if (!pre.complete) throw std::runtime_error("precompute did not complete");
    return path;
  };

  // Set-up: two cold builds in forked children, then the parent's own.
  std::vector<double> setup_s = forked_setup_seconds(
      [&](const std::string& tag) { std::remove(build_store(tag).c_str()); }, 2);
  const u64 ts = now_ns();
  const std::string store_path = build_store("parent");
  const hj::store::PlanStore st = hj::store::PlanStore::open(store_path);
  hj::store::Server server(&st, daemon_options(), provider);
  setup_s.push_back(secs(now_ns() - ts));

  const std::vector<hj::Shape> canon = hj::store::enumerate_canonical_shapes(kBudget, 3);
  Stream s;
  Generator gen(canon, mix(ctx.seed, 0x5E12E));
  struct Planned {
    const Step* step;
    std::pair<std::size_t, std::size_t> range;
  };
  std::vector<Planned> plan;
  std::vector<const Step*> ladder = {&kNominal, &kBusy, &kOverload, &kSaturation};
  // A traced run adds two fully warm busy steps, library telemetry off
  // then on, for the telemetry-overhead figure.
  if (ctx.trace) ladder.insert(ladder.end(), {&kBusy, &kBusy});
  for (const Step* step : ladder) {
    const double seconds = ctx.seconds * step->share;
    plan.push_back({step, step->window ? gen.add_requests(s, static_cast<std::size_t>(
                                             seconds * kSaturationPerSecond))
                                       : gen.add_step(s, step->rate, seconds)});
  }

  int req_pipe[2], rep_pipe[2];
  if (pipe(req_pipe) != 0 || pipe(rep_pipe) != 0) throw std::runtime_error("pipe failed");
  std::atomic<u64> replies{0};
  const unsigned cpus = std::thread::hardware_concurrency();
  std::thread daemon([&] {
    pin_to(2, cpus);  // run_serve's worker inherits this
    FdReadBuf in_buf(req_pipe[0]);
    FdWriteBuf out_buf(rep_pipe[1]);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    (void)hj::store::run_serve(in, out, server);
    out.flush();
    ::close(rep_pipe[1]);
  });
  std::thread reader([&] {
    pin_to(1, 2);
    read_replies(rep_pipe[0], s, replies);
  });
  pin_to(0, 1);
  std::vector<StepResult> steps;
  std::exception_ptr failure;
  try {
    for (std::size_t k = 0; k < plan.size(); ++k) {
      if (ctx.trace && k >= 4) hj::obs::set_enabled(k == 5);
      const IdleSpinners warm(plan[k].step->latency ? 1 : cpus, cpus);
      steps.push_back(run_step(*plan[k].step, plan[k].range, s,
                               req_pipe[1], replies, server));
    }
    hj::obs::set_enabled(ctx.trace);
  } catch (...) {
    failure = std::current_exception();
  }
  ::close(req_pipe[1]);
  pin_to(0, cpus);
  daemon.join();
  reader.join();
  ::close(req_pipe[0]);
  ::close(rep_pipe[0]);
  if (failure) std::rethrow_exception(failure);

  // Gate: check every served reply against an independent certificate.
  std::unordered_map<u32, hj::PlanResult> canon_plan;
  std::unordered_map<u64, Expected> expected;
  std::vector<bool> below_capacity(s.canon.size(), false);
  for (const Planned& p : plan)
    for (std::size_t i = p.range.first; i < p.range.second; ++i)
      below_capacity[i] = p.step->counted;
  const bool traced = SpanLog::get().on();
  SpanLog::get().set_on(false);  // the checker is not a measured layer
  for (std::size_t i = 0; i < s.canon.size(); ++i) {
    const Reply& r = s.reply[i];
    const bool counted = below_capacity[i];
    ++res.attempted;
    if (r.status == kNone || r.status == kError) {
      res.fail(1, "request " + std::to_string(i + 1) + " got no usable reply");
      continue;
    }
    if (r.status == kShedQueue || r.status == kShedDeadline) {
      if (counted) res.fail(1, "request " + std::to_string(i + 1) + " shed below capacity");
      continue;
    }
    const u64 key = (u64{s.canon[i]} << 8) | s.order[i];
    auto it = expected.find(key);
    if (it == expected.end()) {
      auto cp = canon_plan.find(s.canon[i]);
      if (cp == canon_plan.end())
        cp = canon_plan.emplace(s.canon[i], decode_record(st, canon[s.canon[i]])).first;
      const hj::PlanResult rel = hj::relabel_plan(cp->second, permuted(canon[s.canon[i]], s.order[i]));
      Expected e;
      e.ok = rel.report.valid;
      e.cube = rel.report.host_dim;
      e.dil = rel.report.dilation;
      e.cong = rel.report.congestion;
      e.wl = rel.report.wirelength;
      it = expected.emplace(key, e).first;
    }
    const Expected& e = it->second;
    if (!e.ok || e.cube != r.cube || e.dil != r.dil || e.cong != r.cong || e.wl != r.wl)
      res.fail(1, "reply " + std::to_string(i + 1) + " for " +
                      permuted(canon[s.canon[i]], s.order[i]).to_string() +
                      " carries a certificate that does not match the record");
  }
  SpanLog::get().set_on(traced);

  // Memo behaviour of the daemon's stream: a served request whose
  // canonical shape was served before needs no store read.
  u64 served = 0, store_reads = 0;
  {
    std::vector<bool> seen(canon.size(), false);
    for (std::size_t i = 0; i < s.canon.size(); ++i) {
      const hj::u8 st_ = s.reply[i].status;
      if (st_ != kWarm && st_ != kCold && st_ != kDegraded) continue;
      ++served;
      if (!seen[s.canon[i]]) {
        seen[s.canon[i]] = true;
        ++store_reads;
      }
    }
  }

  // Traced run: replay the nominal and busy request streams, closed
  // loop, through Server::handle on a fresh server and through each
  // layer's public call, one span per call.
  if (traced) {
    const std::size_t replay_end = std::min<std::size_t>(plan[1].range.second, 60000);
    hj::store::Server fresh(&st, daemon_options(), provider);
    for (std::size_t i = 0; i < replay_end; ++i) {
      const hj::Shape shape = permuted(canon[s.canon[i]], s.order[i]);
      ScopedSpan span("store.serve.handle", i + 1);
      (void)fresh.handle(shape);
    }
    std::unordered_map<u32, hj::PlanResult> cache;
    VerifyTally verified;
    for (std::size_t i = 0; i < replay_end; ++i) {
      ScopedSpan unit("bench.replay", i + 1);
      auto it = cache.find(s.canon[i]);
      if (it == cache.end())
        it = cache.emplace(s.canon[i], decode_record(st, canon[s.canon[i]], &verified)).first;
      const hj::Shape shape = permuted(canon[s.canon[i]], s.order[i]);
      if (shape != canon[s.canon[i]]) (void)relabel(it->second, shape);
    }
    res.extra.num("replay_requests", static_cast<double>(replay_end))
        .num("verify_calls", static_cast<double>(verified.calls))
        .num("verify_s", secs(verified.ns))
        .num("verify_edges", static_cast<double>(verified.edges));
  }
  std::remove(store_path.c_str());

  const StepResult& nominal = steps[0];
  const StepResult& busy = steps[1];
  const StepResult& over = steps[2];
  const StepResult& sat = steps[3];
  res.e2e.num("setup_s", median(setup_s))
      .num("peak_rss_mb", peak_rss_mb())
      .num("throughput_per_s", busy.ok_rps)
      .num("p50_us", nominal.p50_us);
  res.samples.num("setup_s", static_cast<double>(setup_s.size()))
      .num("throughput_per_s", static_cast<double>(busy.ok))
      .num("p50_us", static_cast<double>(nominal.ok));
  std::string steps_json = "[";
  for (std::size_t k = 0; k < steps.size(); ++k)
    steps_json += (k ? "," : "") + step_json(steps[k]);
  steps_json += "]";
  res.extra.raw("steps", steps_json)
      .num("sat_rps", over.ok_rps)
      .num("capacity_rps", sat.ok_rps)
      .num("p99_us_busy", busy.p99_us)
      .num("served", static_cast<double>(served))
      .num("store_reads", static_cast<double>(store_reads))
      .num("memo_hit_ratio", served ? static_cast<double>(served - store_reads) /
                                          static_cast<double>(served)
                                    : 0.0)
      .num("provider_calls", static_cast<double>(pstats.calls.load()))
      .num("provider_hits", static_cast<double>(pstats.hits.load()))
      .num("provider_s", secs(pstats.ns.load()));
  if (ctx.trace)
    res.extra.num("obs_on_overhead_frac", steps[5].p99_us / steps[4].p99_us - 1.0);
  return res;
}

}  // namespace perfbench
