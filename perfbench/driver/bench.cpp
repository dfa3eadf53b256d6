#include "bench.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "search/provider.hpp"

namespace perfbench {

u64 mix(u64 a, u64 b) noexcept {
  u64 z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += json_quote(k) + ':';
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  body_ += buf;
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_quote(v);
  return *this;
}

Json& Json::flag(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const Span& s) {
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  const std::lock_guard<std::mutex> lk(mu_);
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}\n";
  }
  if (!os) throw std::runtime_error("cannot write span log " + path);
}

namespace {
thread_local u64 t_parent = 0;
thread_local u64 t_req = 0;
}  // namespace

ScopedSpan::ScopedSpan(const char* name, u64 req) {
  SpanLog& log = SpanLog::get();
  if (!log.on()) return;
  active_ = true;
  s_.name = name;
  s_.id = log.next_id();
  s_.parent = t_parent;
  s_.req = req ? req : t_req;
  saved_parent_ = t_parent;
  saved_req_ = t_req;
  t_parent = s_.id;
  t_req = s_.req;
  s_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  s_.end_ns = now_ns();
  t_parent = saved_parent_;
  t_req = saved_req_;
  SpanLog::get().record(s_);
}

hj::DirectProviderFactory counted_search_provider(ProviderStats& stats) {
  return [&stats] {
    hj::DirectProvider inner = hj::search::make_search_provider();
    return hj::DirectProvider(
        [&stats, inner](const hj::Mesh& guest, u32 host_dim)
            -> std::optional<std::vector<hj::CubeNode>> {
          ScopedSpan span("search.provider");
          const u64 t0 = now_ns();
          std::optional<std::vector<hj::CubeNode>> map = inner(guest, host_dim);
          stats.ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
          stats.calls.fetch_add(1, std::memory_order_relaxed);
          if (map) stats.hits.fetch_add(1, std::memory_order_relaxed);
          return map;
        });
  };
}

std::vector<double> forked_setup_seconds(
    const std::function<void(const std::string& tag)>& setup, u32 forks) {
  std::vector<double> out;
  for (u32 k = 0; k < forks; ++k) {
    std::fflush(nullptr);
    const u64 t0 = now_ns();
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int rc = 0;
      try {
        setup("fork" + std::to_string(k));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "set-up child failed: %s\n", e.what());
        rc = 1;
      }
      std::fflush(nullptr);
      _exit(rc);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) throw std::runtime_error("waitpid failed");
    }
    out.push_back(secs(now_ns() - t0));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("set-up child process failed");
  }
  return out;
}

}  // namespace perfbench
