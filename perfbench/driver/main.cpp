// hj_perfbench: runs one benchmark workload and writes its results.
//
//   hj_perfbench --workload serve_zipf|plan_batch|storm_recover
//                --seed N --seconds S --trace 0|1 --tmp DIR --out PREFIX
//
// Writes PREFIX.json (metrics, correctness, workload detail). A traced
// run (--trace 1) also turns the library's own telemetry on (the HJ_OBS=1
// registry and trace spans) and writes PREFIX.spans.jsonl (the
// benchmark's spans), PREFIX.obs_trace.json and PREFIX.registry.json.
// run.py turns these files into the reported metrics. The exit code is 0
// whenever the run completed, correct or not; correctness is in the file.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "core/parallel.hpp"
#include "obs/obs.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hj_perfbench: %s\nusage: hj_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --tmp DIR --out PREFIX\n",
               why);
  std::exit(2);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out;
  RunContext ctx;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      ctx.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--tmp") {
      ctx.tmp = v;
    } else if (flag == "--out") {
      out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || out.empty() || ctx.tmp.empty() || !have_seed)
    usage("missing arguments");
  if (!(ctx.seconds > 0 && ctx.seconds <= 120)) usage("bad --seconds");

  RunResult (*run)(const RunContext&) = nullptr;
  if (workload == "serve_zipf") run = run_serve_zipf;
  else if (workload == "plan_batch") run = run_plan_batch;
  else if (workload == "storm_recover") run = run_storm_recover;
  else usage(("unknown workload " + workload).c_str());

  // A daemon pipe closed early must surface as an error, not a signal.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    std::filesystem::create_directories(ctx.tmp);
    // A traced run records the benchmark's spans and turns the library's
    // own registry and trace on, as HJ_OBS=1 would.
    SpanLog::get().set_on(ctx.trace);
    hj::obs::set_enabled(ctx.trace);

    RunResult r = run(ctx);

    std::string errors = "[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
      errors += (i ? "," : "") + json_quote(r.errors[i]);
    errors += "]";
    Json doc;
    doc.str("workload", workload)
        .num("seed", static_cast<double>(ctx.seed))
        .num("seconds", ctx.seconds)
        .flag("trace", ctx.trace)
        .num("threads", hj::par::thread_count())
        .str("compiler", __VERSION__)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .flag("correct", r.failed == 0 && r.attempted > 0)
        .num("attempted", static_cast<double>(r.attempted))
        .num("failed", static_cast<double>(r.failed))
        .raw("errors", errors)
        .raw("e2e", r.e2e.dump())
        .raw("samples", r.samples.dump())
        .raw("extra", r.extra.dump());
    write_file(out + ".json", doc.dump() + "\n");
    if (ctx.trace) {
      SpanLog::get().write_jsonl(out + ".spans.jsonl");
      write_file(out + ".obs_trace.json", hj::obs::Trace::global().to_json());
      write_file(out + ".registry.json",
                 hj::obs::Registry::global().to_json());
    }
    for (const std::string& e : r.errors)
      std::fprintf(stderr, "gate failure: %s\n", e.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hj_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
