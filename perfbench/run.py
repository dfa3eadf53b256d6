#!/usr/bin/env python3
"""perfbench: the repository benchmark, one command for everything.

One workload, one run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

builds the driver from source into .bench_build/ (first run only), runs
the workload in a fresh process with HJ_THREADS = nproc, prints a report
and, as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics. With --trace 1 the
workload runs twice with the same seed, untraced then traced (the
benchmark's own spans plus the library's HJ_OBS=1 registry and trace),
each for half of --seconds; the metrics are the per-layer metrics, each
labelled in the report with the end-to-end metric and workload it should
move, plus bench.trace_overhead_frac, the gap between the two runs.

Every workload, several seeds, with the spread of each metric:

    python3 perfbench/run.py --workload all --seed 1 --repeat 5 --seconds 20

See perfbench/README.md for the workloads and the metric definitions.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler and driver temporary files stay inside the checkout too.
TMPDIR = os.path.join(ROOT, ".bench_build", "tmp")
DRIVER = os.path.join(BUILD, "hj_perfbench")
WORKLOADS = ["serve_zipf", "plan_batch", "storm_recover"]
DRIVER_TIMEOUT_S = 170

# End-to-end metrics: name -> unit. The workload-specific meaning of each
# is in README.md.
E2E = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s", "p50_us": "us"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; exits 2 without sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "planner.hpp")):
        log("perfbench: library sources not found under %s/src" % ROOT)
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    os.makedirs(TMPDIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMPDIR)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            sys.exit(2)


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            "hj_threads": str(os.cpu_count() or 1), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16], "seed": seed}


def run_driver(workload, seed, seconds, trace):
    """One fresh driver process; returns its result document."""
    tmp = os.path.join(ROOT, ".bench_build", "runs", "%s-%d-%d-%d" % (workload, seed, int(trace), os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=TMPDIR)
    env["HJ_THREADS"] = str(os.cpu_count() or 1)
    env.pop("HJ_OBS", None)  # telemetry is on only in a traced run
    out = os.path.join(tmp, "result")
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0", "--tmp", tmp, "--out", out]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stderr[-4000:])
            raise RuntimeError("driver exited with %d" % proc.returncode)
        for line in proc.stderr.splitlines()[:20]:
            log(line)
        with open(out + ".json") as f:
            doc = json.load(f)
        if trace:
            with open(out + ".spans.jsonl") as f:
                doc["spans"] = [json.loads(line) for line in f if line.strip()]
            with open(out + ".obs_trace.json") as f:
                doc["obs_trace"] = json.load(f)["traceEvents"]
            with open(out + ".registry.json") as f:
                doc["registry"] = json.load(f)
        return doc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --- per-layer metrics ----------------------------------------------------


def pct(values, p):
    """Nearest-rank percentile, as the driver computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(p * len(v)))) - 1]


class Trace:
    """A traced run's views: bench spans (self times), library spans and
    registry counters, and the driver's workload detail."""

    def __init__(self, traced, untraced):
        self.doc = traced
        self.untraced = untraced
        self.extra = traced["extra"]
        self.steps = {s["step"]: s for s in self.extra.get("steps", [])}
        spans = traced["spans"]
        child_ns = defaultdict(int)
        ids = {s["id"] for s in spans}
        for s in spans:
            if s["parent"] in ids:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        self.self_us = defaultdict(list)
        for s in spans:
            self.self_us[s["name"]].append((s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) / 1e3)
        events = traced["obs_trace"]
        self.lib_us = defaultdict(float)
        for e in events:
            self.lib_us[e["name"]] += e["dur"]
        # The library's live.diagnose span stays open across the repair
        # it triggers; its self time leaves out the nested recovery.repair
        # spans (same thread, contained in time).
        diagnose = [(e["tid"], e["ts"], e["ts"] + e["dur"]) for e in events if e["name"] == "live.diagnose"]
        self.lib_us["live.diagnose.self"] = self.lib_us["live.diagnose"] - sum(
            e["dur"] for e in events if e["name"] == "recovery.repair" and any(
                tid == e["tid"] and lo <= e["ts"] and e["ts"] + e["dur"] <= hi for tid, lo, hi in diagnose))
        self.counters = {k: v["value"] for k, v in traced["registry"].get("counters", {}).items()}

    def x(self, key):
        return float(self.extra.get(key, 0.0))

    def step(self, name, key):
        return float(self.steps.get(name, {}).get(key, 0.0))

    def mean_self(self, name):
        v = self.self_us.get(name, [])
        return sum(v) / len(v) if v else 0.0

    def calls(self, name):
        return float(len(self.self_us.get(name, [])))

    def counter(self, name):
        return float(self.counters.get(name, 0))

    def units(self):
        """Work units of the run: served requests, planned shapes, storm runs."""
        return self.x("served") or self.x("shapes_planned") or self.x("storm_runs")


def ratio(a, b):
    return a / b if b else 0.0


# (name, unit, end-to-end metric it should move, workload, value). A layer
# a workload does not exercise reads 0: that is the "no change" prediction.
LAYERS = [
    ("store.serve.handle_us.p50", "us", "p50_us, store.serve.capacity_rps", "serve_zipf",
     lambda t: pct(t.self_us.get("store.serve.handle", []), 0.50)),
    ("store.serve.handle_us.p99", "us", "store.serve.capacity_rps", "serve_zipf",
     lambda t: pct(t.self_us.get("store.serve.handle", []), 0.99)),
    ("store.serve.phase.queue_us", "us", "store.serve.p99_us_busy", "serve_zipf",
     lambda t: t.step("busy", "phase_queue_mean_us")),
    ("store.serve.phase.lookup_us", "us", "p50_us", "serve_zipf",
     lambda t: t.step("nominal", "phase_lookup_mean_us")),
    ("store.serve.phase.verify_us", "us", "p50_us", "serve_zipf",
     lambda t: t.step("nominal", "phase_verify_mean_us")),
    ("store.serve.phase.plan_us", "us", "p50_us", "serve_zipf",
     lambda t: t.step("nominal", "phase_plan_mean_us")),
    ("store.serve.client_overhead_us", "us", "p50_us", "serve_zipf",
     lambda t: t.step("nominal", "client_overhead_p50_us")),
    ("store.serve.memo_hit_ratio", "ratio", "p50_us", "serve_zipf",
     lambda t: t.x("memo_hit_ratio")),
    ("store.serve.shed.queue_full", "count", "store.serve.sat_rps", "serve_zipf",
     lambda t: t.step("overload", "shed_queue_full")),
    ("store.serve.shed.deadline", "count", "store.serve.sat_rps", "serve_zipf",
     lambda t: t.step("overload", "shed_deadline")),
    ("store.serve.sat_rps", "req/s", "reported capacity (unbounded)", "serve_zipf",
     lambda t: t.step("overload", "ok_rps")),
    ("store.serve.capacity_rps", "req/s", "reported capacity (unbounded)", "serve_zipf",
     lambda t: t.step("saturation", "ok_rps")),
    ("store.serve.p99_us", "us", "reported tail (unbounded)", "serve_zipf",
     lambda t: t.step("nominal", "p99_us")),
    ("store.serve.p99_us_busy", "us", "reported tail (unbounded)", "serve_zipf",
     lambda t: t.step("busy", "p99_us")),
    ("store.serve.generator_late_us.p99", "us", "none (validity)", "serve_zipf",
     lambda t: max(t.step("nominal", "late_p99_us"), t.step("busy", "late_p99_us"))),
    ("store.lookup_us", "us", "p50_us", "serve_zipf", lambda t: t.mean_self("store.lookup")),
    ("store.lookup.calls", "count", "p50_us", "serve_zipf", lambda t: t.calls("store.lookup")),
    ("core.io.decode_us", "us", "p50_us, setup_s", "serve_zipf", lambda t: t.mean_self("core.io.decode")),
    ("core.io.decode.calls", "count", "p50_us, setup_s", "serve_zipf", lambda t: t.calls("core.io.decode")),
    ("core.relabel_us", "us", "p50_us, store.serve.capacity_rps", "serve_zipf", lambda t: t.mean_self("core.relabel")),
    ("core.relabel.calls", "count", "p50_us, store.serve.capacity_rps", "serve_zipf", lambda t: t.calls("core.relabel")),
    ("core.verify_us", "us", "p50_us / throughput_per_s", "all",
     lambda t: ratio(t.x("verify_s") * 1e6, t.x("verify_calls"))),
    ("core.verify.calls", "count", "p50_us / throughput_per_s", "all", lambda t: t.x("verify_calls")),
    ("core.verify.ns_per_edge", "ns", "p50_us / throughput_per_s", "all",
     lambda t: ratio(t.x("verify_s") * 1e9, t.x("verify_edges"))),
    ("core.plan_batch_s", "s", "throughput_per_s, p50_us", "plan_batch", lambda t: t.x("plan_batch_s_mean")),
    ("core.parallel.speedup", "x", "throughput_per_s", "plan_batch", lambda t: t.x("parallel_speedup")),
    ("core.planner.best_calls", "count/unit", "throughput_per_s", "plan_batch",
     lambda t: ratio(t.counter("planner.best_calls"), t.units())),
    ("core.planner.memo_hit_ratio", "ratio", "throughput_per_s", "plan_batch",
     lambda t: ratio(t.counter("planner.memo_hits"), t.counter("planner.best_calls"))),
    ("core.plancache.hit_ratio", "ratio", "throughput_per_s", "plan_batch",
     lambda t: ratio(t.counter("plancache.hits"), t.counter("plancache.lookups"))),
    ("core.plancache.entries", "count", "throughput_per_s, peak_rss_mb", "plan_batch",
     lambda t: t.x("plancache_entries_mean")),
    ("core.plan_batch.dedup_ratio", "ratio", "none (workload check)", "plan_batch",
     lambda t: t.x("dedup_ratio")),
    ("search.provider.calls", "count", "setup_s / throughput_per_s", "serve_zipf / storm_recover",
     lambda t: t.x("provider_calls")),
    ("search.provider_us", "us", "setup_s / throughput_per_s", "serve_zipf / storm_recover",
     lambda t: ratio(t.x("provider_s") * 1e6, t.x("provider_calls"))),
    ("search.provider.hit_ratio", "ratio", "setup_s / throughput_per_s", "serve_zipf / storm_recover",
     lambda t: ratio(t.x("provider_hits"), t.x("provider_calls"))),
    ("hypersim.run_live_us", "us/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.lib_us["sim.run_live"], t.x("storm_runs"))),
    ("hypersim.cycles", "cycles/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.x("cycles"), t.x("storms"))),
    ("hypersim.retransmits", "count/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.counter("live.retransmits"), t.x("storm_runs"))),
    ("hypersim.live.epochs", "count/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.x("epochs"), t.x("storms"))),
    ("hypersim.live.diagnose_us", "us/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.lib_us["live.diagnose.self"], t.x("storm_runs"))),
    ("core.recovery.repair_us", "us/unit", "throughput_per_s, p50_us", "storm_recover",
     lambda t: ratio(t.lib_us["recovery.repair"], t.x("storm_runs"))),
    ("core.recovery.replan_us", "us/unit", "throughput_per_s, p50_us", "storm_recover",
     lambda t: ratio(t.lib_us["recovery.replan"], t.x("storm_runs"))),
    ("core.recovery.rung.reroute", "count/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.x("rung_reroute"), t.x("storms"))),
    ("core.recovery.rung.migrate", "count/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.x("rung_migrate"), t.x("storms"))),
    ("core.recovery.rung.replan", "count/unit", "throughput_per_s", "storm_recover",
     lambda t: ratio(t.x("rung_replan"), t.x("storms"))),
    ("obs.on_overhead_frac", "ratio", "store.serve.p99_us_busy", "serve_zipf", lambda t: t.x("obs_on_overhead_frac")),
    ("bench.trace_overhead_frac", "ratio", "none (validity)", "all",
     lambda t: ratio(t.untraced["e2e"]["throughput_per_s"], t.doc["e2e"]["throughput_per_s"]) - 1.0),
]

LAYER_UNITS = {name: unit for name, unit, _, _, _ in LAYERS}


# --- one workload --------------------------------------------------------


def report_run(doc):
    print("# %s seed=%d seconds=%g trace=%d threads=%d compiler=%s build=%s" % (
        doc["workload"], doc["seed"], doc["seconds"], doc["trace"], doc["threads"],
        doc["compiler"], doc["build_type"]))
    for name, unit in E2E.items():
        print("#   %-18s %14.6g %-5s (%d samples)" % (
            name, doc["e2e"][name], unit, doc["samples"].get(name, 1)))
    for s in doc["extra"].get("steps", []):
        print("#   step %-10s offered %7.0f req/s  ok %7.0f req/s  p50 %8.1f us  p99 %9.1f us  "
              "late p50/p99 %.1f/%.1f us  shed q/d %d/%d  windows %d%s" % (
                  s["step"], s["offered_rps"], s["ok_rps"], s["p50_us"], s["p99_us"],
                  s["late_p50_us"], s["late_p99_us"], s["shed_queue_full"], s["shed_deadline"],
                  s["windows"], "" if s["valid"] else "  INVALID (generator fell behind)"))
    if doc["failed"]:
        for e in doc["errors"]:
            print("#   gate failure: %s" % e)


def run_one(args):
    prov = provenance(args.seed)
    print("# provenance %s" % json.dumps(prov, sort_keys=True))
    if not args.trace:
        doc = run_driver(args.workload, args.seed, args.seconds, False)
        report_run(doc)
        metrics = {n: {"value": doc["e2e"][n], "unit": u} for n, u in E2E.items()}
    else:
        half = args.seconds / 2.0
        untraced = run_driver(args.workload, args.seed, half, False)
        doc = run_driver(args.workload, args.seed, half, True)
        report_run(doc)
        t = Trace(doc, untraced)
        metrics = {}
        for name, unit, moves, on, fn in LAYERS:
            value = float(fn(t))
            metrics[name] = {"value": value, "unit": unit}
            print("#   layer %-36s %14.6g %-12s moves %-28s on %s" % (name, value, unit, moves, on))
        doc["correct"] = doc["correct"] and untraced["correct"]
        doc["failed"] += untraced["failed"]
        doc["attempted"] += untraced["attempted"]
    return {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}


def run_many(args):
    """Every requested workload over --repeat seeds, with spreads."""
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    summary, ok = {}, True
    for wl in workloads:
        values = defaultdict(list)
        for k in range(args.repeat):
            sub = argparse.Namespace(**vars(args))
            sub.workload, sub.seed = wl, args.seed + k
            res = run_one(sub)
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
        summary[wl] = {}
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(v)}
            print("# spread %-14s %-36s median %14.6g  q1 %14.6g  q3 %14.6g  (q3-q1)/median %.3f  n=%d" % (
                wl, name, med, q1, q3, spread, len(v)))
    return {"correct": ok, "summary": summary}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1, help="seeds seed..seed+repeat-1, with spreads")
    args = ap.parse_args()
    build()
    if args.workload == "all" or args.repeat > 1:
        print(json.dumps(run_many(args)))
    else:
        print(json.dumps(run_one(args)))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
