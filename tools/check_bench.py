#!/usr/bin/env python3
"""Schema validator for the line-delimited BENCH_*.json artifacts.

Usage: check_bench.py [--min-plan-speedup=X] FILE [FILE ...]

Checks, per file (schema chosen by basename):
  * every line parses as a JSON object
  * every required key is present, with finite numbers (no NaN/inf)
  * run ids are monotone:
      - BENCH_parallel*: within each workload, the thread counts of the
        timed rows are strictly increasing (size resets the sequence);
        with --min-plan-speedup=X, additionally every plan_batch row
        must report speedup >= X (the CI perf-smoke gate: adding
        threads must never make planning slower than serial)
      - BENCH_recovery*: trials are non-decreasing per (shape, mode), and
        epoch rows count 0, 1, 2, ... between summary rows
      - BENCH_storm*: every storm row's verdict is one of
        certified/degraded/failed with consistent delivery accounting,
        and each survival row's verdict counts sum to its run count and
        match the storm rows of its (shape, kind, events) cell
      - BENCH_bounds*: every bounds row has value >= lower bound and
        gap == value / bound >= 1.0 for dilation/wirelength/congestion,
        every equivalence row is identical (the lexicographic default
        reproduces the historical planner), and the wirelength
        objective's wins row shows >= 1 win at dilation <= 2
      - BENCH_serve*: latency rows keep p99 >= p50 >= 0 us, the cold
        row's mean_us is >= the warm row's (a cold row faster than
        store hits means the cold requests reused warm state), the split
        row's warm+cold+degraded+shed verdicts sum to its requests
        (shedding is accounted load, not loss), and every corruption row
        answers and verifies 100% of its requests with
        warm+degraded+cold == answered (byte flips degrade to the live
        planner, never to an unverified or dropped reply)

Exits 1 on the first file with violations; prints every violation found.
"""
import json
import math
import sys

PARALLEL_KEYS = {
    "exp": str, "workload": str, "size": int, "threads": int,
    "seconds": (int, float), "speedup": (int, float), "identical": bool,
}
RECOVERY_COMMON = {"shape": str, "trial": int, "mode": str, "row": str}
RECOVERY_EPOCH = {
    "epoch": int, "arrival_cycle": int, "detect_cycle": int,
    "detect_latency": int, "fault": str, "rung": str, "moved_nodes": int,
    "migration_cost": int, "dilation": int, "congestion": int,
}
RECOVERY_RUN = {
    "ok": bool, "cycles": int, "messages": int, "delivered": int,
    "failed": int, "epochs": int, "repairs": int,
    "total_migration_cost": int, "final_dilation": int,
    "final_congestion": int, "final_load": int,
}
# Registry-sourced columns added to run rows; optional so historical
# artifacts generated before the observability layer still validate.
RECOVERY_RUN_OPTIONAL = {
    "reroute_us": int, "migrate_us": int, "replan_us": int,
    "rung_attempts": int, "rung_certified": int,
}
STORM_COMMON = {
    "row": str, "shape": str, "host_dim": int, "method": str, "kind": str,
    "events": int,
}
STORM_RUN = {
    "seed": int, "arrivals": int, "flapping": int, "verdict": str,
    "messages": int, "delivered": int, "failed": int, "epochs": int,
    "repairs": int, "quarantined": int, "quarantine_evictions": int,
    "repairs_denied": int, "deferred_watchdogs": int, "uncovered": int,
    "witness": bool, "cycles": int,
}
STORM_SURVIVAL = {
    "runs": int, "certified": int, "degraded": int, "failed": int,
}
VERDICTS = ("certified", "degraded", "failed")
BOUNDS_ROW = {
    "row": str, "shape": str, "objective": str, "host_dim": int,
    "method": str, "nodes": int, "edges": int, "minimal": bool,
    "dilation": int, "dil_lb": int, "dil_gap": (int, float),
    "wirelength": int, "wl_lb": int, "wl_gap": (int, float),
    "congestion": int, "cong_lb": int, "cong_gap": (int, float),
    "load": int, "load_lb": int,
}
BOUNDS_EQUIVALENCE = {
    "row": str, "shape": str, "default_method": str, "lex_method": str,
    "identical": bool,
}
BOUNDS_WINS = {
    "row": str, "objective": str, "planned": int, "wins": int,
    "wins_dil2": int, "losses": int, "metric_saved": int,
}
OBJECTIVES = ("lexicographic", "dilation", "wirelength", "congestion")
SERVE_LATENCY = {
    "row": str, "mode": str, "requests": int, "p50_us": int,
    "p99_us": int, "mean_us": (int, float),
}
SERVE_SPLIT = {
    "row": str, "requests": int, "warm": int, "cold": int,
    "degraded": int, "shed": int,
}
SERVE_CORRUPTION = {
    "row": str, "flips": int, "requests": int, "answered": int,
    "verified": int, "warm": int, "degraded": int, "cold": int,
    "quarantined": int,
}
SERVE_MODES = ("cold", "warm")


def check_types(row, schema, errors, where, required=True):
    for key, types in schema.items():
        if key not in row:
            if required:
                errors.append(f"{where}: missing key '{key}'")
            continue
        value = row[key]
        # bool is an int subclass in Python; keep the kinds separate.
        if types is int and isinstance(value, bool):
            errors.append(f"{where}: '{key}' should be an integer")
        elif not isinstance(value, types):
            errors.append(f"{where}: '{key}' has type "
                          f"{type(value).__name__}")
        elif isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{where}: '{key}' is not finite")


def check_parallel(rows, errors, min_plan_speedup=None):
    last = {}  # workload -> (size, threads)
    for lineno, row in rows:
        where = f"line {lineno}"
        check_types(row, PARALLEL_KEYS, errors, where)
        if not all(k in row for k in ("workload", "size", "threads")):
            continue
        key = row["workload"]
        if (min_plan_speedup is not None and key == "plan_batch"
                and isinstance(row.get("speedup"), (int, float))
                and row["speedup"] < min_plan_speedup):
            errors.append(
                f"{where}: plan_batch at {row['threads']} threads has "
                f"speedup {row['speedup']} < {min_plan_speedup}")
        prev = last.get(key)
        if prev is not None:
            size, threads = prev
            if (row["size"], row["threads"]) <= (size, threads):
                errors.append(
                    f"{where}: {key} run ids not monotone: "
                    f"size/threads {row['size']}/{row['threads']} after "
                    f"{size}/{threads}")
        last[key] = (row["size"], row["threads"])


def check_recovery(rows, errors):
    trial = {}  # (shape, mode) -> last trial
    epoch = {}  # (shape, mode) -> expected next epoch id
    for lineno, row in rows:
        where = f"line {lineno}"
        check_types(row, RECOVERY_COMMON, errors, where)
        if not all(k in row for k in RECOVERY_COMMON):
            continue
        key = (row["shape"], row["mode"])
        if row["row"] == "epoch":
            check_types(row, RECOVERY_EPOCH, errors, where)
            expected = epoch.get(key, 0)
            if row.get("epoch") != expected:
                errors.append(f"{where}: epoch {row.get('epoch')} for "
                              f"{key}, expected {expected}")
            epoch[key] = expected + 1
        elif row["row"] == "run":
            check_types(row, RECOVERY_RUN, errors, where)
            check_types(row, RECOVERY_RUN_OPTIONAL, errors, where,
                        required=False)
            epoch[key] = 0  # next trial's epochs restart at 0
        else:
            errors.append(f"{where}: unknown row type '{row['row']}'")
        if key in trial and row["trial"] < trial[key]:
            errors.append(f"{where}: trial went backwards for {key}")
        trial[key] = row["trial"]


def check_storm(rows, errors):
    # (shape, kind, events) -> verdict tallies of the storm rows seen
    # since the cell's last survival row.
    pending = {}
    for lineno, row in rows:
        where = f"line {lineno}"
        check_types(row, STORM_COMMON, errors, where)
        if not all(k in row for k in STORM_COMMON):
            continue
        key = (row["shape"], row["kind"], row["events"])
        if row["row"] == "storm":
            check_types(row, STORM_RUN, errors, where)
            verdict = row.get("verdict")
            if verdict not in VERDICTS:
                errors.append(f"{where}: verdict '{verdict}' not in "
                              f"{VERDICTS}")
                continue
            if all(k in row for k in ("messages", "delivered", "failed")):
                if row["delivered"] + row["failed"] != row["messages"]:
                    errors.append(f"{where}: delivery accounting broken: "
                                  f"{row['delivered']} + {row['failed']} "
                                  f"!= {row['messages']}")
                if verdict == "certified" and row["failed"] != 0:
                    errors.append(f"{where}: certified run with "
                                  f"{row['failed']} failed messages")
            cell = pending.setdefault(key, dict.fromkeys(VERDICTS, 0))
            cell[verdict] += 1
        elif row["row"] == "survival":
            check_types(row, STORM_SURVIVAL, errors, where)
            if not all(k in row for k in STORM_SURVIVAL):
                continue
            split = {v: row[v] for v in VERDICTS}
            if sum(split.values()) != row["runs"]:
                errors.append(f"{where}: verdict counts sum to "
                              f"{sum(split.values())}, runs={row['runs']}")
            seen = pending.pop(key, dict.fromkeys(VERDICTS, 0))
            if split != seen:
                errors.append(f"{where}: survival split {split} does not "
                              f"match its cell's storm rows {seen}")
        else:
            errors.append(f"{where}: unknown row type '{row['row']}'")
    for key, cell in pending.items():
        errors.append(f"storm rows for {key} have no survival row")


def check_bounds(rows, errors):
    wl_wins_dil2 = None
    for lineno, row in rows:
        where = f"line {lineno}"
        kind = row.get("row")
        if kind == "bounds":
            check_types(row, BOUNDS_ROW, errors, where)
            if not all(k in row for k in BOUNDS_ROW):
                continue
            if row["objective"] not in OBJECTIVES:
                errors.append(f"{where}: objective '{row['objective']}' "
                              f"not in {OBJECTIVES}")
            for metric, lb, gap in (("dilation", "dil_lb", "dil_gap"),
                                    ("wirelength", "wl_lb", "wl_gap"),
                                    ("congestion", "cong_lb", "cong_gap"),
                                    ("load", "load_lb", None)):
                if row[metric] < row[lb]:
                    errors.append(f"{where}: {metric} {row[metric]} below "
                                  f"its lower bound {row[lb]}")
                if gap is None:
                    continue
                if row[gap] < 1.0:
                    errors.append(f"{where}: {gap} {row[gap]} < 1.0")
                expect = row[metric] / row[lb] if row[lb] else 1.0
                if abs(row[gap] - expect) > 1e-3:
                    errors.append(f"{where}: {gap} {row[gap]} != "
                                  f"{metric}/{lb} = {expect:.4f}")
        elif kind == "equivalence":
            check_types(row, BOUNDS_EQUIVALENCE, errors, where)
            if row.get("identical") is not True:
                errors.append(f"{where}: lexicographic-default equivalence "
                              f"broken for shape '{row.get('shape')}'")
        elif kind == "wins":
            check_types(row, BOUNDS_WINS, errors, where)
            if not all(k in row for k in BOUNDS_WINS):
                continue
            if not (row["wins_dil2"] <= row["wins"] <= row["planned"]):
                errors.append(f"{where}: wins accounting broken: "
                              f"{row['wins_dil2']} <= {row['wins']} <= "
                              f"{row['planned']} fails")
            if row["objective"] == "wirelength":
                wl_wins_dil2 = row["wins_dil2"]
        else:
            errors.append(f"{where}: unknown row type '{kind}'")
    if wl_wins_dil2 is None:
        errors.append("no wins row for the wirelength objective")
    elif wl_wins_dil2 < 1:
        errors.append("wirelength objective never beat the default at "
                      "dilation <= 2 (wins_dil2 == 0)")


def check_serve(rows, errors):
    modes = {}  # mode -> mean_us
    saw_split = saw_corruption = False
    for lineno, row in rows:
        where = f"line {lineno}"
        kind = row.get("row")
        if kind == "latency":
            check_types(row, SERVE_LATENCY, errors, where)
            if not all(k in row for k in SERVE_LATENCY):
                continue
            if row["mode"] not in SERVE_MODES:
                errors.append(f"{where}: latency mode '{row['mode']}' "
                              f"not in {SERVE_MODES}")
            modes[row["mode"]] = row["mean_us"]
            if row["requests"] < 1:
                errors.append(f"{where}: latency row with no requests")
            if not (0 <= row["p50_us"] <= row["p99_us"]):
                errors.append(f"{where}: latency percentiles inverted: "
                              f"p50={row['p50_us']} p99={row['p99_us']}")
        elif kind == "split":
            check_types(row, SERVE_SPLIT, errors, where)
            if not all(k in row for k in SERVE_SPLIT):
                continue
            saw_split = True
            total = (row["warm"] + row["cold"] + row["degraded"]
                     + row["shed"])
            if total != row["requests"]:
                errors.append(f"{where}: verdict split sums to {total}, "
                              f"requests={row['requests']}")
        elif kind == "corruption":
            check_types(row, SERVE_CORRUPTION, errors, where)
            if not all(k in row for k in SERVE_CORRUPTION):
                continue
            saw_corruption = True
            if row["answered"] != row["requests"]:
                errors.append(f"{where}: {row['answered']} of "
                              f"{row['requests']} requests answered")
            if row["verified"] != row["answered"]:
                errors.append(f"{where}: {row['verified']} of "
                              f"{row['answered']} answers verified — an "
                              "uncertified plan escaped")
            served = row["warm"] + row["degraded"] + row["cold"]
            if served != row["answered"]:
                errors.append(f"{where}: serve verdicts sum to {served}, "
                              f"answered={row['answered']}")
        else:
            errors.append(f"{where}: unknown row type '{kind}'")
    for mode in SERVE_MODES:
        if mode not in modes:
            errors.append(f"no latency row for mode '{mode}'")
    if "cold" in modes and "warm" in modes and modes["cold"] < modes["warm"]:
        errors.append(f"cold mean_us {modes['cold']} < warm mean_us "
                      f"{modes['warm']}: the cold requests were not cold")
    if not saw_split:
        errors.append("no split row")
    if not saw_corruption:
        errors.append("no corruption rows")


def check_file(path, min_plan_speedup=None):
    errors = []
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {lineno}: invalid JSON ({e})")
                continue
            if not isinstance(row, dict):
                errors.append(f"line {lineno}: not a JSON object")
                continue
            rows.append((lineno, row))
    if not rows:
        errors.append("no rows")

    name = path.rsplit("/", 1)[-1]
    if name.startswith("BENCH_parallel"):
        check_parallel(rows, errors, min_plan_speedup)
    elif name.startswith("BENCH_recovery"):
        check_recovery(rows, errors)
    elif name.startswith("BENCH_storm"):
        check_storm(rows, errors)
    elif name.startswith("BENCH_bounds"):
        check_bounds(rows, errors)
    elif name.startswith("BENCH_serve"):
        check_serve(rows, errors)
    else:
        errors.append(f"no schema for '{name}' (expected BENCH_parallel*, "
                      "BENCH_recovery*, BENCH_storm*, BENCH_bounds* or "
                      "BENCH_serve*)")
    return errors


def main(argv):
    min_plan_speedup = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--min-plan-speedup="):
            try:
                min_plan_speedup = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"invalid threshold in '{arg}'", file=sys.stderr)
                return 2
        else:
            paths.append(arg)
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        errors = check_file(path, min_plan_speedup)
        if errors:
            failed = True
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
