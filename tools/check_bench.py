#!/usr/bin/env python3
"""Check the line-delimited BENCH_*.json artifacts.

Usage: check_bench.py FILE [FILE ...]
       check_bench.py --against=BASE FILE

Every file is checked against the schema of its basename prefix
(SCHEMAS below). A schema names the field that gives each row its kind
and, per kind, every field's type and role. A field is an id (it names
the run), deterministic (the same code must reproduce it exactly) or
timing (wall clock, free to move). Per row:
  * the line parses as a JSON object of a known kind
  * every field is present with its type, no other field appears, and
    numbers are finite (no NaN/inf)
  * enumerated fields hold one of their values (storm verdicts, serve
    modes, bounds objectives, `identical: true` on every E17 and
    equivalence row) and floored fields reach their floor (E17
    plan_batch speedup >= 1.0: adding threads must never make planning
    slower than serial; serve latency rows have requests >= 1 and
    p50_us >= 0)
Across rows, per artifact:
  * BENCH_parallel*: within each workload, (size, threads) run ids are
    strictly increasing
  * BENCH_recovery*: trials are non-decreasing per (shape, mode), and
    epoch rows count 0, 1, 2, ... between run rows
  * BENCH_storm*: every storm row has delivered + failed == messages and
    a certified storm has failed == 0; each survival row's verdict
    counts sum to its runs and match the storm rows of its (shape, kind,
    events) cell, and no cell lacks a survival row
  * BENCH_bounds*: every bounds row has value >= lower bound and
    gap == value / bound >= 1.0 for dilation/wirelength/congestion (load
    >= its bound), every wins row has wins_dil2 <= wins <= planned, and
    the wirelength objective's wins row shows >= 1 win at dilation <= 2
  * BENCH_serve*: latency rows keep p99 >= p50 and there is one per mode,
    the cold row's mean_us is >= the warm row's (a cold row faster than
    store hits means the cold requests reused warm state), and every
    corruption row answers and verifies 100% of its requests with
    warm+degraded+cold == answered (byte flips degrade to the live
    planner, never to an unverified or dropped reply)

With --against=BASE, FILE's rows are matched to BASE's in order and any
difference in an id or deterministic field, or in the row count, is a
violation; timing fields may differ.

Prints every violation found. Exit codes: 0 ok, 1 violations, 2 usage
error or unreadable file.
"""
import json
import math
import sys

ID, DET, TIME = "id", "deterministic", "timing"
NUM = (int, float)


class OneOf(tuple):
    """Field type: the value must equal one of these (of the same type)."""


VERDICTS = OneOf(("certified", "degraded", "failed"))
TRUE = OneOf((True,))

# A field is (type, role) or (type, role, floor).
E17 = {
    "exp": (OneOf(("E17",)), ID), "workload": (str, ID), "size": (int, ID),
    "threads": (int, ID), "seconds": (NUM, TIME), "speedup": (NUM, TIME),
    "identical": (TRUE, DET),
}
RECOVERY = {"shape": (str, ID), "trial": (int, ID), "mode": (str, ID),
            "row": (str, ID)}
STORM = {
    "row": (str, ID), "shape": (str, ID), "host_dim": (int, ID),
    "method": (str, DET), "kind": (str, ID), "events": (int, ID),
}


def det(types, *names):
    return {name: (types, DET) for name in names}


SCHEMAS = {
    "BENCH_parallel": ("workload", {
        "sweep_3d": E17,
        "verify_batch": E17,
        "plan_batch": {**E17, "speedup": (NUM, TIME, 1.0),
                       "dedup_ratio": (NUM, DET)},
        # plancache lookups and hits depend on thread interleaving.
        "plan_batch_obs": {**E17, "cache_hit_rate": (NUM, TIME),
                           "lookups": (int, TIME), "unique": (int, DET)},
    }),
    "BENCH_recovery": ("row", {
        "epoch": {**RECOVERY, "epoch": (int, ID), "fault": (str, DET),
                  "rung": (str, DET),
                  **det(int, "arrival_cycle", "detect_cycle",
                        "detect_latency", "moved_nodes", "migration_cost",
                        "dilation", "congestion")},
        "run": {**RECOVERY, "ok": (bool, DET),
                **det(int, "cycles", "messages", "delivered", "failed",
                      "epochs", "repairs", "total_migration_cost",
                      "final_dilation", "final_congestion", "final_load",
                      "rung_attempts", "rung_certified"),
                "reroute_us": (int, TIME), "migrate_us": (int, TIME),
                "replan_us": (int, TIME)},
    }),
    "BENCH_storm": ("row", {
        "storm": {**STORM, "seed": (int, ID), "verdict": (VERDICTS, DET),
                  "witness": (bool, DET),
                  **det(int, "arrivals", "flapping", "messages", "delivered",
                        "failed", "epochs", "repairs", "quarantined",
                        "quarantine_evictions", "repairs_denied",
                        "deferred_watchdogs", "uncovered", "cycles")},
        "survival": {**STORM,
                     **det(int, "runs", "certified", "degraded", "failed")},
    }),
    "BENCH_bounds": ("row", {
        "bounds": {"row": (str, ID), "shape": (str, ID),
                   "objective": (OneOf(("lexicographic", "dilation",
                                        "wirelength", "congestion")), ID),
                   "method": (str, DET), "minimal": (bool, DET),
                   **det(int, "host_dim", "nodes", "edges", "dilation",
                         "dil_lb", "wirelength", "wl_lb", "congestion",
                         "cong_lb", "load", "load_lb"),
                   **det(NUM, "dil_gap", "wl_gap", "cong_gap")},
        "equivalence": {"row": (str, ID), "shape": (str, ID),
                        "default_method": (str, DET),
                        "lex_method": (str, DET), "identical": (TRUE, DET)},
        "wins": {"row": (str, ID), "objective": (str, ID),
                 **det(int, "planned", "wins", "wins_dil2", "losses",
                       "metric_saved")},
    }),
    "BENCH_serve": ("row", {
        "latency": {"row": (str, ID), "mode": (OneOf(("warm", "cold")), ID),
                    "requests": (int, DET, 1), "p50_us": (int, TIME, 0),
                    "p99_us": (int, TIME), "mean_us": (NUM, TIME)},
        "corruption": {"row": (str, ID), "flips": (int, ID),
                       **det(int, "requests", "answered", "verified", "warm",
                             "degraded", "cold", "quarantined")},
    }),
}


def check_field(key, value, spec, where, errors):
    types, _role, *floor = spec
    if isinstance(types, OneOf):
        if not any(type(value) is type(v) and value == v for v in types):
            errors.append(f"{where}: '{key}' is {value!r}, expected one of "
                          f"{list(types)}")
        return
    # bool is an int subclass in Python; keep the kinds separate.
    if not isinstance(value, types) or (type(value) is bool
                                        and types is not bool):
        errors.append(f"{where}: '{key}' has type {type(value).__name__}")
    elif isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{where}: '{key}' is not finite")
    elif floor and value < floor[0]:
        errors.append(f"{where}: '{key}' is {value}, below its floor "
                      f"{floor[0]}")


def check_row(row, kind_field, kinds, where, errors):
    """Type-check one row; True when it is fit for the cross-row checks."""
    fields = kinds.get(row.get(kind_field))
    if fields is None:
        errors.append(f"{where}: unknown {kind_field} "
                      f"'{row.get(kind_field)}'")
        return False
    before = len(errors)
    for key in sorted(row.keys() - fields.keys()):
        errors.append(f"{where}: unexpected key '{key}'")
    for key, spec in fields.items():
        if key not in row:
            errors.append(f"{where}: missing key '{key}'")
        else:
            check_field(key, row[key], spec, where, errors)
    return len(errors) == before


def check_parallel(rows, errors):
    last = {}  # workload -> (size, threads)
    for where, row in rows:
        run = (row["size"], row["threads"])
        prev = last.get(row["workload"])
        if prev is not None and run <= prev:
            errors.append(f"{where}: {row['workload']} run ids not "
                          f"monotone: size/threads {run[0]}/{run[1]} after "
                          f"{prev[0]}/{prev[1]}")
        last[row["workload"]] = run


def check_recovery(rows, errors):
    trial = {}  # (shape, mode) -> last trial
    epoch = {}  # (shape, mode) -> expected next epoch id
    for where, row in rows:
        key = (row["shape"], row["mode"])
        if row["row"] == "epoch":
            expected = epoch.get(key, 0)
            if row["epoch"] != expected:
                errors.append(f"{where}: epoch {row['epoch']} for {key}, "
                              f"expected {expected}")
            epoch[key] = expected + 1
        else:
            epoch[key] = 0  # the next trial's epochs restart at 0
        if row["trial"] < trial.get(key, row["trial"]):
            errors.append(f"{where}: trial went backwards for {key}")
        trial[key] = row["trial"]


def check_storm(rows, errors):
    # (shape, kind, events) -> verdict tallies of the storm rows seen
    # since the cell's last survival row.
    pending = {}
    for where, row in rows:
        key = (row["shape"], row["kind"], row["events"])
        if row["row"] == "storm":
            if row["delivered"] + row["failed"] != row["messages"]:
                errors.append(f"{where}: delivery accounting broken: "
                              f"{row['delivered']} + {row['failed']} != "
                              f"{row['messages']}")
            if row["verdict"] == "certified" and row["failed"] != 0:
                errors.append(f"{where}: certified run with "
                              f"{row['failed']} failed messages")
            cell = pending.setdefault(key, dict.fromkeys(VERDICTS, 0))
            cell[row["verdict"]] += 1
        else:
            split = {v: row[v] for v in VERDICTS}
            if sum(split.values()) != row["runs"]:
                errors.append(f"{where}: verdict counts sum to "
                              f"{sum(split.values())}, runs={row['runs']}")
            seen = pending.pop(key, dict.fromkeys(VERDICTS, 0))
            if split != seen:
                errors.append(f"{where}: survival split {split} does not "
                              f"match its cell's storm rows {seen}")
    for key in pending:
        errors.append(f"storm rows for {key} have no survival row")


def check_bounds(rows, errors):
    wl_wins_dil2 = None
    for where, row in rows:
        if row["row"] == "bounds":
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
        elif row["row"] == "wins":
            if not row["wins_dil2"] <= row["wins"] <= row["planned"]:
                errors.append(f"{where}: wins accounting broken: "
                              f"{row['wins_dil2']} <= {row['wins']} <= "
                              f"{row['planned']} fails")
            if row["objective"] == "wirelength":
                wl_wins_dil2 = row["wins_dil2"]
    if wl_wins_dil2 is None:
        errors.append("no wins row for the wirelength objective")
    elif wl_wins_dil2 < 1:
        errors.append("wirelength objective never beat the default at "
                      "dilation <= 2 (wins_dil2 == 0)")


def check_serve(rows, errors):
    mean_us = {}  # mode -> mean_us
    saw_corruption = False
    for where, row in rows:
        if row["row"] == "latency":
            mean_us[row["mode"]] = row["mean_us"]
            if row["p50_us"] > row["p99_us"]:
                errors.append(f"{where}: latency percentiles inverted: "
                              f"p50={row['p50_us']} p99={row['p99_us']}")
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
    for mode in ("warm", "cold"):
        if mode not in mean_us:
            errors.append(f"no latency row for mode '{mode}'")
    if "cold" in mean_us and "warm" in mean_us and (
            mean_us["cold"] < mean_us["warm"]):
        errors.append(f"cold mean_us {mean_us['cold']} < warm mean_us "
                      f"{mean_us['warm']}: the cold requests were not cold")
    if not saw_corruption:
        errors.append("no corruption rows")


CROSS_ROW = {
    "BENCH_parallel": check_parallel,
    "BENCH_recovery": check_recovery,
    "BENCH_storm": check_storm,
    "BENCH_bounds": check_bounds,
    "BENCH_serve": check_serve,
}


def prefix_of(path):
    name = path.rsplit("/", 1)[-1]
    return next((p for p in SCHEMAS if name.startswith(p)), None)


def load(path, errors):
    """Parsed (line number, row) pairs; raises OSError if unreadable."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
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
    return rows


def check_file(path):
    """(rows, violations) for one artifact."""
    errors = []
    rows = load(path, errors)
    prefix = prefix_of(path)
    if prefix is None:
        errors.append(f"no schema for this file name (expected one of "
                      f"{', '.join(p + '*' for p in SCHEMAS)})")
        return rows, errors
    kind_field, kinds = SCHEMAS[prefix]
    fit = [(f"line {lineno}", row) for lineno, row in rows
           if check_row(row, kind_field, kinds, f"line {lineno}", errors)]
    if len(fit) == len(rows):
        CROSS_ROW[prefix](fit, errors)
    return rows, errors


def diff_against(base_rows, rows, prefix):
    """Violations where `rows` differ from `base_rows` outside timing."""
    kind_field, kinds = SCHEMAS[prefix]
    errors = []
    if len(rows) != len(base_rows):
        errors.append(f"{len(rows)} rows, the base has {len(base_rows)}")
    for (_, base), (lineno, row) in zip(base_rows, rows):
        fields = kinds.get(row.get(kind_field), {})
        run = " ".join(f"{k}={row[k]}" for k, spec in fields.items()
                       if spec[1] == ID and k in row)
        for key in sorted(base.keys() | row.keys()):
            if fields.get(key, (None, DET))[1] == TIME:
                continue
            if base.get(key) != row.get(key):
                errors.append(f"line {lineno} ({run}): '{key}' is "
                              f"{row.get(key)!r}, the base has "
                              f"{base.get(key)!r}")
    return errors


def usage():
    print(__doc__.strip(), file=sys.stderr)
    return 2


def main(argv):
    base = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--against=") and base is None:
            base = arg.split("=", 1)[1]
        elif arg.startswith("-"):
            return usage()
        else:
            paths.append(arg)
    if not paths or (base is not None and (not base or len(paths) != 1)):
        return usage()
    try:
        checked = {path: check_file(path) for path in
                   dict.fromkeys(([base] if base else []) + paths)}
    except OSError as e:
        print(f"cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    if base and not any(errors for _, errors in checked.values()):
        rows, errors = checked[paths[0]]
        if prefix_of(paths[0]) != prefix_of(base):
            errors.append(f"not the same artifact as {base}")
        else:
            errors.extend(diff_against(checked[base][0], rows,
                                       prefix_of(base)))
        if not errors:
            print(f"{paths[0]}: {len(rows)} rows match {base} outside "
                  "timing fields")
    failed = False
    for path, (_, errors) in checked.items():
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        failed = failed or bool(errors)
        if not errors:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
