#!/usr/bin/env python3
"""Tests for tools/check_bench.py.

Every committed BENCH_*.json must pass; one seeded-bad copy per invariant
must fail with that invariant's message; --against must fail on a changed
deterministic field or row count and pass when only timing fields move;
bad arguments and unreadable files exit 2.

Run directly: python3 tests/tools/check_bench_test.py
"""
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TOOL = os.path.join(ROOT, "tools", "check_bench.py")

spec = importlib.util.spec_from_file_location("check_bench", TOOL)
check_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench)


def committed(prefix):
    with open(os.path.join(ROOT, prefix + ".json"), encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def first(rows, **match):
    return next(r for r in rows
                if all(r.get(k) == v for k, v in match.items()))


# Mutations of a committed artifact's rows. Each edits `rows` (a list of
# dicts; a str element is written verbatim as a line) in place.
def set_field(key, value, **match):
    def mutate(rows):
        first(rows, **match)[key] = value
    return mutate


def add_to(key, delta, **match):
    def mutate(rows):
        first(rows, **match)[key] += delta
    return mutate


def drop_rows(**match):
    def mutate(rows):
        rows[:] = [r for r in rows if isinstance(r, str)
                   or not all(r.get(k) == v for k, v in match.items())]
    return mutate


def append_line(line):
    return lambda rows: rows.append(line)


def swap_first_two(**match):
    def mutate(rows):
        i, j = [n for n, r in enumerate(rows)
                if all(r.get(k) == v for k, v in match.items())][:2]
        rows[i], rows[j] = rows[j], rows[i]
    return mutate


def delete_key(key, **match):
    def mutate(rows):
        del first(rows, **match)[key]
    return mutate


def split_mismatch(rows):
    # Same run count, but one certified storm reported as degraded.
    row = first(rows, row="survival", certified=3)
    row["certified"] -= 1
    row["degraded"] += 1


def certified_with_failures(rows):
    row = first(rows, row="storm", verdict="certified")
    row["failed"] += 1
    row["delivered"] -= 1  # delivery accounting still balances


def trial_backwards(rows):
    # The last row of the (3x3x7, ladder) cell claims trial 0.
    last = [r for r in rows if r["shape"] == "3x3x7"
            and r["mode"] == "ladder"][-1]
    last["trial"] = 0


# (artifact, mutation, fragment of the violation it must produce)
BAD = [
    # Any artifact: parse, type and schema-shape violations.
    ("BENCH_parallel", append_line("{"), "invalid JSON"),
    ("BENCH_parallel", append_line("[1, 2]"), "not a JSON object"),
    ("BENCH_parallel", drop_rows(exp="E17"), "no rows"),
    ("BENCH_parallel", delete_key("seconds", workload="verify_batch"),
     "missing key 'seconds'"),
    ("BENCH_parallel", set_field("size", True, workload="verify_batch"),
     "'size' has type bool"),
    ("BENCH_parallel", set_field("seconds", "1.0", workload="sweep_3d"),
     "'seconds' has type str"),
    ("BENCH_parallel", set_field("seconds", float("nan"),
                                 workload="sweep_3d"), "is not finite"),
    ("BENCH_parallel", set_field("extra", 1, workload="sweep_3d"),
     "unexpected key 'extra'"),
    ("BENCH_parallel", set_field("workload", "bogus", workload="sweep_3d"),
     "unknown workload 'bogus'"),
    # E17: identical rows, the plan_batch floor, monotone run ids.
    ("BENCH_parallel", set_field("identical", False, workload="verify_batch",
                                 threads=4), "'identical' is False"),
    ("BENCH_parallel", set_field("speedup", 0.9, workload="plan_batch",
                                 threads=2), "'speedup' is 0.9, below"),
    ("BENCH_parallel", swap_first_two(workload="verify_batch"),
     "run ids not monotone"),
    # E18: monotone trials, epochs counting from 0.
    ("BENCH_recovery", trial_backwards, "trial went backwards"),
    ("BENCH_recovery", set_field("epoch", 5, row="epoch"), "epoch 5 for"),
    ("BENCH_recovery", set_field("row", "bogus", row="run"),
     "unknown row 'bogus'"),
    # E20: verdicts, delivery accounting, survival splits.
    ("BENCH_storm", set_field("verdict", "bogus", row="storm"),
     "'verdict' is 'bogus'"),
    ("BENCH_storm", add_to("delivered", 1, row="storm"),
     "delivery accounting broken"),
    ("BENCH_storm", certified_with_failures, "certified run with 1 failed"),
    ("BENCH_storm", add_to("runs", 1, row="survival"),
     "verdict counts sum to"),
    ("BENCH_storm", split_mismatch, "does not match its cell's storm rows"),
    ("BENCH_storm", drop_rows(row="survival", shape="7x9x13", events=50),
     "have no survival row"),
    # E21: lower bounds, gaps, equivalence, wins.
    ("BENCH_bounds", lambda rows: first(rows, row="bounds").update(
        load=first(rows, row="bounds")["load_lb"] - 1),
     "load 0 below its lower bound"),
    ("BENCH_bounds", set_field("wl_gap", 0.9, row="bounds"),
     "wl_gap 0.9 < 1.0"),
    ("BENCH_bounds", add_to("cong_gap", 0.5, row="bounds"),
     "cong_gap"),
    ("BENCH_bounds", set_field("objective", "bogus", row="bounds"),
     "'objective' is 'bogus'"),
    ("BENCH_bounds", set_field("identical", False, row="equivalence"),
     "'identical' is False"),
    ("BENCH_bounds", lambda rows: first(rows, row="wins").update(
        wins_dil2=first(rows, row="wins")["wins"] + 1),
     "wins accounting broken"),
    ("BENCH_bounds", set_field("wins_dil2", 0, row="wins",
                               objective="wirelength"),
     "wirelength objective never beat the default"),
    ("BENCH_bounds", drop_rows(row="wins", objective="wirelength"),
     "no wins row for the wirelength objective"),
    # E22: latency percentiles and cold-vs-warm, corruption accounting.
    ("BENCH_serve", lambda rows: first(rows, mode="warm").update(
        p50_us=first(rows, mode="warm")["p99_us"] + 1),
     "latency percentiles inverted"),
    ("BENCH_serve", set_field("mean_us", 1.0, mode="cold"),
     "the cold requests were not cold"),
    ("BENCH_serve", drop_rows(mode="cold"), "no latency row for mode 'cold'"),
    ("BENCH_serve", set_field("requests", 0, mode="warm"),
     "'requests' is 0, below its floor 1"),
    ("BENCH_serve", set_field("mode", "lukewarm", mode="warm"),
     "'mode' is 'lukewarm'"),
    ("BENCH_serve", add_to("answered", -1, row="corruption"),
     "requests answered"),
    ("BENCH_serve", add_to("verified", -1, row="corruption"),
     "an uncertified plan escaped"),
    ("BENCH_serve", add_to("warm", -1, row="corruption"),
     "serve verdicts sum to"),
    ("BENCH_serve", drop_rows(row="corruption"), "no corruption rows"),
    ("BENCH_serve", append_line(
        '{"row":"split","requests":4,"warm":1,"cold":1,"degraded":1,'
        '"shed":1}'), "unknown row 'split'"),
]


def run(*args):
    """(exit code, stdout, stderr) of check_bench.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = check_bench.main(["check_bench.py", *args])
    return code, out.getvalue(), err.getvalue()


class CheckBench(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, rows):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            for row in rows:
                f.write((row if isinstance(row, str) else json.dumps(row))
                        + "\n")
        return path

    def test_every_committed_artifact_passes(self):
        paths = [os.path.join(ROOT, prefix + ".json")
                 for prefix in check_bench.SCHEMAS]
        code, out, err = run(*paths)
        self.assertEqual(code, 0, err)
        self.assertEqual(out.count(": ok"), len(paths), out)

    def test_each_seeded_violation_fails(self):
        for prefix, mutate, message in BAD:
            with self.subTest(prefix=prefix, message=message):
                rows = committed(prefix)
                mutate(rows)
                code, _, err = run(self.write(prefix + "_bad.json", rows))
                self.assertEqual(code, 1, err)
                self.assertIn(message, err)

    def test_unknown_artifact_has_no_schema(self):
        code, _, err = run(self.write("BENCH_other.json", [{"row": "x"}]))
        self.assertEqual(code, 1)
        self.assertIn("no schema", err)

    def test_against_ignores_timing_fields(self):
        rows = committed("BENCH_recovery")
        for row in rows:
            for key in row:
                if key.endswith("_us"):
                    row[key] += 1000
        base = os.path.join(ROOT, "BENCH_recovery.json")
        code, out, err = run("--against=" + base,
                             self.write("BENCH_recovery.json", rows))
        self.assertEqual(code, 0, err)
        self.assertIn("48 rows match", out)

        rows = committed("BENCH_parallel")
        for row in rows:
            row["seconds"] *= 2
        first(rows, workload="plan_batch_obs")["lookups"] += 1
        code, _, err = run("--against=" + os.path.join(
            ROOT, "BENCH_parallel.json"), self.write("BENCH_parallel.json",
                                                     rows))
        self.assertEqual(code, 0, err)

    def test_against_fails_on_deterministic_drift(self):
        cases = [
            ("BENCH_recovery", add_to("rung_attempts", 1, row="run"),
             "'rung_attempts' is"),
            ("BENCH_recovery", drop_rows(row="run", trial=2),
             "rows, the base has 48"),
            ("BENCH_storm", add_to("cycles", 1, row="storm"), "'cycles' is"),
            ("BENCH_parallel", set_field("dedup_ratio", 2.5,
                                         workload="plan_batch"),
             "'dedup_ratio' is 2.5"),
            ("BENCH_serve", add_to("requests", 1, mode="warm"),
             "'requests' is"),
            ("BENCH_bounds", set_field("method", "gray 1x1", row="bounds"),
             "'method' is 'gray 1x1'"),
        ]
        for prefix, mutate, message in cases:
            with self.subTest(prefix=prefix, message=message):
                rows = committed(prefix)
                mutate(rows)
                code, _, err = run(
                    "--against=" + os.path.join(ROOT, prefix + ".json"),
                    self.write(prefix + ".json", rows))
                self.assertEqual(code, 1, err)
                self.assertIn(message, err)

    def test_against_needs_the_same_artifact(self):
        code, _, err = run(
            "--against=" + os.path.join(ROOT, "BENCH_storm.json"),
            os.path.join(ROOT, "BENCH_serve.json"))
        self.assertEqual(code, 1)
        self.assertIn("not the same artifact", err)

    def test_bad_arguments_exit_2(self):
        serve = os.path.join(ROOT, "BENCH_serve.json")
        for args in ([], ["--threshold=0.1", serve],
                     ["--min-plan-speedup=1.0", serve], ["--against=", serve],
                     ["--against=" + serve, serve, serve],
                     ["--against=" + serve, "--against=" + serve, serve],
                     [os.path.join(self.tmp.name, "BENCH_serve_none.json")]):
            with self.subTest(args=args):
                self.assertEqual(run(*args)[0], 2)

    def test_script_exit_code(self):
        result = subprocess.run([sys.executable, TOOL, "--warn-only"],
                                capture_output=True, text=True, check=False)
        self.assertEqual(result.returncode, 2)
        self.assertIn("Usage:", result.stderr)


if __name__ == "__main__":
    unittest.main()
