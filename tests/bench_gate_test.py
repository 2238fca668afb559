#!/usr/bin/env python3
"""Tests of scripts/bench_gate.py, the bench trajectory reader and gate.

    tests/bench_gate_test.py                    gate rule on a synthetic
                                                trajectory
    tests/bench_gate_test.py --record BENCH     bench_hotpath's fresh entry
                                                and the checked-in
                                                BENCH_simulator.json
                                                validate, and name the
                                                records the gate matches

The --record mode runs the bench at a tiny scale and applies no timing
threshold: it catches drift between the C++ writer and the reader.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import bench_gate  # noqa: E402

TRAJECTORY = os.path.join(ROOT, "BENCH_simulator.json")
MACHINE = {"host": "h", "cpu": "c", "hardware_threads": 1, "compiler": "g"}


def record(bench, workload, metric, better, value):
    return {"bench": bench, "workload": workload, "metric": metric,
            "unit": "u", "better": better, "value": value}


def entry(*records, label=None):
    e = {"machine": MACHINE, "records": list(records)}
    if label is not None:
        e = {"label": label, "git": "0000000", "date": "2026-01-01",
             **e}
    return e


def cost(nnz, value):
    return record("bench_hotpath", f"fig12-suite@nnz{nnz}",
                  "normalized_cost", "lower", value)


def points(value):
    return record("bench_surrogate", "fig17-panel",
                  "points_per_calibration", "higher", value)


def run(*args):
    """bench_gate.py's exit code on `args`, its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = bench_gate.main(list(args))
    run.output = out.getvalue()
    return code


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.traj = self.write("traj.json", {
            "schema": bench_gate.SCHEMA,
            "entries": [
                entry(cost(4000, 10.0), points(500.0), label="old"),
                entry(cost(4000, 8.0), points(1000.0), label="ref"),
                # Latest record overall, but at another scale.
                entry(cost(60000, 1.0), label="big"),
            ]})

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, *records):
        return run("gate", self.traj,
                   self.write("new.json", entry(*records)))

    def test_lower_is_better_limit(self):
        self.assertEqual(self.gate(cost(4000, 8.0 * 1.49)), 0)
        self.assertEqual(self.gate(cost(4000, 8.0 * 1.51)), 1)

    def test_higher_is_better_limit(self):
        self.assertEqual(self.gate(points(1000.0 / 1.49)), 0)
        self.assertEqual(self.gate(points(1000.0 / 1.51)), 1)

    def test_missing_reference_fails(self):
        self.assertEqual(self.gate(cost(2000, 1.0)), 1)
        self.assertEqual(self.gate(points(1000.0), cost(2000, 1.0)), 1)

    def test_reference_is_at_the_same_scale(self):
        # 1.25x the nnz4000 reference; 10x the later nnz60000 record.
        self.assertEqual(self.gate(cost(4000, 10.0)), 0)
        self.assertEqual(self.gate(cost(60000, 1.49)), 0)
        self.assertEqual(self.gate(cost(60000, 1.51)), 1)

    def test_reference_is_the_latest_record(self):
        # 1.56x the latest nnz4000 record, 1.25x an older one.
        self.assertEqual(self.gate(cost(4000, 12.5)), 1)

    def test_nothing_gated_fails(self):
        self.assertEqual(self.gate(record("bench_hotpath", "w", "reps",
                                          "higher", 5)), 1)

    def test_validate_rejects_bad_shapes(self):
        good = entry(cost(4000, 8.0))
        self.assertEqual(run("validate", self.traj,
                             self.write("g.json", good)), 0)
        bad = [
            entry(),
            entry({**cost(4000, 8.0), "extra": 1}),
            entry({**cost(4000, 8.0), "better": "higher"}),
            entry({**cost(4000, 8.0), "value": "8"}),
            entry({**cost(4000, 8.0), "samples": []}),
            entry({**cost(4000, 8.0), "samples": [1.0, 2.0]},
                  record("bench_hotpath", "w", "reps", "higher", 3)),
            entry(cost(4000, 8.0), cost(4000, 9.0)),
            {"records": [cost(4000, 8.0)]},
            {"schema": bench_gate.SCHEMA, "entries": [good]},
        ]
        for i, doc in enumerate(bad):
            path = self.write(f"bad{i}.json", doc)
            self.assertEqual(run("validate", path), 1, doc)


def check_record(bench):
    """Validate a fresh bench_hotpath entry and the checked-in
    trajectory, and check that the trajectory holds records of the
    bench's gated metrics for the gate to match."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = os.path.join(tmp, "hotpath.json")
        env = {**os.environ, "SPARCH_BENCH_NNZ": "2000",
               "SPARCH_BENCH_REPS": "1", "SPARCH_BENCH_JSON": fresh}
        subprocess.run([bench], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        code = run("validate", TRAJECTORY, fresh)
        print(run.output, end="")
        if code != 0:
            return 1
        (entry,) = bench_gate.load(fresh)

    # The workload up to "@" names the bench's workload at any scale.
    def unscaled(rec):
        return (rec["bench"], rec["workload"].split("@")[0], rec["metric"])

    known = {unscaled(r) for e in bench_gate.load(TRAJECTORY, True)
             for r in e["records"]}
    gated = [unscaled(r) for r in entry["records"]
             if r["metric"] in bench_gate.GATED]
    missing = [key for key in gated if key not in known]
    if not gated or missing:
        print(f"gated records {gated}; none in the trajectory: {missing}")
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--record":
        sys.exit(check_record(sys.argv[2]))
    unittest.main()
