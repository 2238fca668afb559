#!/usr/bin/env python3
"""Read, gate and extend the bench trajectory (BENCH_simulator.json).

    scripts/bench_gate.py validate FILE...
    scripts/bench_gate.py gate TRAJ NEW...
    scripts/bench_gate.py append TRAJ NEW LABEL

Every trajectory-writing bench (bench_hotpath, bench_surrogate,
bench_io) writes one entry through bench::writeEntry
(bench/bench_common.hh) when SPARCH_BENCH_JSON names a path:

    {"machine": {"host", "cpu", "hardware_threads", "compiler"},
     "records": [{"bench", "workload", "metric", "unit", "better",
                  "value", "samples"?}, ...]}

`better` is "lower" or "higher"; `samples` holds the per-rep times of
the median record, as many as the "reps" record says. A trajectory is
{"schema": SCHEMA, "entries": [...]} whose entries also carry "label",
"git", "date", "dirty" (true, only when measured from a modified tree)
and "note" (free text kept from older entries).

`gate` compares each machine-normalized metric of the new entries
(GATED) with the latest trajectory record of the same (bench, workload,
metric) and fails when it is more than MAX_WORSE times worse, or when
no such record exists. The workload names the scale where a scale
changes the metric (bench_hotpath's "fig12-suite@nnz4000"), so a
record is only ever compared with one measured at its own scale.
"""

import json
import math
import os
import subprocess
import sys
import time

SCHEMA = "sparch-bench-trajectory-v2"

# The machine-normalized metrics (timing divided or multiplied by the
# fixed-work calibration loop timed in the same process) and the
# direction in which each improves. Only these compare across machines.
GATED = {
    "normalized_cost": "lower",
    "points_per_calibration": "higher",
    "convert_mb_per_calibration": "higher",
}

# A gated metric fails when it is more than this many times worse than
# its reference: 1.5x the cost, or under 1/1.5 = 0.67x the throughput.
MAX_WORSE = 1.5


def is_str(v):
    return isinstance(v, str)


def is_num(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def is_list(v):
    return isinstance(v, list) and len(v) > 0


# Field -> predicate; a field with a "?" suffix is optional.
HEAD = {"label": is_str, "git": is_str, "date": is_str}
ENTRY = {"dirty?": lambda v: v is True, "note?": is_str,
         "machine": lambda v: isinstance(v, dict), "records": is_list}
MACHINE = {"host": is_str, "cpu": is_str, "compiler": is_str,
           "hardware_threads": lambda v: isinstance(v, int) and is_num(v)}
RECORD = {"bench": is_str, "workload": is_str, "metric": is_str,
          "unit": is_str, "better": lambda v: v in ("lower", "higher"),
          "value": is_num,
          "samples?": lambda v: is_list(v) and all(map(is_num, v))}


class BadRecord(Exception):
    pass


def check(obj, fields, where):
    if not isinstance(obj, dict):
        raise BadRecord(f"{where}: not an object")
    unknown = set(obj) - {f.rstrip("?") for f in fields}
    if unknown:
        raise BadRecord(f"{where}: unknown fields {sorted(unknown)}")
    for field, ok in fields.items():
        name = field.rstrip("?")
        if (name in obj or name == field) and not ok(obj.get(name)):
            raise BadRecord(f"{where}: bad or missing {name!r}")


def key_of(rec):
    return (rec["bench"], rec["workload"], rec["metric"])


def check_entry(entry, where, in_trajectory):
    """A bench's own output has no label/git/date yet; a trajectory
    entry must."""
    head = HEAD if in_trajectory else {f + "?": ok for f, ok in HEAD.items()}
    check(entry, {**head, **ENTRY}, where)
    check(entry["machine"], MACHINE, f"{where}.machine")
    seen = set()
    for i, rec in enumerate(entry["records"]):
        check(rec, RECORD, f"{where}.records[{i}]")
        direction = GATED.get(rec["metric"], rec["better"])
        if rec["better"] != direction or (rec["metric"] in GATED
                                          and rec["value"] <= 0):
            raise BadRecord(f"{where}.records[{i}]: {rec['metric']} must "
                            f"be positive, {direction} is better")
        if key_of(rec) in seen:
            raise BadRecord(f"{where}: {key_of(rec)} recorded twice")
        seen.add(key_of(rec))
    reps = {key_of(r)[:2]: r["value"] for r in entry["records"]
            if r["metric"] == "reps"}
    for rec in entry["records"]:
        if len(rec.get("samples", [])) not in (0, reps.get(key_of(rec)[:2])):
            raise BadRecord(f"{where}: {rec['metric']} samples do not "
                            "match the reps record")


def load(path, trajectory=False):
    """The validated entries of a trajectory or of a single entry."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise BadRecord(f"{path}: {e}")
    if not (isinstance(doc, dict) and "entries" in doc) and not trajectory:
        check_entry(doc, path, False)
        return [doc]
    if (not isinstance(doc, dict) or set(doc) != {"schema", "entries"}
            or doc["schema"] != SCHEMA
            or not isinstance(doc["entries"], list)):
        raise BadRecord(f"{path}: not a {SCHEMA} trajectory")
    for i, entry in enumerate(doc["entries"]):
        check_entry(entry, f"{path}: entries[{i}]", True)
    return doc["entries"]


def cmd_validate(paths):
    for path in paths:
        print(f"{path}: {len(load(path))} valid entries")
    return 0


def cmd_gate(traj_path, new_paths):
    latest = {key_of(rec): (entry["label"], rec["value"])
              for entry in load(traj_path, True) for rec in entry["records"]}
    gated = [rec for path in new_paths for entry in load(path)
             for rec in entry["records"] if rec["metric"] in GATED]
    failures = [] if gated else [f"no {', '.join(GATED)} record in "
                                 + " ".join(new_paths)]
    for rec in gated:
        name = "/".join(key_of(rec))
        if key_of(rec) not in latest:
            failures.append(f"{name}: no reference record in {traj_path}")
            continue
        label, ref = latest[key_of(rec)]
        worse = (rec["value"] / ref if rec["better"] == "lower"
                 else ref / rec["value"])
        print(f"{name}: now {rec['value']:.4g}, trajectory '{label}' "
              f"{ref:.4g}, worse-ratio {worse:.2f} (limit {MAX_WORSE})")
        if worse > MAX_WORSE:
            failures.append(f"{name} is {worse:.2f}x worse than '{label}'")
    for failure in failures:
        print(f"bench_gate: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def git(root, *args):
    try:
        return subprocess.run(["git", "-C", root, *args], check=True,
                              capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return ""


def cmd_append(traj_path, new_path, label):
    entries = load(new_path)
    if len(entries) != 1 or set(HEAD) & set(entries[0]):
        raise BadRecord(f"{new_path}: not a fresh bench entry")
    entry = entries[0]
    root = os.path.dirname(os.path.abspath(traj_path))
    head = {"label": label,
            "git": git(root, "rev-parse", "--short", "HEAD").strip()
            or "unknown",
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if git(root, "status", "--porcelain"):
        head["dirty"] = True
    traj = {"schema": SCHEMA, "entries": load(traj_path, True)
            if os.path.exists(traj_path) else []}
    traj["entries"].append({**head, **entry})
    with open(traj_path, "w") as f:
        json.dump(traj, f, indent=2)
        f.write("\n")
    gated = ", ".join(f"{r['metric']} {r['value']:.4g}"
                      for r in entry["records"] if r["metric"] in GATED)
    print(f"bench_gate: appended '{label}' ({gated}) to {traj_path}")
    return 0


def main(argv):
    try:
        if len(argv) >= 2 and argv[0] == "validate":
            return cmd_validate(argv[1:])
        if len(argv) >= 3 and argv[0] == "gate":
            return cmd_gate(argv[1], argv[2:])
        if len(argv) == 4 and argv[0] == "append":
            return cmd_append(*argv[1:])
    except BadRecord as e:
        print(f"bench_gate: {e}", file=sys.stderr)
        return 1
    print("usage:\n" + __doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
