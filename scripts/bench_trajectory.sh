#!/usr/bin/env bash
# Append one benchmark measurement to the checked-in benchmark
# trajectory (BENCH_simulator.json at the repository root).
#
# The trajectory records perf PR over PR, on whatever machine ran it:
# every entry carries a machine fingerprint and machine-normalized
# metrics (wall clock or throughput divided by / multiplied by a
# fixed-work calibration loop timed in the same process), so entries
# from different machines compare ratio-to-ratio. The bench writes the
# entry (bench::writeEntry); scripts/bench_gate.py appends it, and CI's
# perf-smoke job gates fresh entries against it with the same script.
#
# Entries record the exact commit they measured: the script refuses to
# run on a dirty tree (an entry stamped with a HEAD that does not
# contain the measured code is untraceable) unless
# SPARCH_BENCH_ALLOW_DIRTY=1 is set, in which case the entry is
# annotated with "dirty": true.
#
# usage: scripts/bench_trajectory.sh <label> [build-dir] [bench]
#   label      trajectory entry label, e.g. "PR7-post"
#   build-dir  CMake build dir containing the bench binaries
#              (default: build)
#   bench      hotpath (default) | surrogate | io
# env: SPARCH_BENCH_NNZ (default 60000), SPARCH_BENCH_REPS (default 3),
#      SPARCH_BENCH_SURROGATE_POINTS (default 100000),
#      SPARCH_BENCH_IO_NNZ (default 2000000),
#      SPARCH_BENCH_ALLOW_DIRTY=1 to append from a dirty tree

set -euo pipefail

label="${1:?usage: bench_trajectory.sh <label> [build-dir] [bench]}"
build="${2:-build}"
which_bench="${3:-hotpath}"
root="$(cd "$(dirname "$0")/.." && pwd)"
bench="$root/$build/bench/bench_$which_bench"

if [ ! -x "$bench" ]; then
    echo "bench_trajectory: $bench is not built" \
         "(cmake --build $build --target bench_$which_bench;" \
         "bench is hotpath, surrogate or io)" >&2
    exit 1
fi

if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
    if [ "${SPARCH_BENCH_ALLOW_DIRTY:-0}" != "1" ]; then
        echo "bench_trajectory: working tree is dirty; commit first" \
             "so the entry's git field names the measured code, or" \
             "set SPARCH_BENCH_ALLOW_DIRTY=1 to append an entry" \
             "annotated \"dirty\": true" >&2
        exit 1
    fi
    echo "bench_trajectory: WARNING: appending from a dirty tree;" \
         "entry will be annotated \"dirty\": true" >&2
fi

entry="$(mktemp)"
trap 'rm -f "$entry"' EXIT

SPARCH_BENCH_NNZ="${SPARCH_BENCH_NNZ:-60000}" \
SPARCH_BENCH_REPS="${SPARCH_BENCH_REPS:-3}" \
SPARCH_BENCH_IO_NNZ="${SPARCH_BENCH_IO_NNZ:-2000000}" \
SPARCH_BENCH_JSON="$entry" "$bench"

python3 "$root/scripts/bench_gate.py" append \
    "$root/BENCH_simulator.json" "$entry" "$label"
