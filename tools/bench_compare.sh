#!/usr/bin/env bash
# Interleaved same-host A/B of two commits on the benchmark of record.
#
# Usage: tools/bench_compare.sh BASE HEAD WORKLOAD [PAIRS] [SECONDS] [FIRST_SEED]
#
#   BASE, HEAD  commits to compare (any git revision)
#   WORKLOAD    a perfbench workload, e.g. sweep-shared
#   PAIRS       alternating run pairs (default 10)
#   SECONDS     length of each run (default 45, BENCHMARK.json's)
#   FIRST_SEED  seed of pair 1; pair i runs seed FIRST_SEED + i - 1
#               (default 1)
#
# Run from inside a qmh git checkout. Each commit is checked out into
# its own detached `git worktree` under a temporary directory and
# perfbench is built there into its own CARGO_TARGET_DIR. The pairs
# then run `perfbench/run.py --trace 0` on both builds, the same seed
# for both sides of a pair and the order swapped every pair, so a
# drift of the host hits both sides alike. Every run's result line is
# printed; the summary gives, for each end-to-end metric of HEAD's
# BENCHMARK.json, both medians and quartiles, the change of the
# median, HEAD's win count over the pairs and whether the change of
# the median exceeds BASE's interquartile range.
#
# Report-only: it changes nothing in the checkout (the worktrees and
# builds live under $TMPDIR and are removed on exit) and its exit
# status says only whether every run completed.

set -euo pipefail

usage() {
    echo "usage: $0 BASE HEAD WORKLOAD [PAIRS] [SECONDS] [FIRST_SEED]" >&2
    exit 2
}

[ $# -ge 3 ] && [ $# -le 6 ] || usage
workload=$3
pairs=${4:-10}
seconds=${5:-45}
first_seed=${6:-1}
case $pairs$first_seed in *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify "$2^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_compare.XXXXXX")
cleanup() {
    for side in base head; do
        if [ -d "$work/$side" ]; then
            git worktree remove --force "$work/$side" || true
        fi
    done
    rm -rf "$work"
}
trap cleanup EXIT

jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -le 4 ] || jobs=4
declare -A rev=([base]=$base [head]=$head)
for side in base head; do
    git worktree add --quiet --detach "$work/$side" "${rev[$side]}"
    echo "== building $side (${rev[$side]})" >&2
    cmake -S "$work/$side/perfbench" -B "$work/$side-build" \
          -DCMAKE_BUILD_TYPE=Release >&2
    cmake --build "$work/$side-build" -j "$jobs" \
          --target qmh_perfbench >&2
done

# One run, printed as its rows_digest and its result (the last line
# of perfbench's standard output).
run() {
    local side=$1 seed=$2 out=$work/$1-$2
    (cd "$work/$side" &&
     CARGO_TARGET_DIR="$work/$side-build" python3 perfbench/run.py \
         --workload "$workload" --seed "$seed" --seconds "$seconds" \
         --trace 0 > "$out.out" 2>/dev/null) || true
    tail -n 1 "$out.out" > "$out.json"
    echo "$side seed=$seed $(grep -m 1 '^rows_digest' "$out.out" || true)"
    echo "  $(cat "$out.json")"
}

for ((i = 0; i < pairs; ++i)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run base "$seed"
        run head "$seed"
    else
        run head "$seed"
        run base "$seed"
    fi
done

python3 - "$work" "$workload" "$pairs" "$first_seed" "$base" "$head" <<'EOF'
import json
import os
import statistics
import sys

work, workload, pairs, first_seed, base, head = sys.argv[1:]
seeds = range(int(first_seed), int(first_seed) + int(pairs))
with open(os.path.join(work, "head", "BENCHMARK.json")) as handle:
    metrics = json.load(handle)["end_to_end"]


def load(side, seed):
    path = os.path.join(work, "%s-%d.json" % (side, seed))
    try:
        with open(path) as handle:
            return json.loads(handle.read())
    except (OSError, ValueError):
        return None


runs = {side: [load(side, seed) for seed in seeds]
        for side in ("base", "head")}
complete = all(r is not None for side in runs.values() for r in side)
print("\n%s: base %s vs head %s, %s pair(s), seeds %d-%d"
      % (workload, base[:12], head[:12], pairs, seeds[0], seeds[-1]))
for side in ("base", "head"):
    good = [r for r in runs[side] if r is not None]
    print("  %s: %d/%d run(s) completed, %d correct, %d failed "
          "operation(s)"
          % (side, len(good), len(runs[side]),
             sum(1 for r in good if r.get("correct")),
             sum(r.get("failed", 0) for r in good)))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


header = ("metric", "base q1", "base p50", "base q3", "head q1",
          "head p50", "head q3", "change", "wins", "> base IQR")
rows = []
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs_seen = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                  for b, h in zip(runs["base"], runs["head"])
                  if b and h and name in b.get("metrics", {})
                  and name in h.get("metrics", {})]
    if not pairs_seen:
        rows.append((name,) + ("-",) * 9)
        continue
    b_vals = [b for b, _ in pairs_seen]
    h_vals = [h for _, h in pairs_seen]
    bq1, bmed, bq3 = quartiles(b_vals)
    hq1, hmed, hq3 = quartiles(h_vals)
    wins = sum(1 for b, h in pairs_seen if (h < b if lower else h > b))
    change = (hmed - bmed) / bmed * 100 if bmed else float("nan")
    rows.append((name, "%.6g" % bq1, "%.6g" % bmed, "%.6g" % bq3,
                 "%.6g" % hq1, "%.6g" % hmed, "%.6g" % hq3,
                 "%+.1f%%" % change, "%d/%d" % (wins, len(pairs_seen)),
                 "yes" if abs(hmed - bmed) > bq3 - bq1 else "no"))
widths = [max(len(str(row[i])) for row in rows + [header])
          for i in range(len(header))]
for row in [header] + rows:
    print("  " + "  ".join(str(cell).rjust(width)
                           for cell, width in zip(row, widths)))
sys.exit(0 if complete else 1)
EOF
