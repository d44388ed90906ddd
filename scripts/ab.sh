#!/bin/sh
# Parent-vs-change A/B over the frozen benchmark — the ROADMAP ground rule
# every perf PR has to meet: both sides built from source with the same
# settings, runs alternating (which side goes first flips every pair), all
# four workloads unless told otherwise, every result line checked for
# `"correct": true, "failed": 0`.
#
# Usage: scripts/ab.sh <parent-rev> [--pairs N] [--seconds S] [--seed N]
#                      [--workloads "w1 w2 ..."] [--trace]
#
# The parent is `git archive <parent-rev>` unpacked under /.bench_build/ (no
# worktree is registered, nothing to prune); the change is the working tree
# as it stands, committed or not. Prints, per workload x end-to-end metric:
# both medians and quartiles, change/parent, and the pairs the change won
# (ties count for neither). Under it, per workload, each side's median of
# the harness's own whole-rep figure (the median X of each run's
# `events_per_s.reps ... median X` line) and the pairs won: the headline
# `events_per_s` adds up each step's fastest time, so a step that returns
# before its work is done inflates it, and the whole reps show that. With
# --trace, the runs are traced (`--trace 1`, same alternating order) and the
# table is per workload x `per_layer` metric of BENCHMARK.json instead. The
# raw result lines stay in .bench_build/ab/<workload>.<side>[.trace].jsonl,
# the whole-rep medians in .bench_build/ab/<workload>.<side>.reps, traced
# runs' spans in .bench_build/ab/out/. Touches nothing under benchmark/.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,20p' "$0"; exit 2; }
rev=$1; shift
pairs=10 seconds=30 seed=13 workloads="catalog-256 catalog-4k pair-256 mixed-apps" trace=0
while [ $# -gt 0 ]; do
    case $1 in
        --trace) trace=1; shift; continue ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        --workloads) workloads=$2 ;;
        *) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

build=$PWD/.bench_build
sha=$(git rev-parse --short "$rev^{commit}")
src=$build/src-$sha
if [ ! -d "$src" ]; then
    mkdir -p "$src"
    git archive "$sha" | tar -x -C "$src"
fi
echo "building parent $sha and the working tree..." >&2
CARGO_TARGET_DIR=$build/parent-$sha cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$build/change cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
parent_bin=$build/parent-$sha/release/swmon-benchmark
change_bin=$build/change/release/swmon-benchmark

out=$build/ab
kind=$([ "$trace" -eq 1 ] && echo .trace || true)
mkdir -p "$out"
# One run: append the result line to the side's log and the whole-rep
# median (untraced runs print one) to its .reps file, fail loudly unless the
# result is a clean one. Run from $out, so a traced run writes its spans to
# $out/out/ rather than benchmark/out/.
run() { # side binary workload
    full=$(cd "$out" && "$2" --workload "$3" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        2>/dev/null)
    line=$(printf '%s\n' "$full" | tail -n 1)
    case $line in
        '{"correct": true,'*'"failed": 0,'*) echo "$line" >>"$out/$3.$1$kind.jsonl" ;;
        *) echo "ab.sh: $1 run of $3 was not clean: $line" >&2; exit 1 ;;
    esac
    printf '%s\n' "$full" | sed -n 's/^events_per_s\.reps .*median \([0-9.]*\),.*/\1/p' \
        >>"$out/$3.$1$kind.reps"
}
for w in $workloads; do
    for side in parent change; do
        : >"$out/$w.$side$kind.jsonl"
        : >"$out/$w.$side$kind.reps"
    done
    i=0
    while [ "$i" -lt "$pairs" ]; do
        echo "$w: pair $((i + 1))/$pairs" >&2
        if [ $((i % 2)) -eq 0 ]; then
            run parent "$parent_bin" "$w"; run change "$change_bin" "$w"
        else
            run change "$change_bin" "$w"; run parent "$parent_bin" "$w"
        fi
        i=$((i + 1))
    done
done

python3 - "$out" "$sha" "$seed" "$seconds" "$kind" $workloads <<'EOF'
import json, statistics, sys

out, sha, seed, seconds, kind, *workloads = sys.argv[1:]
section = "per_layer" if kind else "end_to_end"
better = {m["name"]: m["better"] for m in json.load(open("BENCHMARK.json"))[section]}

def runs(workload, side):
    with open(f"{out}/{workload}.{side}{kind}.jsonl") as f:
        return [{k: v["value"] for k, v in json.loads(line)["metrics"].items()} for line in f]

def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return med, q1, q3

width = max(map(len, better))
print(f"parent {sha} vs working tree, seed {seed}, {seconds} s per run, {section} metrics")
print(f"{'workload':<12} {'metric':<{width}} {'parent med [q1, q3]':>32} {'change med [q1, q3]':>32} {'ratio':>6} {'won':>6}")
for w in workloads:
    parent, change = runs(w, "parent"), runs(w, "change")
    for name, direction in better.items():
        p, c = [r[name] for r in parent], [r[name] for r in change]
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        (pm, p1, p3), (cm, c1, c3) = summary(p), summary(c)
        cell = lambda m, a, b: f"{m:.6g} [{a:.6g}, {b:.6g}]"
        ratio = cm / pm if pm else float("nan")
        print(f"{w:<12} {name:<{width}} {cell(pm, p1, p3):>32} {cell(cm, c1, c3):>32} {ratio:>6.3f} {won:>3}-{lost:<2}")

def reps(workload, side):
    with open(f"{out}/{workload}.{side}{kind}.reps") as f:
        return [float(x) for x in f.read().split()]

rows = [(w, reps(w, "parent"), reps(w, "change")) for w in workloads]
if any(p and c for _, p, c in rows):
    print()
    print("whole reps: each run's `events_per_s.reps` median (events/s, higher is better)")
    print(f"{'workload':<12} {'parent median':>14} {'change median':>14} {'ratio':>6} {'won':>6}")
    for w, p, c in rows:
        if p and c:
            won = sum(b > a for a, b in zip(p, c))
            lost = sum(b < a for a, b in zip(p, c))
            pm, cm = statistics.median(p), statistics.median(c)
            print(f"{w:<12} {pm:>14.0f} {cm:>14.0f} {cm / pm:>6.3f} {won:>3}-{lost:<2}")
EOF
