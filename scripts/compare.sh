#!/usr/bin/env bash
# Paired benchmark comparison of two revisions.
#
#   scripts/compare.sh <rev-a> <rev-b> [--pairs N] [--seed S] [--workloads w,...]
#
# <rev-a> is the base (the parent), <rev-b> the change. Each revision is
# exported with `git archive` into .bench_build/<commit>/ (git-ignored) and
# its own benchmark/ is built there, so each side runs its own program
# from its own checkout. For every workload (default: all of
# BENCHMARK.json's) the script runs N pairs (default 10) at seed S
# (default 42) for BENCHMARK.json's run_seconds, untraced, alternating
# which side runs first. Run logs go to .bench_build/runs/<stamp>/.
#
# For each end-to-end metric of BENCHMARK.json it prints both medians,
# the base's p25-p75, the median of the paired ratios b/a with their
# min-max, and the pairs b won in the metric's `better` direction (ties
# count for neither). Then two verdicts:
#   claim  - `gain` when b won at least 9/10 of the pairs and the medians
#            differ by more than the base's p25-p75 distance, `loss` for
#            the mirror image, `n<10` when fewer than ten pairs ran (too
#            few to claim either), else `-`;
#   bound  - `ok` when b's median is no worse than a's by more than the
#            metric's bound, `WORSE` when it is, and `unresolved` when the
#            base's own p25-p75 spread is wider than the bound (unless
#            every run of b beats every run of a).
# It also says whether the printed `val_acc by epoch` series agree.
#
# Before each pair it runs the `host_probe` bin of ppgnn-bench, built from
# this checkout, and prints its covariates per pair beside the table:
# the GFLOP/s of a 4096x128x128 `nn` product and the ns per load of a
# 64 MB pointer chase. They say how fast the host was when the pair ran;
# they change no verdict.
#
# Exits non-zero if a build fails, or if any run reads `correct: false`
# or `failed > 0` (after finishing the table).
set -euo pipefail

usage() {
    echo "usage: scripts/compare.sh <rev-a> <rev-b> [--pairs N] [--seed S] [--workloads w,...]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev_a=$1
rev_b=$2
shift 2
pairs=10
seed=42
workloads=""
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=${2:?}; shift 2 ;;
        --seed) seed=${2:?}; shift 2 ;;
        --workloads) workloads=${2:?}; shift 2 ;;
        *) usage ;;
    esac
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

root=$(git rev-parse --show-toplevel)
cd "$root"
spec="$root/BENCHMARK.json"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
if [ -z "$workloads" ]; then
    workloads=$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
fi

# Exports and builds one revision; prints its checkout directory.
checkout() {
    local commit dir
    commit=$(git rev-parse --verify --quiet "$1^{commit}") || { echo "unknown revision: $1" >&2; exit 2; }
    dir="$root/.bench_build/${commit:0:12}"
    if [ ! -f "$dir/BENCHMARK.json" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$commit" | tar -x -C "$dir"
    fi
    echo "building $1 (${commit:0:12}) in ${dir#"$root"/}" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml" >&2
    echo "$dir"
}

dir_a=$(checkout "$rev_a")
dir_b=$(checkout "$rev_b")
echo "building host_probe in this checkout" >&2
probe="$root/target/release/host_probe"
cargo build --release --offline --quiet -p ppgnn-bench --bin host_probe >&2 ||
    { echo "host_probe did not build: no covariates" >&2; probe=""; }
runs="$root/.bench_build/runs/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$runs"
echo "runs: ${runs#"$root"/}  pairs $pairs  seed $seed  seconds $seconds" >&2

# One untraced run of side $1 (a|b) on workload $2, pair $3.
run() {
    local dir log
    if [ "$1" = a ]; then dir=$dir_a; else dir=$dir_b; fi
    log="$runs/$2-$3-$1.log"
    (cd "$dir" && ./benchmark/target/release/ppgnn-benchmark \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>&1 || true
    echo "  $2 pair $3 side $1: $(tail -n 1 "$log" | cut -c1-60)" >&2
}

# The host covariates before pair $2 of workload $1.
covariates() {
    local out="$runs/$1-$2-host.json"
    if [ -n "$probe" ]; then "$probe" >"$out" 2>/dev/null || rm -f "$out"; fi
    echo "  $1 pair $2 host: $(cat "$out" 2>/dev/null || echo -)" >&2
}

IFS=, read -r -a wl <<<"$workloads"
for w in "${wl[@]}"; do
    for ((p = 0; p < pairs; p++)); do
        covariates "$w" "$p"
        if ((p % 2 == 0)); then run a "$w" "$p"; run b "$w" "$p"; else run b "$w" "$p"; run a "$w" "$p"; fi
    done
done

python3 - "$spec" "$runs" "$pairs" "$rev_a" "$rev_b" "${wl[@]}" <<'EOF'
import json, statistics, sys

spec, runs, pairs, rev_a, rev_b, workloads = (
    json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5], sys.argv[6:])

def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def load(w, p, side):
    lines = open(f"{runs}/{w}-{p}-{side}.log").read().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "failed": -1, "metrics": {}}
    series = next((l for l in lines if l.startswith("val_acc by epoch")), None)
    return result, series

bad = []
print(f"# {rev_b} (b) against {rev_a} (a): {pairs} pairs per workload\n")
for w in workloads:
    res = {s: [load(w, p, s) for p in range(pairs)] for s in "ab"}
    for s in "ab":
        for p, (r, _) in enumerate(res[s]):
            if r.get("correct") is not True or r.get("failed", 1) != 0:
                bad.append(f"{w} pair {p} side {s}: correct {r.get('correct')} failed {r.get('failed')}")
    print(f"## {w}\n")
    print("| metric | median a | a p25-p75 | median b | ratio b/a (min-max) | b won | claim | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        pts = [(ra["metrics"].get(name, {}).get("value"), rb["metrics"].get(name, {}).get("value"))
               for (ra, _), (rb, _) in zip(res["a"], res["b"])]
        pts = [(x, y) for x, y in pts if x is not None and y is not None]
        if not pts:
            print(f"| {name} | - | - | - | - | - | - | missing |")
            continue
        a, b = [x for x, _ in pts], [y for _, y in pts]
        ma, mb = statistics.median(a), statistics.median(b)
        p25, p75 = quantile(a, 0.25), quantile(a, 0.75)
        ratios = [y / x for x, y in pts if x != 0]
        better = (lambda x, y: y > x) if higher else (lambda x, y: y < x)
        won = sum(better(x, y) for x, y in pts)
        lost = sum(better(y, x) for x, y in pts)
        iqr = p75 - p25
        claim = "-"
        if len(pts) < 10:
            claim = "n<10"
        elif abs(mb - ma) > iqr:
            if better(ma, mb) and won >= 0.9 * len(pts):
                claim = "gain"
            elif better(mb, ma) and lost >= 0.9 * len(pts):
                claim = "loss"
        worse = (ma - mb if higher else mb - ma) / abs(ma) if ma else 0.0
        all_better = all(better(x, y) for x in a for y in b)
        if ma and iqr / abs(ma) > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "WORSE" if worse > bound else "ok"
        ratio = (f"{statistics.median(ratios):.3f} ({min(ratios):.3f}-{max(ratios):.3f})"
                 if ratios else "-")
        print(f"| {name} | {ma:.6g} | {p25:.6g}-{p75:.6g} | {mb:.6g} | {ratio} | "
              f"{won}/{len(pts)} | {claim} | {verdict} |")
    series = {s: {v for _, v in res[s]} for s in "ab"}
    if None in series["a"] | series["b"]:
        note = "not printed by every run"
    elif series["a"] == series["b"] and len(series["a"]) == 1:
        note = "identical on every run"
    else:
        note = "DIFFERS between runs"
    print(f"\nval_acc by epoch: {note}\n")
    hosts = []
    for p in range(pairs):
        try:
            hosts.append(json.load(open(f"{runs}/{w}-{p}-host.json")))
        except (OSError, ValueError):
            hosts.append({})
    keys = [("gemm_nn_gflops", "GEMM nn GFLOP/s"), ("chase_ns_per_load", "chase ns/load")]
    rate = "train_rows_per_s"
    print("host covariates before each pair (`host_probe`; no verdict uses them):\n")
    print("| pair | " + " | ".join(label for _, label in keys) + f" | {rate} b/a |")
    print("|---" * (len(keys) + 2) + "|")
    for p, h in enumerate(hosts):
        ra, rb = (res[s][p][0]["metrics"].get(rate, {}).get("value") for s in "ab")
        ratio = f"{rb / ra:.3f}" if ra and rb is not None else "-"
        cells = [f"{h[k]:.1f}" if k in h else "-" for k, _ in keys]
        print(f"| {p} | " + " | ".join(cells) + f" | {ratio} |")
    cells = []
    for k, _ in keys:
        xs = [h[k] for h in hosts if k in h]
        cells.append(f"{statistics.median(xs):.1f} ({min(xs):.1f}-{max(xs):.1f})" if xs else "-")
    print("| median (min-max) | " + " | ".join(cells) + " | |\n")
if bad:
    print("FAILED runs:")
    for b in bad:
        print(f"  {b}")
    sys.exit(1)
EOF
