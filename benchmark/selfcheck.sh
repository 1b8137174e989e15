#!/usr/bin/env bash
# Does the benchmark repeat? Run from anywhere inside the repository.
#
#   benchmark/selfcheck.sh            three back-to-back full runs (every workload, untraced), seed 42.
#                                     Fails if max / min of a timing metric's three values exceeds 1.06,
#                                     if peak_rss_mb spreads by more than 3 %, or if an exact metric
#                                     (test_acc, store_bytes, trainer.epochs_to_acc) differs.
#   benchmark/selfcheck.sh seeds [n]  the acceptance procedure: n (default 10) runs per workload, each
#                                     with another seed. Fails if the interquartile range of an
#                                     end-to-end metric over its median exceeds the metric's bound in
#                                     BENCHMARK.json (setup_s is reported but not gated), and marks
#                                     every spread over a third of its bound.
#
# Prints the table of spreads; exits non-zero when a spread is over its limit or a run fails.
set -euo pipefail
cd "$(dirname "$0")/.."
mode="${1:-repeat}"
runs="${2:-$([ "$mode" = seeds ] && echo 10 || echo 3)}"
out=benchmark/out/selfcheck
rm -rf "$out" && mkdir -p "$out"
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for i in $(seq 1 "$runs"); do
  seed=42
  [ "$mode" = seeds ] && seed=$((100 + i))
  for w in "${workloads[@]}"; do
    echo "run $i/$runs  $w  seed $seed" >&2
    "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w.$i.txt" ||
      echo "run $i of $w (seed $seed) exited non-zero" >&2
  done
done

python3 - "$mode" "$out" <<'EOF'
import glob, json, re, statistics, sys
mode, out = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
TIMING = {"setup_s", "preprocess_s", "train_rows_per_s", "epoch_s", "time_to_acc_s"}
bad = False
print(f"{'workload':<14} {'metric':<22} {'median':>14} {'spread':>8} {'limit':>7}")
for w in (w["name"] for w in spec["workloads"]):
    texts = [open(f).read() for f in sorted(glob.glob(f"{out}/{w}.*.txt"))]
    results = [json.loads(t.strip().splitlines()[-1]) for t in texts]
    if not all(r["correct"] and r["failed"] == 0 for r in results):
        print(f"{w}: a run reported failed operations"); bad = True
    rows = [(m["name"], m["bound"], [r["metrics"][m["name"]]["value"] for r in results]) for m in spec["end_to_end"]]
    if mode == "repeat":
        to_acc = [float(re.search(r"^trainer.epochs_to_acc = ([\d.]+)", t, re.M).group(1)) for t in texts]
        rows.append(("trainer.epochs_to_acc", 0.0, to_acc))
    for name, bound, values in rows:
        median = statistics.median(values)
        if mode == "seeds":
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread, limit, gated = (q3 - q1) / median, bound, name != "setup_s"
            note = "" if spread <= bound / 3 or not gated else "  (over a third of the bound)"
        else:
            spread, gated, note = max(values) / min(values) - 1, True, ""
            limit = 0.06 if name in TIMING else 0.03 if name == "peak_rss_mb" else 0.0
        over = gated and spread > limit
        bad |= over
        print(f"{w:<14} {name:<22} {median:>14.6g} {spread:>8.2%} {limit:>7.0%}{'  OVER' if over else note}")
sys.exit(1 if bad else 0)
EOF
