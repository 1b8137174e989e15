#!/usr/bin/env python3
"""Fails (exit 1) when a fresh BENCH_gemm.json regresses >20% against the
committed baseline.

Usage: check_gemm_regression.py <fresh.json> <baseline.json>

The gated quantities are the packed-vs-reference *speedup* ratios
(speedup_matmul, speedup_matmul_tn, speedup_matmul_nt): both sides of
each ratio are measured in the same process on the same machine, so a
CI runner slower than the machine that produced the committed baseline
doesn't fail the job, but a kernel edit that erodes the packed kernels'
advantage does (losing the packed path entirely is a 2-13x ratio drop,
far past any tolerance here). The ratios still shift somewhat with the
*shape* of a runner's cache hierarchy — speedup_matmul_nt especially,
since its reference kernel is dominated by a k-strided cache pathology
whose cost varies across prefetchers — so nt gets a wider band than the
20% the nn/tn ratios use. Absolute GFLOP/s and SpMM rows/s are printed
as context only. Improvements never fail.
"""

import json
import sys

# field -> allowed fractional drop below the committed baseline. A gated
# field absent from the *baseline* (an artifact from before that field
# existed) is skipped, so the gate stays compatible with old baselines;
# absent from the *fresh* artifact it fails (the bench regressed).
GATED_FIELDS = {
    "speedup_matmul": 0.20,
    "speedup_matmul_tn": 0.20,
    "speedup_matmul_nt": 0.50,
}
INFO_FIELDS = ["gflops_matmul", "gflops_matmul_tn", "gflops_matmul_nt", "spmm_rows_per_s"]
# Per-backend throughput and the autotuner's pick: informational — they
# track runner hardware, not code quality.
INFO_PREFIXES = ("gflops_kernel_",)
TUNED_FIELDS = ["tuned_kernel", "tuned_kc", "tuned_nc", "tuned_gflops"]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    failed = False
    for field, tolerance in GATED_FIELDS.items():
        if field not in baseline:
            print(f"SKIP {field}: not in baseline (pre-{field} schema)")
            continue
        if field not in fresh:
            print(f"FAIL {field}: missing from fresh artifact")
            failed = True
            continue
        base = float(baseline[field])
        now = float(fresh[field])
        floor = base * (1.0 - tolerance)
        status = "OK " if now >= floor else "FAIL"
        if now < floor:
            failed = True
        print(f"{status} {field}: {now:.2f}x vs baseline {base:.2f}x (floor {floor:.2f}x)")

    for field in INFO_FIELDS:
        value = fresh.get(field)
        if value is not None:
            print(f"INFO {field}: {float(value):.2f}")
    for field in sorted(fresh):
        if field.startswith(INFO_PREFIXES):
            print(f"INFO {field}: {float(fresh[field]):.2f}")
    tuned = [f"{f.removeprefix('tuned_')}={fresh[f]}" for f in TUNED_FIELDS if f in fresh]
    if tuned:
        print(f"INFO tuned profile: {' '.join(tuned)}")
    if failed:
        print("Packed-kernel speedup regressed against the committed baseline.")
        print("If intentional, update BENCH_gemm.json or apply the 'skip-gemm-gate' label.")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
