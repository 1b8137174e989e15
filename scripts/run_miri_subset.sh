#!/usr/bin/env bash
# Curated Miri pass over the unsafe-bearing units: the worker pool's
# lifetime-erased job queue, the packed-GEMM kernels' slice math and the
# SpMM row kernel's bounds checks
# (ppgnn-tensor is the only crate with unsafe code).
#
# Interpretation is orders of magnitude slower than native execution, so
# this runs a subset, not the workspace: the pool, gemm and gather unit
# tests of ppgnn-tensor. Heavy tests are excluded with `#[cfg_attr(miri, ignore)]`
# at the test site.
#
# Skips with notice (exit 0) when the nightly toolchain or the miri
# component is unavailable — e.g. in offline containers where
# `rustup component add` cannot download. CI treats the skip as green
# but prints the notice into the job log.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v rustup >/dev/null 2>&1; then
    echo "miri-subset: SKIPPED (rustup not installed)"
    exit 0
fi
if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "miri-subset: SKIPPED (no nightly toolchain; run: rustup toolchain install nightly)"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null | grep -Eq '^miri.*\(installed\)'; then
    echo "miri-subset: SKIPPED (miri not installed; run: rustup +nightly component add miri rust-src)"
    exit 0
fi

# Keep the interpreted pool small and the run deterministic.
export PPGNN_NUM_THREADS="${PPGNN_NUM_THREADS:-2}"
export MIRIFLAGS="${MIRIFLAGS:--Zmiri-disable-isolation}"

echo "miri-subset: pool + gemm + gather unit tests of ppgnn-tensor"
cargo +nightly miri test -p ppgnn-tensor --lib pool
cargo +nightly miri test -p ppgnn-tensor --lib gemm
cargo +nightly miri test -p ppgnn-tensor --lib gather
echo "miri-subset: OK"
