#!/usr/bin/env bash
# ThreadSanitizer leg of the concurrency audit: re-runs
# tests/concurrency_audit.rs (worker-pool batch races, StoreWriter
# error latch and drop ordering, double-buffer producer panics) with
# `-Zsanitizer=thread`.
#
# TSan requires a nightly toolchain plus `rust-src` (the standard
# library must be rebuilt instrumented via -Zbuild-std). Skips with
# notice (exit 0) when either is unavailable — e.g. in offline
# containers where `rustup component add` cannot download. CI treats
# the skip as green but prints the notice into the job log.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! command -v rustup >/dev/null 2>&1; then
    echo "tsan-stress: SKIPPED (rustup not installed)"
    exit 0
fi
if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "tsan-stress: SKIPPED (no nightly toolchain; run: rustup toolchain install nightly)"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null | grep -Eq '^rust-src.*\(installed\)'; then
    echo "tsan-stress: SKIPPED (rust-src not installed; run: rustup +nightly component add rust-src)"
    exit 0
fi

host="$(rustc -vV | sed -n 's/^host: //p')"
echo "tsan-stress: concurrency_audit under ThreadSanitizer (${host})"
RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -Zbuild-std --target "${host}" --test concurrency_audit
echo "tsan-stress: OK"
