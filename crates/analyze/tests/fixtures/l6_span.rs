//! Fixture for the `telemetry_span` lint. Not compiled — scanned by
//! crates/analyze/tests/lints.rs.

pub fn spmm_row(x: &[f32]) -> f32 {
    let _guard = ppgnn_telemetry::span("spmm_row");
    x.iter().sum()
}

pub fn gemm_in_place(x: &[f32]) -> f32 {
    let _guard = span_with("gemm", &[("n", x.len() as u64)]);
    x.iter().sum()
}

pub fn tile_body(x: &[f32]) -> f32 {
    // Counters stay legal inside inner kernels; only spans are banned.
    KERNEL_CALLS.add(1);
    x.iter().sum()
}

pub fn spmm_into(x: &[f32]) -> f32 {
    // Driver granularity: spans outside the forbidden list are fine.
    let _guard = ppgnn_telemetry::span("spmm");
    x.iter().sum()
}

pub fn gemm_dispatch(ev: &Event) -> usize {
    // A member named `span` is not a call — must not match.
    ev.span.line
}

// ppgnn-analyze: allow(telemetry_span) -- fixture fn-level escape hatch.
pub fn weighted_rows_into(x: &[f32]) -> f32 {
    let _guard = span("escaped");
    x.iter().sum()
}
