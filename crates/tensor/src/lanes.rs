//! Lane-blocked reductions for the token-level passes (attention scores,
//! LayerNorm statistics, gated-readout scores).
//!
//! A plain `iter().sum()` is one serial dependency chain — float addition
//! does not reassociate, so the compiler may not vectorise it. These
//! reductions keep [`LANES`] independent partial sums (element `i` goes to
//! lane `i % LANES`), which the compiler turns into SIMD adds, and fold the
//! lanes in one fixed tree at the end. The association is a function of
//! the slice length alone — no FMA, no dependence on the ISA the build
//! targets or on how the caller's rows are split across threads — so a
//! result is the same bits everywhere.

/// Independent partial sums per reduction.
pub const LANES: usize = 8;

#[inline(always)]
fn fold(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// `Σ x[i]`.
#[inline]
pub fn sum(x: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let chunks = x.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    for (a, &v) in acc.iter_mut().zip(tail) {
        *a += v;
    }
    fold(acc)
}

/// `Σ a[i] · b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operands differ in length");
    let mut acc = [0.0f32; LANES];
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (ta, tb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        for ((s, &u), &v) in acc.iter_mut().zip(x).zip(y) {
            *s += u * v;
        }
    }
    for ((s, &u), &v) in acc.iter_mut().zip(ta).zip(tb) {
        *s += u * v;
    }
    fold(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_match_serial_sums_at_every_tail_length() {
        for n in 0..=3 * LANES + 1 {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.71).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 1.3).cos()).collect();
            let s: f32 = a.iter().sum();
            let d: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((sum(&a) - s).abs() < 1e-5, "sum, n = {n}");
            assert!((dot(&a, &b) - d).abs() < 1e-5, "dot, n = {n}");
        }
    }

    #[test]
    fn lane_assignment_is_index_mod_lanes() {
        // 1e8 swamps 1.0 in one f32 chain; in separate lanes both survive.
        let mut x = [0.0f32; 2 * LANES];
        x[0] = 1e8;
        x[1] = 1.0;
        x[LANES] = -1e8;
        assert_eq!(sum(&x), 1.0);
    }
}
