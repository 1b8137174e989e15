use ppgnn_tensor::pool::{row_blocked, BlockOut};
use ppgnn_tensor::Matrix;

/// Softmax cross-entropy over class logits.
///
/// The combined loss-and-gradient form is used everywhere (the separate
/// softmax is never materialized in training), matching
/// `torch.nn.CrossEntropyLoss` semantics with mean reduction.
///
/// The gradient rows — softmax, `−1` at the label, `/b` — are one
/// row-blocked pass ([`ppgnn_tensor::pool::row_blocked`]) that also leaves
/// each row's label probability behind; the loss sums their logarithms in
/// row order on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss;

/// One row: its softmax, minus one at `label`, times `scale`, into `row`;
/// returns the label's softmax probability.
fn softmax_ce_row(row: &mut [f32], label: usize, scale: f32) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
    let p = row[label];
    row[label] = p - 1.0;
    for v in row.iter_mut() {
        *v *= scale;
    }
    p
}

impl CrossEntropyLoss {
    /// Computes the mean cross-entropy loss and its gradient with respect to
    /// the logits.
    ///
    /// Returns `(loss, grad)` where `grad = (softmax(logits) − onehot) / b`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()`, a label is out of range,
    /// or `logits` is empty.
    pub fn loss_and_grad(&self, logits: &Matrix, labels: &[u32]) -> (f32, Matrix) {
        assert_eq!(
            labels.len(),
            logits.rows(),
            "one label per logit row required"
        );
        assert!(!logits.is_empty(), "cross-entropy of an empty batch");
        let (b, c) = logits.shape();
        if let Some(&y) = labels.iter().find(|&&y| y as usize >= c) {
            panic!("label {y} out of range for {c} classes");
        }
        let mut grad = logits.clone();
        let mut picked = vec![0.0f32; b];
        let scale = 1.0 / b as f32;
        let outs = [
            BlockOut::rows(grad.as_mut_slice(), c),
            BlockOut::rows(&mut picked, 1),
        ];
        row_blocked(b, 4 * b * c, outs, |_, row0, [rows, picked]| {
            let labels = &labels[row0..];
            for ((row, p), &y) in rows.chunks_exact_mut(c).zip(picked).zip(labels) {
                *p = softmax_ce_row(row, y as usize, scale);
            }
        });
        let mut loss = 0.0f64;
        for p in picked {
            loss -= (p.max(1e-12) as f64).ln();
        }
        ((loss / b as f64) as f32, grad)
    }

    /// Loss only (validation loops).
    ///
    /// # Panics
    ///
    /// Same conditions as [`CrossEntropyLoss::loss_and_grad`].
    pub fn loss(&self, logits: &Matrix, labels: &[u32]) -> f32 {
        self.loss_and_grad(logits, labels).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Matrix::zeros(4, 8);
        let labels = [0u32, 1, 2, 3];
        let (loss, _) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_small_loss() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 2, 20.0);
        let (loss, _) = CrossEntropyLoss.loss_and_grad(&logits, &[2]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, -1.0]]);
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &[0, 1]);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -0.8, 1.2]]);
        let labels = [1u32];
        let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels);
        let eps = 1e-3;
        for k in 0..3 {
            let mut plus = logits.clone();
            plus.set(0, k, plus.get(0, k) + eps);
            let mut minus = logits.clone();
            minus.set(0, k, minus.get(0, k) - eps);
            let num = (CrossEntropyLoss.loss(&plus, &labels)
                - CrossEntropyLoss.loss(&minus, &labels))
                / (2.0 * eps);
            assert!(
                (num - grad.get(0, k)).abs() < 1e-3,
                "k={k}: numeric {num} vs analytic {}",
                grad.get(0, k)
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        CrossEntropyLoss.loss_and_grad(&Matrix::zeros(1, 2), &[5]);
    }
}
