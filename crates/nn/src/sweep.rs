//! The element-wise layers' one entry to the row-block splitter.

use ppgnn_tensor::pool::{row_blocked, BlockOut};

/// Runs `body(at, pieces)` over the fixed row blocks
/// ([`ppgnn_tensor::pool::row_blocked`]) of `N` row-major outputs of
/// `rows × width` values each, where `at` is the offset of the block's
/// first value — the same offset into any input of that shape. The pass
/// fans out to the pool once it streams more than the shared threshold's
/// worth of `values` (read plus written); since a block's values depend on
/// that block alone, the result is the same at every pool width.
pub(crate) fn sweep<const N: usize>(
    rows: usize,
    width: usize,
    values: usize,
    outs: [&mut [f32]; N],
    body: impl Fn(usize, [&mut [f32]; N]) + Sync,
) {
    let outs = outs.map(|out| BlockOut::rows(out, width));
    row_blocked(rows, values, outs, |_, row0, pieces| {
        body(row0 * width, pieces)
    });
}
