//! Fixture for the `stale_name` check. Not compiled — scanned by
//! crates/analyze/tests/lints.rs.

pub fn kernel_row(x: &[f32]) -> f32 {
    x.iter().sum()
}

pub fn pack_b_full(x: &mut [f32]) {
    x.fill(0.0);
}

impl Kernel {
    pub fn strip_wide(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    // Test scope: the name-listed lints never look here, so a list entry
    // naming only this fn is stale.
    fn oracle_row(x: &[f32]) -> f32 {
        x.iter().sum()
    }
}
