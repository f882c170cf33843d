//! Must-fire: W-DEADPUB twice, plus W-ALLOW. `orphan_total` is named
//! only by its own unit test, which is inside its crate; `orphan_scale`
//! is named outside by a test alone and carries an exemption that names
//! no class, which is reported and stays inert.

pub fn orphan_total(xs: &[u64]) -> u64 {
    xs.iter().sum()
}

// lint:allow(W-DEADPUB): might be handy later
pub fn orphan_scale(x: u64) -> u64 {
    x * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        assert_eq!(orphan_total(&[1, 2]), 3);
    }
}
