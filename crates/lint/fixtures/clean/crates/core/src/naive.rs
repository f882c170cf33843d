//! Must-not-fire cases for W-DEADPUB: a reference oracle named only by
//! tests, exempted with its class and its user; a `pub(crate)` helper
//! shipping code calls; an item that does not ship at all.

/// O(N) reference a parallel sum is compared against.
// lint:allow(W-DEADPUB): oracle for the parallel sum in tests/sums.rs
pub fn naive_sum(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, &x| acc + x)
}

pub(crate) fn halve(x: f64) -> f64 {
    x * 0.5
}

pub fn mean_of_two(a: f64, b: f64) -> f64 {
    halve(a) + halve(b)
}

#[cfg(test)]
pub fn only_built_for_tests() -> f64 {
    mean_of_two(1.0, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_agrees() {
        assert_eq!(naive_sum(&[1.0, 2.0]), 2.0 * only_built_for_tests() - 1.0);
    }
}
