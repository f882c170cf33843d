//! Factorials and binomial coefficients.
//!
//! The spherical-harmonic normalizations and Wigner 3-j symbols need
//! factorials of arguments up to `3·ℓmax + 1`. For Galactos' `ℓmax = 10`
//! this stays small; the log-space forms keep the Wigner code accurate
//! for larger multipoles, and the Legendre coefficients take exact
//! `u128` binomials.

/// Largest `n` with `n!` finite in `f64`.
pub const MAX_F64_FACTORIAL: usize = 170;

/// `n!` as `f64`; exact for `n <= 22` (fits in 53-bit mantissa region up
/// to 18!, and correctly rounded beyond), finite up to `n = 170`.
pub fn factorial(n: usize) -> f64 {
    assert!(n <= MAX_F64_FACTORIAL, "{n}! overflows f64");
    let mut acc = 1.0f64;
    for k in 2..=n {
        acc *= k as f64;
    }
    acc
}

/// `ln(n!)` computed by direct summation of logarithms.
///
/// Accurate to a few ulps for the argument ranges used here (n ≲ 200);
/// the Wigner 3-j evaluation sums and exponentiates these.
pub fn ln_factorial(n: usize) -> f64 {
    (2..=n).map(|k| (k as f64).ln()).sum()
}

/// Binomial coefficient exactly in `u128` (panics on overflow).
pub fn binomial_u128(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul((n - i) as u128).expect("binomial overflow") / (i as u128 + 1);
    }
    acc
}

/// A reusable table of `ln(n!)` values, the workhorse for Wigner symbols.
#[derive(Clone, Debug)]
pub struct LnFactorialTable {
    table: Vec<f64>,
}

impl LnFactorialTable {
    /// Build a table valid for arguments `0..=max_n`.
    pub fn new(max_n: usize) -> Self {
        let mut table = Vec::with_capacity(max_n + 1);
        let mut acc = 0.0f64;
        table.push(0.0); // 0! = 1
        for k in 1..=max_n {
            acc += (k as f64).ln();
            table.push(acc);
        }
        LnFactorialTable { table }
    }

    #[inline]
    pub fn get(&self, n: usize) -> f64 {
        self.table[n]
    }

    #[inline]
    pub fn max_n(&self) -> usize {
        self.table.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_factorials_exact() {
        let expected = [1u128, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880];
        for (n, &e) in expected.iter().enumerate() {
            assert_eq!(factorial(n), e as f64);
        }
        assert_eq!(factorial(20), 2_432_902_008_176_640_000u128 as f64);
    }

    #[test]
    fn ln_factorial_matches_direct() {
        for n in 0..60 {
            let direct = factorial(n).ln();
            assert!(
                (ln_factorial(n) - direct).abs() < 1e-10 * (1.0 + direct.abs()),
                "n={n}"
            );
        }
    }

    #[test]
    fn ln_factorial_table_consistent() {
        let t = LnFactorialTable::new(100);
        for n in 0..=100 {
            assert!((t.get(n) - ln_factorial(n)).abs() < 1e-9, "n={n}");
        }
        assert_eq!(t.max_n(), 100);
    }

    #[test]
    fn binomial_u128_exact_values() {
        assert_eq!(binomial_u128(60, 30), 118_264_581_564_861_424u128);
        assert_eq!(binomial_u128(20, 10), 184_756);
        // Pascal identity
        for n in 1..40u64 {
            for k in 1..n {
                assert_eq!(
                    binomial_u128(n, k),
                    binomial_u128(n - 1, k - 1) + binomial_u128(n - 1, k)
                );
            }
        }
    }
}
