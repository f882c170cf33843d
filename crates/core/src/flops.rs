//! FLOP accounting — reproduces the paper's §3.3.2 / §5.1 arithmetic.
//!
//! The paper's numbers at `ℓmax = 10`:
//! * 286 monomials per (pair, bin);
//! * 2 FLOPs per monomial per pair → 572 ≈ 576 FLOPs/pair in the
//!   multipole kernel;
//! * ~37 FLOPs/pair in the k-d tree search → ~609 FLOPs/pair total;
//! * flop/byte ratio `286·2·k / ((3k + 286·2)·8)` → 9.6 at bucket
//!   `k = 128`, asymptote 23.8;
//! * 8.17×10¹⁵ pairs for the full 1.951×10⁹-galaxy run.

use galactos_math::monomial::monomial_count;

/// FLOPs per pair spent in the multipole kernel at a given `ℓmax`
/// (1 multiply + 1 add per monomial).
pub fn kernel_flops_per_pair(lmax: usize) -> u64 {
    2 * monomial_count(lmax) as u64
}

/// Arithmetic intensity (FLOPs per byte) of the multipole kernel for
/// bucket size `k` at `ℓmax`: reads `3k` coordinates, writes/reads the
/// `nmono` 8-lane outputs once per bucket (§3.3.2).
pub fn arithmetic_intensity(bucket_size: usize, lmax: usize) -> f64 {
    let nmono = monomial_count(lmax) as f64;
    let k = bucket_size as f64;
    (nmono * 2.0 * k) / ((3.0 * k + nmono * 2.0) * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_at_lmax_10() {
        assert_eq!(kernel_flops_per_pair(10), 572);
        // flop/byte at the paper's bucket size:
        let ai = arithmetic_intensity(128, 10);
        assert!((ai - 9.6).abs() < 0.1, "arithmetic intensity {ai}");
        // small-k limit ~1/8, large-k limit ~23.8:
        assert!((arithmetic_intensity(1, 10) - 0.125).abs() < 0.05);
        assert!((arithmetic_intensity(1_000_000, 10) - 23.83).abs() < 0.1);
    }

    #[test]
    fn full_system_flop_estimate_matches_paper() {
        // 8.17e15 pairs × 609 FLOPs / 982.4 s ≈ 5.06 PF (mixed precision).
        let pairs = 8.17e15f64;
        let pflops = pairs * 609.0 / 982.4 / 1e15;
        assert!((pflops - 5.06).abs() < 0.05, "{pflops} PF");
        // …and in double precision 1070.6 s ≈ 4.65 PF.
        let pflops_d = pairs * 609.0 / 1070.6 / 1e15;
        assert!((pflops_d - 4.65).abs() < 0.05, "{pflops_d} PF");
    }
}
