//! Wigner 3-j symbols.
//!
//! These enter the 3PCF pipeline through the survey edge-correction step
//! (Slepian & Eisenstein 2015, §4): the observed multipoles of a masked
//! survey mix with the random-catalog multipoles through a matrix whose
//! elements are squared 3-j symbols. They also provide independent test
//! oracles for the harmonic machinery (Gaunt integrals vs quadrature).
//!
//! The evaluation uses the Racah single-sum formula in log-factorial
//! space, accurate to ~1e-12 relative for the `ℓ ≲ 20` range used here.

use crate::factorial::LnFactorialTable;

/// Evaluator for Wigner 3-j symbols with integer angular momenta.
#[derive(Clone, Debug)]
pub struct Wigner3j {
    lnfact: LnFactorialTable,
}

impl Wigner3j {
    /// Build an evaluator valid for `j ≤ max_j`.
    pub fn new(max_j: usize) -> Self {
        Wigner3j {
            lnfact: LnFactorialTable::new(3 * max_j + 2),
        }
    }

    /// Triangle inequality check `|j1-j2| ≤ j3 ≤ j1+j2`.
    pub fn triangle_ok(j1: i64, j2: i64, j3: i64) -> bool {
        j3 >= (j1 - j2).abs() && j3 <= j1 + j2
    }

    /// The Wigner 3-j symbol `(j1 j2 j3; m1 m2 m3)` for integer arguments.
    ///
    /// Returns 0 for arguments violating the selection rules
    /// (`m1+m2+m3 = 0`, triangle inequality, `|mᵢ| ≤ jᵢ`).
    pub fn eval(&self, j1: i64, j2: i64, j3: i64, m1: i64, m2: i64, m3: i64) -> f64 {
        if m1 + m2 + m3 != 0
            || !Self::triangle_ok(j1, j2, j3)
            || m1.abs() > j1
            || m2.abs() > j2
            || m3.abs() > j3
            || j1 < 0
            || j2 < 0
            || j3 < 0
        {
            return 0.0;
        }
        let lf = |n: i64| -> f64 {
            debug_assert!(n >= 0);
            self.lnfact.get(n as usize)
        };
        // Triangle coefficient Δ(j1 j2 j3), in logs.
        let ln_delta =
            0.5 * (lf(j1 + j2 - j3) + lf(j1 - j2 + j3) + lf(-j1 + j2 + j3) - lf(j1 + j2 + j3 + 1));
        let ln_prefac = 0.5
            * (lf(j1 + m1) + lf(j1 - m1) + lf(j2 + m2) + lf(j2 - m2) + lf(j3 + m3) + lf(j3 - m3));

        // Racah sum over k where all factorial arguments are non-negative.
        let kmin = 0.max(j2 - j3 - m1).max(j1 - j3 + m2);
        let kmax = (j1 + j2 - j3).min(j1 - m1).min(j2 + m2);
        if kmin > kmax {
            return 0.0;
        }
        let mut sum = 0.0f64;
        for k in kmin..=kmax {
            let ln_term = lf(k)
                + lf(j1 + j2 - j3 - k)
                + lf(j1 - m1 - k)
                + lf(j2 + m2 - k)
                + lf(j3 - j2 + m1 + k)
                + lf(j3 - j1 - m2 + k);
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sum += sign * (ln_delta + ln_prefac - ln_term).exp();
        }
        let phase = if (j1 - j2 - m3).rem_euclid(2) == 0 {
            1.0
        } else {
            -1.0
        };
        phase * sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    #[test]
    fn known_values() {
        let w = Wigner3j::new(10);
        // (1 1 0; 0 0 0) = -1/sqrt(3)
        assert!(close(w.eval(1, 1, 0, 0, 0, 0), -1.0 / 3f64.sqrt(), 1e-12));
        // (1 1 2; 0 0 0) = sqrt(2/15)
        assert!(close(
            w.eval(1, 1, 2, 0, 0, 0),
            (2.0 / 15.0f64).sqrt(),
            1e-12
        ));
        // (2 2 2; 0 0 0) = -sqrt(2/35)
        assert!(close(
            w.eval(2, 2, 2, 0, 0, 0),
            -(2.0 / 35.0f64).sqrt(),
            1e-12
        ));
        // (1 1 2; 1 -1 0) = 1/sqrt(30)
        assert!(close(w.eval(1, 1, 2, 1, -1, 0), 1.0 / 30f64.sqrt(), 1e-12));
        // (2 1 1; 0 1 -1) = sqrt(1/30) ... check via symmetry instead:
        // (j j 0; m -m 0) = (-1)^{j-m}/sqrt(2j+1)
        for j in 0..=8i64 {
            for m in -j..=j {
                let want = if (j - m).rem_euclid(2) == 0 {
                    1.0 / ((2 * j + 1) as f64).sqrt()
                } else {
                    -1.0 / ((2 * j + 1) as f64).sqrt()
                };
                assert!(close(w.eval(j, j, 0, m, -m, 0), want, 1e-12), "j={j} m={m}");
            }
        }
    }

    #[test]
    fn selection_rules() {
        let w = Wigner3j::new(8);
        assert_eq!(w.eval(1, 1, 3, 0, 0, 0), 0.0); // triangle violated
        assert_eq!(w.eval(1, 1, 2, 1, 1, 0), 0.0); // m-sum non-zero
        assert_eq!(w.eval(2, 2, 2, 3, -3, 0), 0.0); // |m| > j
                                                    // odd sum with zero m's vanishes
        assert_eq!(w.eval(1, 1, 1, 0, 0, 0), 0.0);
        assert_eq!(w.eval(3, 2, 2, 0, 0, 0), 0.0);
    }

    #[test]
    fn orthogonality_relation() {
        // Σ_{m1 m2} (2j3+1) (j1 j2 j3; m1 m2 m3)(j1 j2 j3'; m1 m2 m3') = δδ
        let w = Wigner3j::new(6);
        let (j1, j2) = (3i64, 2i64);
        for j3 in 1..=5i64 {
            for j3p in 1..=5i64 {
                for m3 in -j3.min(j3p)..=j3.min(j3p) {
                    let mut s = 0.0;
                    for m1 in -j1..=j1 {
                        for m2 in -j2..=j2 {
                            s += (2 * j3 + 1) as f64
                                * w.eval(j1, j2, j3, m1, m2, -m3)
                                * w.eval(j1, j2, j3p, m1, m2, -m3);
                        }
                    }
                    let want = if j3 == j3p && Wigner3j::triangle_ok(j1, j2, j3) {
                        1.0
                    } else {
                        0.0
                    };
                    assert!((s - want).abs() < 1e-11, "j3={j3} j3'={j3p} m3={m3}: {s}");
                }
            }
        }
    }

    #[test]
    fn permutation_symmetry() {
        // Even permutations of columns leave the symbol unchanged; odd
        // permutations multiply by (-1)^{j1+j2+j3}.
        let w = Wigner3j::new(8);
        let cases = [
            (3i64, 2i64, 4i64, 1i64, -1i64, 0i64),
            (5, 4, 3, 2, -2, 0),
            (2, 2, 2, 1, 0, -1),
        ];
        for (j1, j2, j3, m1, m2, m3) in cases {
            let base = w.eval(j1, j2, j3, m1, m2, m3);
            let cyc = w.eval(j2, j3, j1, m2, m3, m1);
            assert!(close(cyc, base, 1e-11), "cyclic");
            let swap = w.eval(j2, j1, j3, m2, m1, m3);
            let sign = if (j1 + j2 + j3) % 2 == 0 { 1.0 } else { -1.0 };
            assert!(close(swap, sign * base, 1e-11), "swap");
        }
    }

    #[test]
    fn gaunt_vs_quadrature() {
        use crate::sphharm::ylm;
        use std::f64::consts::PI;
        let w = Wigner3j::new(6);
        let cases = [
            (0i64, 0i64, 0i64, 0i64, 0i64, 0i64),
            (1, 1, 2, 0, 0, 0),
            (1, 1, 2, 1, -1, 0),
            (2, 2, 4, 2, -2, 0),
            (1, 2, 3, 1, 1, -2),
        ];
        let nt = 120;
        let np = 240;
        let dt = PI / nt as f64;
        let dp = 2.0 * PI / np as f64;
        for (l1, l2, l3, m1, m2, m3) in cases {
            let mut s = crate::Complex64::ZERO;
            for i in 0..nt {
                let t = (i as f64 + 0.5) * dt;
                let wgt = t.sin() * dt * dp;
                for jj in 0..np {
                    let p = (jj as f64 + 0.5) * dp;
                    s += ylm(l1 as usize, m1, t, p)
                        * ylm(l2 as usize, m2, t, p)
                        * ylm(l3 as usize, m3, t, p)
                        * wgt;
                }
            }
            // Gaunt: √[(2l1+1)(2l2+1)(2l3+1)/(4π)] (l1 l2 l3; 0 0 0)(l1 l2 l3; m1 m2 m3).
            let pref = (((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1)) as f64 / (4.0 * PI)).sqrt();
            let want = pref * w.eval(l1, l2, l3, 0, 0, 0) * w.eval(l1, l2, l3, m1, m2, m3);
            assert!(
                (s.re - want).abs() < 5e-4 && s.im.abs() < 5e-4,
                "({l1},{l2},{l3};{m1},{m2},{m3}): {s} vs {want}"
            );
        }
    }
}
