//! Property-based tests for the mathematical substrate.

use galactos_math::complex::Complex64;
use galactos_math::legendre::{assoc_legendre_p, legendre_coefficients, legendre_p};
use galactos_math::monomial::MonomialBasis;
use galactos_math::rotation::{LineOfSight, Mat3};
use galactos_math::sphharm::{ylm, ylm_cartesian};
use galactos_math::vec3::{Aabb, Vec3};
use galactos_math::wigner::Wigner3j;
use galactos_math::ylm::YlmTable;
use galactos_math::{lm_count, lm_index};
use proptest::prelude::*;

fn unit_vector() -> impl Strategy<Value = Vec3> {
    // Reject near-zero raw vectors before normalizing.
    (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0)
        .prop_filter_map("non-zero", |(x, y, z)| Vec3::new(x, y, z).normalized())
}

proptest! {
    #[test]
    fn legendre_bounded_on_domain(l in 0usize..16, x in -1.0f64..=1.0) {
        let v = legendre_p(l, x);
        prop_assert!(v.abs() <= 1.0 + 1e-10, "P_{l}({x}) = {v}");
    }

    #[test]
    fn legendre_parity(l in 0usize..14, x in -1.0f64..=1.0) {
        let sign = if l % 2 == 0 { 1.0 } else { -1.0 };
        let a = legendre_p(l, x);
        let b = sign * legendre_p(l, -x);
        prop_assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn legendre_coeffs_match_recurrence(l in 0usize..14, x in -1.0f64..=1.0) {
        let c = legendre_coefficients(l);
        let via_coeffs = c.iter().rev().fold(0.0, |acc, &ck| acc * x + ck);
        let via_rec = legendre_p(l, x);
        prop_assert!((via_coeffs - via_rec).abs() < 1e-9 * (1.0 + via_rec.abs()));
    }

    #[test]
    fn assoc_legendre_recurrence_in_l(l in 2usize..12, m in 0usize..12, x in -0.999f64..=0.999) {
        // (l-m) P_l^m = x(2l-1) P_{l-1}^m - (l+m-1) P_{l-2}^m
        prop_assume!(m <= l - 2);
        let lhs = (l - m) as f64 * assoc_legendre_p(l, m, x);
        let rhs = x * (2 * l - 1) as f64 * assoc_legendre_p(l - 1, m, x)
            - (l + m - 1) as f64 * assoc_legendre_p(l - 2, m, x);
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        prop_assert!((lhs - rhs).abs() < 1e-9 * scale);
    }

    #[test]
    fn ylm_conjugation(l in 0usize..10, mseed in 0usize..10, t in 0.01f64..3.13, p in -3.0f64..3.0) {
        let m = (mseed % (l + 1)) as i64;
        let plus = ylm(l, m, t, p);
        let minus = ylm(l, -m, t, p);
        let sign = if m % 2 == 0 { 1.0 } else { -1.0 };
        prop_assert!(minus.dist_inf(plus.conj() * sign) < 1e-12);
    }

    #[test]
    fn monomial_schedule_correct(
        x in -2.0f64..2.0,
        y in -2.0f64..2.0,
        z in -2.0f64..2.0,
        lmax in 0usize..9,
    ) {
        let b = MonomialBasis::new(lmax);
        let mut out = vec![0.0; b.len()];
        b.eval_into(x, y, z, &mut out);
        for (i, &got) in out.iter().enumerate() {
            let (k, p, q) = b.exponents(i);
            let want = x.powi(k as i32) * y.powi(p as i32) * z.powi(q as i32);
            prop_assert!((got - want).abs() <= 1e-10 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn ylm_table_matches_direct(dir in unit_vector(), l in 0usize..8, mseed in 0usize..8) {
        let m = mseed % (l + 1);
        let basis = MonomialBasis::new(8);
        let table = YlmTable::new(8, &basis);
        let mut monomials = vec![0.0; basis.len()];
        basis.eval_into(dir.x, dir.y, dir.z, &mut monomials);
        let mut alm = vec![Complex64::ZERO; lm_count(8)];
        table.assemble_alm(&monomials, &mut alm);
        let via_table = alm[lm_index(l, m)];
        let direct = ylm_cartesian(l, m as i64, dir);
        prop_assert!(via_table.dist_inf(direct) < 1e-9,
            "l={l} m={m} dir={dir:?}: {via_table} vs {direct}");
    }

    #[test]
    fn rotation_to_z_properties(dir in unit_vector()) {
        let r = Mat3::rotation_to_z(dir);
        // Orthonormal and proper: unit, orthogonal, right-handed images.
        let [x, y, z] = [Vec3::X, Vec3::Y, Vec3::Z].map(|e| r.mul_vec(e));
        prop_assert!((x.dot(x) - 1.0).abs() < 1e-9 && (y.dot(y) - 1.0).abs() < 1e-9);
        prop_assert!(x.dot(y).abs() < 1e-9 && (x.cross(y) - z).norm() < 1e-9);
        prop_assert!((r.mul_vec(dir) - Vec3::Z).norm() < 1e-8);
    }

    #[test]
    fn rotation_preserves_dot(dir in unit_vector(), a in unit_vector(), b in unit_vector()) {
        let r = Mat3::rotation_to_z(dir);
        let before = a.dot(b);
        let after = r.mul_vec(a).dot(r.mul_vec(b));
        prop_assert!((before - after).abs() < 1e-10);
    }

    #[test]
    fn radial_los_polar_angle(observer in unit_vector(), primary in unit_vector(), sep in unit_vector()) {
        // Separation's angle to the line of sight is invariant under the frame rotation.
        let obs = observer * 3.0;
        let pri = primary * 50.0;
        prop_assume!((pri - obs).norm() > 1.0);
        let los = LineOfSight::Radial { observer: obs };
        let r = los.rotation_for(pri).unwrap();
        let u = (pri - obs).normalized().unwrap();
        let before = u.dot(sep);
        let after = r.mul_vec(sep).z;
        prop_assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn wigner_m_negation_symmetry(
        j1 in 0i64..7, j2 in 0i64..7, j3 in 0i64..7,
        m1 in -6i64..=6, m2 in -6i64..=6,
    ) {
        // (j1 j2 j3; -m1 -m2 -m3) = (-1)^{j1+j2+j3} (j1 j2 j3; m1 m2 m3)
        let w = Wigner3j::new(8);
        let m3 = -m1 - m2;
        let a = w.eval(j1, j2, j3, m1, m2, m3);
        let b = w.eval(j1, j2, j3, -m1, -m2, -m3);
        let sign = if (j1 + j2 + j3) % 2 == 0 { 1.0 } else { -1.0 };
        prop_assert!((b - sign * a).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn aabb_distance_consistent_with_contains(
        px in -5.0f64..5.0, py in -5.0f64..5.0, pz in -5.0f64..5.0,
        ax in -3.0f64..3.0, ay in -3.0f64..3.0, az in -3.0f64..3.0,
        bx in -3.0f64..3.0, by in -3.0f64..3.0, bz in -3.0f64..3.0,
    ) {
        let b = Aabb::new(Vec3::new(ax, ay, az), Vec3::new(bx, by, bz));
        let p = Vec3::new(px, py, pz);
        let d2 = b.distance_sq_to_point(p);
        if b.contains(p) {
            prop_assert_eq!(d2, 0.0);
        } else {
            prop_assert!(d2 > 0.0);
        }
    }

    #[test]
    fn complex_polar_roundtrip(r in 0.01f64..10.0, t in -3.1f64..3.1) {
        let z = Complex64::cis(t) * r;
        prop_assert!((z.abs() - r).abs() < 1e-12 * (1.0 + r));
        prop_assert!((z.arg() - t).abs() < 1e-12);
    }
}
