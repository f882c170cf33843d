//! Grid ζ pinned bit for bit.
//!
//! Each case runs `uniform_box(300, 10.0, 7)` through
//! [`accumulate_zeta_multipoles`] (rmax 2.5, linear bins) and compares
//! an FNV-1a hash over `(ℓ, ℓ′, m, b₁, b₂, re bits, im bits)` of every
//! streamed coefficient, in stream order, with a constant. The
//! constants were generated on the commit *before* the PR that added
//! this file (PR 22, which moved the mesh transform onto a split re/im
//! layout and vector lanes, pooled the field meshes and tabulated the
//! shell harmonics per m) and the file was committed unedited with that
//! change: a refactor or optimisation of the grid path that means to
//! keep ζ's bits passes this unchanged, at every pool size it runs at.
//! The second case painted with TSC until that scheme was deleted; its
//! CIC constant was generated the same way, on the commit before the
//! deletion.
//!
//! A coefficient that is exactly zero hashes as `+0` whatever its sign:
//! which all-zero lines of a mesh a transform skips decides the sign of
//! a zero and nothing else, and is not part of the contract. Every
//! non-zero value is compared by its bits.
//!
//! A PR that means to move bits (the analytic kernel spectrum, a
//! lane-summed contraction) re-blesses the constants explicitly — run
//! with `--nocapture`, copy the printed hashes, and say so in
//! `CHANGES.md` — rather than loosening the comparison.

use galactos_catalog::uniform_box;
use galactos_grid::{accumulate_zeta_multipoles, GridConfig, MassAssignment};
use galactos_math::{Mat3, Vec3};
use rayon::ThreadPoolBuilder;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `to_bits`, with both zeros hashing alike.
fn value_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else {
        v.to_bits()
    }
}

struct Case {
    name: &'static str,
    cfg: GridConfig,
    lmax: usize,
    nbins: usize,
    rotation: Option<Mat3>,
    subtract_self_pairs: bool,
    /// Pool sizes to run at (0 = the host default).
    threads: &'static [usize],
    want: u64,
}

fn cases() -> Vec<Case> {
    let tilted = Vec3::new(1.0, 2.0, 3.0)
        .normalized()
        .expect("a non-zero vector");
    vec![
        Case {
            name: "mesh 32, lmax 10, 10 bins, CIC, deconvolve, self-pairs on",
            cfg: GridConfig {
                mesh: 32,
                assignment: MassAssignment::Cic,
                deconvolve: true,
                interlace: false,
            },
            lmax: 10,
            nbins: 10,
            rotation: None,
            subtract_self_pairs: true,
            // The paper point costs 1 320 transforms of a 32³ mesh: one
            // pool size here, all three on the cheaper cases below
            // (and in `thread_invariance.rs`).
            threads: &[2],
            want: 0x5b2d_7b9f_ba42_a1c0,
        },
        Case {
            name: "mesh 16, lmax 4, 3 bins, CIC, interlace, rotated line of sight",
            cfg: GridConfig {
                mesh: 16,
                assignment: MassAssignment::Cic,
                deconvolve: false,
                interlace: true,
            },
            lmax: 4,
            nbins: 3,
            rotation: Some(Mat3::rotation_to_z(tilted)),
            subtract_self_pairs: false,
            threads: &[1, 2, 0],
            want: 0x07f3_e790_e1b7_c151,
        },
        Case {
            name: "mesh 8, lmax 2, 2 bins, NGP, self-pairs on",
            cfg: GridConfig {
                mesh: 8,
                assignment: MassAssignment::Ngp,
                deconvolve: false,
                interlace: false,
            },
            lmax: 2,
            nbins: 2,
            rotation: None,
            subtract_self_pairs: true,
            threads: &[1, 2, 0],
            want: 0x561a_e819_3cbd_d499,
        },
    ]
}

/// Hash of the coefficient stream and how many coefficients it held.
fn stream_hash(case: &Case, threads: usize) -> (u64, usize) {
    let catalog = uniform_box(300, 10.0, 7);
    let rmax = 2.5;
    let nbins = case.nbins;
    let bin_of = move |r: f64| (r < rmax).then(|| ((r / rmax) * nbins as f64) as usize);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut count = 0usize;
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a thread pool")
        .install(|| {
            accumulate_zeta_multipoles(
                &catalog,
                &case.cfg,
                case.lmax,
                nbins,
                case.rotation,
                &bin_of,
                case.subtract_self_pairs,
                &galactos_obs::ObsSession::disabled(),
                &mut |l, lp, m, b1, b2, v| {
                    for index in [l, lp, m, b1, b2] {
                        fnv1a(&mut hash, index as u64);
                    }
                    fnv1a(&mut hash, value_bits(v.re));
                    fnv1a(&mut hash, value_bits(v.im));
                    count += 1;
                },
            );
        });
    (hash, count)
}

#[test]
fn grid_zeta_bits_match_the_pinned_hashes() {
    let mut wrong = Vec::new();
    for case in cases() {
        for &threads in case.threads {
            let (got, count) = stream_hash(&case, threads);
            assert!(count > 0, "{}: nothing streamed", case.name);
            println!(
                "{got:#018x}  {} ({count} coefficients, threads={threads})",
                case.name
            );
            if got != case.want {
                wrong.push(format!(
                    "{} at threads={threads}: got {got:#018x}, pinned {:#018x}",
                    case.name, case.want
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "grid ζ bits moved:\n{}", wrong.join("\n"));
}
