//! Thread-count invariance of the parallel grid pipeline.
//!
//! Every parallel decomposition in the grid path (slab-ownership
//! painting, per-plane Fourier combines, batched per-field FFTs, the
//! blocked ζ contraction, and the chunked self-pair reduction) is
//! either fixed-shape or merged through rayon's ordered reduction, so
//! the results must be *bit-identical* for any pool size — including a
//! pool of one thread, which exercises the same code path serially.
//! These tests pin that contract: a future change that introduces
//! thread-count-dependent chunking or unordered accumulation fails
//! here, not as a mysterious 1-ulp drift in a downstream science gate.

use galactos_catalog::{uniform_box, Catalog};
use galactos_grid::{accumulate_zeta_multipoles, DensityMesh, GridConfig, MassAssignment};
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;

const BOX_LEN: f64 = 10.0;

fn catalog(n: usize, seed: u64) -> Catalog {
    uniform_box(n, BOX_LEN, seed)
}

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// Pool sizes to compare: serial, small parallel, and the host default
/// (0 = `available_parallelism`).
const POOLS: [usize; 3] = [1, 2, 0];

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Painted meshes (main and interlaced fields) are bit-stable across
/// pool sizes for every assignment scheme: slab ownership deposits into
/// each cell in galaxy order regardless of how many slabs exist.
#[test]
fn painting_is_bit_stable_across_thread_counts() {
    let cat = catalog(500, 99);
    for assignment in MassAssignment::ALL {
        for interlace in [false, true] {
            let reference = with_pool(1, || DensityMesh::paint(&cat, 16, assignment, interlace));
            for threads in POOLS {
                let mesh = with_pool(threads, || {
                    DensityMesh::paint(&cat, 16, assignment, interlace)
                });
                assert_eq!(
                    bits(mesh.data()),
                    bits(reference.data()),
                    "{assignment} interlace={interlace} threads={threads}: \
                     painted field differs from serial"
                );
                assert_eq!(
                    mesh.shifted_data().map(bits),
                    reference.shifted_data().map(bits),
                    "{assignment} interlace={interlace} threads={threads}: \
                     interlaced field differs from serial"
                );
            }
        }
    }
}

/// A slab size of one plane per worker is the finest decomposition the
/// painter can produce; a pool wider than the mesh side must still
/// reproduce the serial deposit exactly (excess slabs are empty).
#[test]
fn painting_survives_more_threads_than_planes() {
    let cat = catalog(300, 5);
    let serial = with_pool(1, || DensityMesh::paint(&cat, 8, MassAssignment::Cic, true));
    let wide = with_pool(64, || {
        DensityMesh::paint(&cat, 8, MassAssignment::Cic, true)
    });
    assert_eq!(bits(serial.data()), bits(wide.data()));
    assert_eq!(
        serial.shifted_data().map(bits),
        wide.shifted_data().map(bits)
    );
}

/// Every emission's `(re, im)` bits, in arrival order, per
/// `(l1, l2, m, b1, b2)` key.
type ZetaMap = BTreeMap<(usize, usize, usize, usize, usize), Vec<(u64, u64)>>;

fn zeta_map(cat: &Catalog, threads: usize) -> ZetaMap {
    let cfg = GridConfig::with_mesh(16);
    let nbins = 4;
    let rmax = 3.0;
    let bin_of = move |r: f64| (r < rmax).then(|| ((r / rmax) * nbins as f64) as usize);
    with_pool(threads, || {
        let mut map = BTreeMap::new();
        accumulate_zeta_multipoles(
            cat,
            &cfg,
            3,
            nbins,
            None,
            &bin_of,
            true,
            &galactos_obs::ObsSession::disabled(),
            // Diagonal (b, b) keys are emitted twice — contraction,
            // then the self-pair subtraction — so collect emissions in
            // arrival order per key.
            &mut |l1, l2, m, b1, b2, v| {
                map.entry((l1, l2, m, b1, b2))
                    .or_insert_with(Vec::new)
                    .push((v.re.to_bits(), v.im.to_bits()));
            },
        );
        map
    })
}

/// The full estimator — painting, batched field FFTs, blocked
/// contraction, self-pair subtraction — emits bit-identical ζ
/// coefficients for pools of 1, 2, and the host width.
#[test]
fn zeta_multipoles_are_bit_stable_across_thread_counts() {
    let cat = catalog(400, 17);
    let reference = zeta_map(&cat, 1);
    assert!(!reference.is_empty());
    for threads in POOLS {
        assert_eq!(
            zeta_map(&cat, threads),
            reference,
            "ζ map differs from serial at threads={threads}"
        );
    }
}
