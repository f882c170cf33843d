//! `Mesh3::fft3` pinned bit for bit.
//!
//! An FNV-1a hash over `to_bits` of every output cell (row-major, re
//! then im) of the forward and of the inverse transform of three fixed
//! meshes — a dense 16³, a 32³ whose only signal is a thin complex
//! shell around the origin (most lines, planes and columns are zero, so
//! every skip rule of the transform fires) and a dense 4³ (shorter than
//! a vector) — compared with constants. The constants were generated on
//! the commit *before* the PR that added this file (PR 22, which
//! replaced the array-of-structs butterflies by one lane loop over a
//! split re/im mesh) and the file was committed unedited with that
//! change; it touches the mesh only through `zeros` / `set` / `get` /
//! `fft3` / `fft3_serial`, so it does not care how the mesh is stored.
//!
//! A cell that is exactly zero hashes as `+0` whatever its sign: which
//! all-zero lines a transform skips decides the sign of a zero and
//! nothing else. Every non-zero value is compared by its bits.

use galactos_math::fft::{signed_mode, Direction, Mesh3};
use galactos_math::Complex64;

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

/// SplitMix64 mapped to [−1, 1): the test owns its stream, so the pins
/// do not depend on the workspace's `rand` stand-in.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Every cell of an `n³` mesh that `keep` accepts gets a random complex
/// value; the rest stay zero.
fn mesh(n: usize, seed: u64, keep: impl Fn(usize, usize, usize) -> bool) -> Mesh3 {
    let mut stream = Stream(seed);
    let mut mesh = Mesh3::zeros(n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let v = Complex64::new(stream.next(), stream.next());
                if keep(i, j, k) {
                    mesh.set(i, j, k, v);
                }
            }
        }
    }
    mesh
}

fn mesh_hash(mesh: &Mesh3) -> u64 {
    let n = (1..=mesh.len())
        .find(|&n| n * n * n == mesh.len())
        .expect("cubic mesh");
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                let v = mesh.get(i, j, k);
                fnv1a(&mut hash, value_bits(v.re));
                fnv1a(&mut hash, value_bits(v.im));
            }
        }
    }
    hash
}

struct Case {
    name: &'static str,
    input: Mesh3,
    forward: u64,
    inverse: u64,
}

fn cases() -> Vec<Case> {
    // Cells between 6 and 8 cells from the origin (minimum image): one
    // radial bin's kernel support on a 32³ mesh.
    let shell = |i: usize, j: usize, k: usize| {
        let r2: i64 = [i, j, k].iter().map(|&a| signed_mode(a, 32).pow(2)).sum();
        (36..64).contains(&r2)
    };
    vec![
        Case {
            name: "dense 16^3",
            input: mesh(16, 2201, |_, _, _| true),
            forward: 0x3b88_4b00_ccaf_6211,
            inverse: 0x0df8_2d45_b76f_992b,
        },
        Case {
            name: "shell-sparse 32^3",
            input: mesh(32, 2202, shell),
            forward: 0x45a5_f5e7_397a_649a,
            inverse: 0x6bae_539b_d887_52c6,
        },
        Case {
            name: "dense 4^3",
            input: mesh(4, 2203, |_, _, _| true),
            forward: 0x3a91_0625_d837_cb3a,
            inverse: 0xe29d_7e33_0a7b_fcef,
        },
    ]
}

#[test]
fn fft3_bits_match_the_pinned_hashes() {
    let mut wrong = Vec::new();
    for case in cases() {
        for (dir, want) in [
            (Direction::Forward, case.forward),
            (Direction::Inverse, case.inverse),
        ] {
            let mut parallel = case.input.clone();
            parallel.fft3(dir);
            let mut serial = case.input.clone();
            serial.fft3_serial(dir);
            for (path, out) in [("fft3", &parallel), ("fft3_serial", &serial)] {
                let got = mesh_hash(out);
                println!("{got:#018x}  {} {dir:?} {path}", case.name);
                if got != want {
                    wrong.push(format!(
                        "{} {dir:?} {path}: got {got:#018x}, pinned {want:#018x}",
                        case.name
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "fft3 bits moved:\n{}", wrong.join("\n"));
}
