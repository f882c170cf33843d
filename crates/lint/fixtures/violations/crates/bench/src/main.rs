//! Must-fire: W-CLOCK — the figure binaries are not on the allowlist;
//! they time through `galactos_obs::clock::Epoch` like everyone else.
//! `main` is also the caller that keeps the other fixtures' `pub fn`s
//! out of W-DEADPUB: one seeded violation per rule.

use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let _ = (header_count(0), hot_path(), unstable_total(&[]));
    let _ = (sneak_a_knob(), peek(&[0.0]), enter());
    println!("{:?}", t0.elapsed());
}
