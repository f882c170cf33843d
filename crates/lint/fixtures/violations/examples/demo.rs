//! The shipped caller of the other fixtures' `pub fn`s, which keeps them
//! out of W-DEADPUB: one seeded violation per rule. Of `shape.rs` it
//! reaches `Cuboid` and `Lanes::splat`, and spells `Ledger`, `volume`
//! and `to_array` in ways that call nothing.

use galactos::Ledger;

fn to_array(c: &Cuboid) -> [f64; 1] {
    [c.side]
}

fn main() {
    let c = Cuboid { side: 2.0 };
    let volume = c.side * c.side * c.side;
    let _ = (to_array(&c), Lanes::splat(volume));
    let _ = (sneak_a_knob(), home(), peek(&[0.0]));
}
