//! Must-fire: W-DEADPUB on items only a same-spelled identifier keeps
//! alive. `Ledger` is named in its own impl and a `use` line alone, and
//! its finding covers its methods; `Cuboid::volume` has no `.volume(`
//! call, only a local `volume`, so nothing outside the crate names it;
//! `Lanes::to_array` only a free fn of that name; `cube` is named by the
//! facade's `pub use` alone.

pub struct Ledger;

impl Ledger {
    pub fn open() -> Ledger {
        Ledger
    }
}

pub struct Cuboid {
    pub side: f64,
}

impl Cuboid {
    pub fn volume(&self) -> f64 {
        self.side * self.side * self.side
    }
}

pub struct Lanes([f64; 8]);

impl Lanes {
    pub fn splat(x: f64) -> Lanes {
        Lanes([x; 8])
    }

    pub fn to_array(self) -> [f64; 8] {
        self.0
    }
}

pub const fn cube(n: u64) -> u64 {
    n * n * n
}
