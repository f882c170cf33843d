//! Must-not-fire cases for W-DEADPUB's item index: a type another module
//! names in a signature, methods called as `.name(`, `Type::name` and
//! `Self::name`, and called const fns.

pub struct Grid {
    side: usize,
}

impl Grid {
    pub const fn new(side: usize) -> Grid {
        Grid { side }
    }

    pub fn cells(&self) -> usize {
        self.side * Self::square(self.side)
    }

    pub(crate) const fn square(n: usize) -> usize {
        n * n
    }
}

pub fn cell_count(grid: &Grid) -> usize {
    grid.cells()
}

/// Called by the example and by `benchmark/src`, so not pinned.
pub fn write_binary() {}

/// Only `benchmark/src` calls it: pinned, not a finding.
pub fn read_binary() {}

pub struct Engine;

impl Engine {
    /// Only `benchmark/src` calls it: pinned, not a finding.
    pub fn traversal_kind(&self) -> u8 {
        0
    }
}
