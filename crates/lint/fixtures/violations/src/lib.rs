//! The facade: its re-exports call nothing.

pub use galactos_math::shape::{cube, Cuboid, Lanes, Ledger};
pub use galactos_obs::summary::render_summary;
