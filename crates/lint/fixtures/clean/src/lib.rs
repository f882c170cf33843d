//! The facade re-exports what the example also calls.

pub use galactos_math::grid::{cell_count, Grid};
