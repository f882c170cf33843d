//! Galaxy catalogs: containers, I/O, survey geometry and random catalogs.
//!
//! The only input the Galactos algorithm needs is "the 3-D positions of
//! the galaxies" (paper §1.3) plus per-object weights for the
//! data-minus-randoms estimator. This crate provides:
//!
//! * [`Galaxy`] / [`Catalog`] — the position+weight containers used by
//!   every other crate;
//! * [`io`] — a compact binary format for catalogs, the "I/O" slice
//!   of the paper's runtime breakdown (Fig. 4);
//! * [`shard`] — GCAT v2: the same records split into spatially-aligned
//!   shard files behind a checksummed manifest, read one shard at a
//!   time through a filter so survey-scale catalogs never need to fit
//!   on one node;
//! * [`random`] — uniform Poisson random catalogs, both for algorithm
//!   testing (ζ must vanish on them) and as the R catalogs of the
//!   data-minus-randoms estimator (paper §6.1);
//! * [`sky`] — RA/Dec/redshift sky-coordinate ingestion through a
//!   fiducial cosmology, the form in which real survey catalogs (the
//!   paper's BOSS target) actually arrive;
//! * [`survey`] — survey geometry with angular holes and radial
//!   selection, Monte-Carlo sampled by the random catalogs exactly as
//!   the paper describes for removing the spurious geometry signal.

#![forbid(unsafe_code)]

pub mod galaxy;
// Untrusted header bytes must fail loudly, not wrap: the GCAT readers
// narrow through `try_from`, never through a bare `as`.
#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
pub mod io;
pub mod random;
#[deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
pub mod shard;
pub mod sky;
pub mod survey;

pub use galaxy::{Catalog, Galaxy};
pub use random::uniform_box;
pub use shard::{ShardAssignment, ShardManifest, ShardMeta};
pub use sky::{cartesian_to_sky, read_sky_csv, sky_to_cartesian, write_sky_csv};
pub use survey::{Cap, SurveyGeometry};
