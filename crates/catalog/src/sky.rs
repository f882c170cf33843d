//! Sky-coordinate catalogs: RA/Dec/redshift ingestion for surveys.
//!
//! Real survey catalogs (the paper's BOSS target) publish galaxies as
//! angles on the sky plus a redshift, not as comoving Cartesian
//! positions. This module converts between the two through a fiducial
//! [`FiducialCosmology`]
//! and reads/writes the corresponding CSV files.
//!
//! # Conventions
//!
//! Stated once, here, for every consumer (the survey walkthroughs, the
//! survey bench bin, downstream analysis). They compose with the
//! distance conventions of [`galactos_math::cosmology`] and the
//! geometry conventions of [`crate::survey`]:
//!
//! * **Columns**: a sky CSV *must* carry a header naming `RA`, `DEC`
//!   and `Z` (any case, any order — `ra,dec,z`, `DEC,Z,RA`, … all
//!   work), resolved by the shared `io::HeaderMap`.
//!   An optional weight column is recognized under the aliases in
//!   [`WEIGHT_ALIASES`] (`weight`, `radial_weight`, `weight_systot`,
//!   `wt` — the names used by public survey products and the
//!   correlcalc-style tools); absent weights default to 1.
//! * **Units**: RA and Dec are degrees, with RA ∈ [0°, 360°) and
//!   Dec ∈ [−90°, +90°]; `Z` is the observed redshift (dimensionless,
//!   ≥ 0). Positions come out in h⁻¹ Mpc, like every distance in the
//!   engine.
//! * **Frame**: the observer sits at the **origin**; `x̂` points to
//!   (RA 0°, Dec 0°), `ŷ` to (RA 90°, Dec 0°), `ẑ` to the north pole
//!   (Dec +90°):
//!
//!   ```text
//!   x = D_C(z)·cos(dec)·cos(ra)
//!   y = D_C(z)·cos(dec)·sin(ra)
//!   z = D_C(z)·sin(dec)
//!   ```
//!
//!   Downstream, a [`SurveyGeometry`](crate::survey::SurveyGeometry)
//!   over such a catalog uses `observer = Vec3::ZERO`, and the engine's
//!   radial line of sight is `LineOfSight::Radial { observer: ZERO }`.
//! * **The fiducial cosmology is part of the catalog's provenance**:
//!   two ingests with different `(Ωm, h)` produce different Cartesian
//!   catalogs. Record the cosmology next to any serialized output.

use crate::galaxy::{Catalog, Galaxy};
use crate::io::{non_finite_field, CatalogIoError, HeaderMap};
use galactos_math::cosmology::FiducialCosmology;
use galactos_math::Vec3;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Recognized names for the optional per-object weight column, in
/// priority order (first alias present in the header wins).
pub const WEIGHT_ALIASES: &[&str] = &["weight", "radial_weight", "weight_systot", "wt"];

/// Convert sky coordinates (RA/Dec in degrees, redshift) to a comoving
/// Cartesian position in h⁻¹ Mpc, observer at the origin.
pub(crate) fn sky_to_cartesian(
    ra_deg: f64,
    dec_deg: f64,
    z: f64,
    cosmo: &FiducialCosmology,
) -> Vec3 {
    let r = cosmo.comoving_distance(z);
    let (ra, dec) = (ra_deg.to_radians(), dec_deg.to_radians());
    Vec3::new(
        r * dec.cos() * ra.cos(),
        r * dec.cos() * ra.sin(),
        r * dec.sin(),
    )
}

/// Invert [`sky_to_cartesian`]: `(ra_deg, dec_deg, z)` of a comoving
/// position relative to an observer at the origin.
///
/// RA is reduced to [0°, 360°). Panics on the zero vector (no
/// direction) — surveys never place a galaxy at the observer.
pub(crate) fn cartesian_to_sky(pos: Vec3, cosmo: &FiducialCosmology) -> (f64, f64, f64) {
    let r = pos.norm();
    let u = pos
        .normalized()
        .expect("cannot convert the observer's own position to sky coordinates");
    let dec = u.z.asin().to_degrees();
    let mut ra = u.y.atan2(u.x).to_degrees();
    if ra < 0.0 {
        ra += 360.0;
    }
    (ra, dec, cosmo.redshift_at_distance(r))
}

/// Read a sky-coordinate CSV (header required: RA/DEC/Z in any case and
/// order, optional weight per [`WEIGHT_ALIASES`]) into a Cartesian
/// [`Catalog`] via the fiducial cosmology.
///
/// Rows with Dec outside [−90°, +90°], negative redshift, or a NaN or
/// infinite RA, Z or weight are rejected as [`CatalogIoError::Parse`]
/// (the last naming the data row, counted from 1 after the header, and
/// the column). The resulting catalog is non-periodic with the observer
/// at the origin.
pub fn read_sky_csv(
    path: impl AsRef<Path>,
    cosmo: &FiducialCosmology,
) -> Result<Catalog, CatalogIoError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut line = String::new();
    // Find the first non-empty line; it must be the header.
    let header = loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(CatalogIoError::Parse(
                "empty sky CSV: expected a header naming RA/DEC/Z".into(),
            ));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        break HeaderMap::parse(trimmed).ok_or_else(|| {
            CatalogIoError::Parse(format!(
                "sky CSV must start with a header naming RA/DEC/Z, got data row: {trimmed}"
            ))
        })?;
    };
    let missing =
        |name: &str| CatalogIoError::Parse(format!("sky CSV header lacks a {name} column"));
    let cra = header
        .resolve(&["ra", "right_ascension"])
        .ok_or_else(|| missing("RA"))?;
    let cdec = header
        .resolve(&["dec", "declination"])
        .ok_or_else(|| missing("DEC"))?;
    let cz = header
        .resolve(&["z", "redshift"])
        .ok_or_else(|| missing("Z"))?;
    let cw = header.resolve(WEIGHT_ALIASES);

    let mut galaxies = Vec::new();
    let mut rows = 0u64;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        rows += 1;
        let fields: Vec<&str> = trimmed.split(',').collect();
        if fields.len() <= cra.max(cdec).max(cz) {
            return Err(CatalogIoError::Parse(format!("bad row: {trimmed}")));
        }
        let parse = |s: &str| -> Result<f64, CatalogIoError> {
            s.trim()
                .parse::<f64>()
                .map_err(|e| CatalogIoError::Parse(format!("{s}: {e}")))
        };
        let (ra, dec, z) = (
            parse(fields[cra])?,
            parse(fields[cdec])?,
            parse(fields[cz])?,
        );
        if !(-90.0..=90.0).contains(&dec) {
            return Err(CatalogIoError::Parse(format!(
                "Dec {dec} outside [-90, 90]"
            )));
        }
        if z < 0.0 {
            return Err(CatalogIoError::Parse(format!("negative redshift {z}")));
        }
        let weight = match cw {
            Some(c) if fields.len() > c => parse(fields[c])?,
            _ => 1.0,
        };
        if let Some(column) = non_finite_field(&[("RA", ra), ("Z", z), ("weight", weight)]) {
            return Err(CatalogIoError::Parse(format!(
                "data row {rows}: non-finite {column} in {trimmed}"
            )));
        }
        galaxies.push(Galaxy::new(sky_to_cartesian(ra, dec, z, cosmo), weight));
    }
    Ok(Catalog::new(galaxies))
}

/// Write a Cartesian catalog as a sky CSV (`ra,dec,z,weight` header),
/// inverting positions through the fiducial cosmology.
///
/// The inverse of [`read_sky_csv`] up to the distance→redshift
/// inversion tolerance; used by the survey bench to materialize mock
/// sky catalogs.
pub fn write_sky_csv(
    catalog: &Catalog,
    path: impl AsRef<Path>,
    cosmo: &FiducialCosmology,
) -> Result<(), CatalogIoError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "ra,dec,z,weight")?;
    for g in &catalog.galaxies {
        let (ra, dec, z) = cartesian_to_sky(g.pos, cosmo);
        writeln!(w, "{ra},{dec},{z},{}", g.weight)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("galactos_sky_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn cardinal_directions() {
        let cosmo = FiducialCosmology::boss_fiducial();
        let z = 0.2;
        let r = cosmo.comoving_distance(z);
        let cases = [
            (0.0, 0.0, Vec3::X),
            (90.0, 0.0, Vec3::Y),
            (180.0, 0.0, -Vec3::X),
            (0.0, 90.0, Vec3::Z),
            (123.0, -90.0, -Vec3::Z),
        ];
        for (ra, dec, dir) in cases {
            let p = sky_to_cartesian(ra, dec, z, &cosmo);
            assert!(
                (p - dir * r).norm() < 1e-9,
                "ra={ra} dec={dec}: {p:?} vs {:?}",
                dir * r
            );
        }
    }

    #[test]
    fn sky_cartesian_roundtrip() {
        let cosmo = FiducialCosmology::new(0.315, 0.674);
        for (ra, dec, z) in [(12.5, -33.0, 0.08), (250.0, 41.5, 0.45), (359.9, 0.01, 1.1)] {
            let p = sky_to_cartesian(ra, dec, z, &cosmo);
            let (ra2, dec2, z2) = cartesian_to_sky(p, &cosmo);
            assert!((ra - ra2).abs() < 1e-9, "ra {ra} vs {ra2}");
            assert!((dec - dec2).abs() < 1e-9, "dec {dec} vs {dec2}");
            assert!((z - z2).abs() < 1e-8, "z {z} vs {z2}");
        }
    }

    #[test]
    fn reads_any_case_and_order() {
        let cosmo = FiducialCosmology::boss_fiducial();
        let path = tmp("caps.csv");
        std::fs::write(&path, "DEC,WEIGHT_SYSTOT,RA,Z\n0.0,2.5,90.0,0.1\n").unwrap();
        let cat = read_sky_csv(&path, &cosmo).unwrap();
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.galaxies[0].weight, 2.5);
        let r = cosmo.comoving_distance(0.1);
        assert!((cat.galaxies[0].pos - Vec3::Y * r).norm() < 1e-9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_weight_defaults_to_one() {
        let cosmo = FiducialCosmology::boss_fiducial();
        let path = tmp("noweight.csv");
        std::fs::write(&path, "ra,dec,z\n10.0,20.0,0.3\n").unwrap();
        let cat = read_sky_csv(&path, &cosmo).unwrap();
        assert_eq!(cat.galaxies[0].weight, 1.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_headerless_and_incomplete() {
        let cosmo = FiducialCosmology::boss_fiducial();
        let headerless = tmp("headerless.csv");
        std::fs::write(&headerless, "10.0,20.0,0.3\n").unwrap();
        assert!(matches!(
            read_sky_csv(&headerless, &cosmo),
            Err(CatalogIoError::Parse(_))
        ));
        let no_dec = tmp("nodec.csv");
        std::fs::write(&no_dec, "ra,z\n10.0,0.3\n").unwrap();
        let err = read_sky_csv(&no_dec, &cosmo).unwrap_err();
        assert!(err.to_string().contains("DEC"), "{err}");
        std::fs::remove_file(&headerless).ok();
        std::fs::remove_file(&no_dec).ok();
    }

    #[test]
    fn rejects_out_of_range_rows() {
        let cosmo = FiducialCosmology::boss_fiducial();
        let bad_dec = tmp("baddec.csv");
        std::fs::write(&bad_dec, "ra,dec,z\n10.0,95.0,0.3\n").unwrap();
        assert!(read_sky_csv(&bad_dec, &cosmo).is_err());
        let bad_z = tmp("badz.csv");
        std::fs::write(&bad_z, "ra,dec,z\n10.0,5.0,-0.3\n").unwrap();
        assert!(read_sky_csv(&bad_z, &cosmo).is_err());
        std::fs::remove_file(&bad_dec).ok();
        std::fs::remove_file(&bad_z).ok();
    }

    #[test]
    fn rejects_non_finite_rows_naming_row_and_column() {
        let cosmo = FiducialCosmology::boss_fiducial();
        for (row, column, body) in [
            (2, "RA", "10.0,20.0,0.3\nnan,20,0.05\n"),
            (1, "Z", "30,-10,inf\n"),
        ] {
            let path = tmp("nonfinite.csv");
            std::fs::write(&path, format!("ra,dec,z\n{body}")).unwrap();
            match read_sky_csv(&path, &cosmo) {
                Err(CatalogIoError::Parse(why)) => assert!(
                    why.starts_with(&format!("data row {row}: non-finite {column} ")),
                    "{why}"
                ),
                other => panic!("expected Parse, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn file_roundtrip_preserves_positions() {
        let cosmo = FiducialCosmology::boss_fiducial();
        let cat = Catalog::new(vec![
            Galaxy::new(sky_to_cartesian(33.0, 12.0, 0.2, &cosmo), 1.5),
            Galaxy::new(sky_to_cartesian(200.0, -45.0, 0.6, &cosmo), 0.5),
        ]);
        let path = tmp("roundtrip.csv");
        write_sky_csv(&cat, &path, &cosmo).unwrap();
        let back = read_sky_csv(&path, &cosmo).unwrap();
        assert_eq!(back.len(), cat.len());
        for (a, b) in back.galaxies.iter().zip(cat.galaxies.iter()) {
            assert!((a.pos - b.pos).norm() < 1e-6, "{:?} vs {:?}", a.pos, b.pos);
            assert_eq!(a.weight, b.weight);
        }
        std::fs::remove_file(&path).ok();
    }
}
