//! **Figure 3** — visualization of one node's galaxy box.
//!
//! The paper shows 225,000 Outer Rim galaxies in a ~146 Mpc/h box. We
//! generate the scaled clustered analogue and render the x–y projected
//! density as ASCII art (plus a CSV of the projection grid).

use crate::datasets::node_dataset;
use crate::{write_csv, BENCH_SEED};
use galactos_analysis::report::ascii_heatmap;

pub(crate) fn run(n: usize) -> Result<(), String> {
    let catalog = node_dataset(1, n as f64, BENCH_SEED);
    let ext = catalog.bounds.extent();
    println!(
        "{} galaxies in a {:.1} x {:.1} x {:.1} Mpc/h box (clustered, Outer Rim density)\n",
        catalog.len(),
        ext.x,
        ext.y,
        ext.z
    );

    let grid = 40usize;
    let mut counts = vec![vec![0.0f64; grid]; grid];
    for g in &catalog.galaxies {
        let ix = (((g.pos.x - catalog.bounds.lo.x) / ext.x) * grid as f64) as usize;
        let iy = (((g.pos.y - catalog.bounds.lo.y) / ext.y) * grid as f64) as usize;
        counts[iy.min(grid - 1)][ix.min(grid - 1)] += 1.0;
    }
    // Subtract the mean so the heat map shows over/under-densities.
    let mean: f64 = counts.iter().flatten().sum::<f64>() / (grid * grid) as f64;
    let delta: Vec<Vec<f64>> = counts
        .iter()
        .map(|row| row.iter().map(|c| c - mean).collect())
        .collect();
    println!("projected overdensity (x right, y up):\n");
    print!("{}", ascii_heatmap(&delta));

    let lines = counts.iter().enumerate().flat_map(|(iy, row)| {
        row.iter()
            .enumerate()
            .map(move |(ix, c)| format!("{ix},{iy},{c}"))
    });
    let path = write_csv("galactos_fig03.csv", "ix,iy,count", lines)?;
    println!("\nprojection grid written to {}", path.display());
    println!("paper Fig. 3: same visualization of a 225k-galaxy Outer Rim sub-box.");
    Ok(())
}
