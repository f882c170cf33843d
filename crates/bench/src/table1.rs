//! **Table 1** — weak-scaling datasets at fixed Outer Rim density.
//!
//! Regenerates the paper's dataset table from the construction rule
//! (225,000 galaxies per node at n̄ = 0.0726 (Mpc/h)⁻³) and prints the
//! paper's printed values alongside. Also realizes a laptop-scale
//! version of each row (scaled down 10⁴×) and verifies its density.

use crate::tables::print_table;
use crate::BENCH_SEED;
use galactos_mocks::scaled::{generate_scaled_catalog, paper_table1, MockKind};

pub(crate) fn run() -> Result<(), String> {
    println!("== Table 1: weak-scaling datasets (regenerated) ==\n");
    let paper = [
        (128usize, "2.880e7", "734.5"),
        (256, "5.760e7", "925.8"),
        (512, "1.152e8", "1166.9"),
        (1024, "2.304e8", "1470.9"),
        (2048, "4.608e8", "1853.3"),
        (4096, "9.216e8", "2334.7"),
        (8192, "1.843e9", "2934.4"),
        (9636, "1.951e9", "3000.0"),
    ];
    let rows: Vec<Vec<String>> = paper_table1()
        .iter()
        .zip(paper.iter())
        .map(|(row, &(nodes, pg, pl))| {
            assert_eq!(
                row.nodes, nodes,
                "paper_table1() rows out of the paper's order"
            );
            vec![
                format!("{}", row.nodes),
                format!("{:.3e}", row.galaxies),
                pg.to_string(),
                format!("{:.1}", row.box_len),
                pl.to_string(),
            ]
        })
        .collect();
    print_table(
        &["nodes", "galaxies", "paper", "box (Mpc/h)", "paper"],
        &rows,
    );

    println!("\n== laptop realizations (scaled 10^4x, same density) ==\n");
    let mut rows = Vec::new();
    for ds in paper_table1().iter().take(4) {
        let cat = generate_scaled_catalog(ds, 1.0e4, MockKind::Clustered, BENCH_SEED);
        let box_len = cat.periodic.unwrap();
        let density = cat.len() as f64 / box_len.powi(3);
        rows.push(vec![
            format!("{}", ds.nodes),
            format!("{}", cat.len()),
            format!("{:.1}", box_len),
            format!("{:.4}", density),
        ]);
    }
    print_table(&["nodes(row)", "galaxies", "box (Mpc/h)", "density"], &rows);
    println!("\npaper row density ≈ 0.0726 galaxies (Mpc/h)^-3 for every row.");
    Ok(())
}
