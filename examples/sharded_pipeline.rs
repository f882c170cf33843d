//! Distributed execution (paper §3.2): shard a catalog to disk as GCAT
//! v2, then compute the 3PCF with every rank reading only its own
//! shards plus its halo neighbors — no rank ever holds the catalog.
//! This is also how to distribute a catalog that is already in memory:
//! write it to a temporary directory first, as step 1 does.
//!
//! ```text
//! cargo run --release --example sharded_pipeline
//! ```

use galactos::catalog::shard::MANIFEST_FILE;
use galactos::domain::shard::{distribute_from_shards, write_sharded};
use galactos::mocks::cluster_process::NeymanScott;
use galactos::prelude::*;

fn main() {
    // A clustered mock standing in for a survey catalog too big to fit
    // on one node (scaled down so the example runs in seconds).
    let mut catalog = NeymanScott {
        parent_density: 1.0e-3,
        mean_children: 10.0,
        sigma: 2.0,
    }
    .generate(80.0, 11);
    catalog.periodic = None;
    println!("catalog: {} galaxies in an 80 Mpc/h box", catalog.len());

    // 1. Shard to disk along the recursive-bisection partition. In
    //    production this happens once, at catalog creation; here we
    //    write 16 shards into a temp directory.
    let dir = std::env::temp_dir().join("galactos_sharded_pipeline_example");
    std::fs::remove_dir_all(&dir).ok();
    let num_shards = 16;
    let manifest = write_sharded(&catalog, num_shards, &dir).expect("write shards");
    println!(
        "wrote {num_shards} shards + manifest ({} records, checksummed)",
        manifest.total_count
    );

    // 2. Peek at what one rank of four would load taking its whole
    //    shard range at once: its own shards (primaries) plus ghosts
    //    from halo-intersecting neighbor shards, each kept or dropped as
    //    its record decodes, so it holds owned + kept ghosts and never a
    //    whole neighbor shard. (The pipeline below works shard by shard,
    //    so a piece of its work holds less still.)
    let rmax = 12.0;
    println!("\nper-rank ingestion at 4 ranks (rmax = {rmax}):");
    println!(
        "{:>5} {:>8} {:>8} {:>14} {:>12}",
        "rank", "owned", "ghosts", "records read", "bytes read"
    );
    for rank in 0..4 {
        let rd = distribute_from_shards(&dir, &manifest, rank, 4, rmax).expect("ingest");
        println!(
            "{:>5} {:>8} {:>8} {:>14} {:>12}",
            rank,
            rd.owned.len(),
            rd.ghosts.len(),
            rd.records_read,
            rd.bytes_read
        );
        assert!(rd.resident() < catalog.len(), "no rank holds the catalog");
    }

    // 3. The full pipeline: the single-process engine's multipoles.
    let config = EngineConfig::test_default(rmax, 3, 5);
    let manifest_path = dir.join(MANIFEST_FILE);
    let run = |ranks: usize| {
        compute_distributed_supervised(
            &manifest_path,
            &config,
            ranks,
            &RetryPolicy::default(),
            FaultPlan::none(),
        )
        .expect("pipeline")
    };
    let sharded = run(4);
    let single = Engine::new(config.clone()).compute(&catalog);
    let scale = single.max_abs().max(1.0);
    let diff = sharded.zeta.max_difference(&single) / scale;
    println!(
        "\nsharded (4 ranks) vs single-process: rel diff {diff:.2e}, \
         {} binned pairs, 0 bytes over the fabric",
        sharded.zeta.binned_pairs
    );
    assert!(diff < 1e-9);

    // 4. Partials are per shard and reduced in shard order, so the rank
    //    count does not move a bit of the result.
    let bits = |z: &AnisotropicZeta| {
        z.to_f64_vec()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&run(2).zeta), bits(&sharded.zeta));
    println!("sharded (2 ranks) == sharded (4 ranks), bit for bit");

    std::fs::remove_dir_all(&dir).ok();
}
