//! Cross-rank integration tests for the cluster simulator's four
//! operations (`send`, `recv`, `split`, `broadcast`) under
//! less-friendly conditions: odd rank counts, deep recursive splits,
//! interleaved traffic and sub-communicator isolation.

use galactos_cluster::{run_cluster, Comm};

/// Sum over a communicator: tagged sends to local rank 0, which adds in
/// rank order and broadcasts.
fn sum_over(comm: &Comm, v: f64) -> f64 {
    if comm.rank() == 0 {
        let total = (1..comm.size()).fold(v, |acc, r| acc + comm.recv::<f64>(r, 9));
        comm.broadcast(0, Some(total))
    } else {
        comm.send(0, 9, v);
        comm.broadcast::<f64>(0, None)
    }
}

#[test]
fn split_isolates_traffic_between_colors() {
    // Messages sent inside one sub-communicator must never be received
    // by the other, even with identical tags.
    let results = run_cluster(4, |mut comm| {
        let color = u64::from(comm.rank() % 2 == 1);
        let sub = comm.split(color);
        // Within each sub-comm of size 2: exchange rank markers.
        let peer = 1 - sub.rank();
        sub.send(peer, 5, comm.rank() as u64 * 100 + color);
        let got: u64 = sub.recv(peer, 5);
        (color, got)
    });
    // Ranks 0,2 are color 0; ranks 1,3 color 1. Exchanges stay in color.
    assert_eq!(results[0], (0, 200));
    assert_eq!(results[2], (0, 0));
    assert_eq!(results[1], (1, 301));
    assert_eq!(results[3], (1, 101));
}

#[test]
fn three_level_recursive_split_with_odd_sizes() {
    // 11 ranks split recursively like the domain decomposition; at each
    // level verify the sub-communicator sums are internally consistent.
    let results = run_cluster(11, |mut comm| {
        let mut current = comm.split(0);
        let mut level_sums = Vec::new();
        let world_rank = comm.rank() as f64;
        while current.size() > 1 {
            level_sums.push(sum_over(&current, world_rank));
            let half = current.size() / 2;
            let color = u64::from(current.rank() >= half);
            current = current.split(color);
        }
        level_sums
    });
    // Level 0: all 11 ranks → sum of 0..=10 = 55 everywhere.
    for r in &results {
        assert_eq!(r[0], 55.0);
    }
    // Deeper sums must be partial sums consistent with a partition:
    // the level-1 sums across members add to 55 (each rank reports the
    // sum of its own half).
    let mut halves: Vec<f64> = results.iter().map(|r| r[1]).collect();
    halves.sort_by(|a, b| a.partial_cmp(b).unwrap());
    halves.dedup();
    assert_eq!(halves.iter().sum::<f64>(), 55.0);
}

#[test]
fn interleaved_tag_storm() {
    // Heavy out-of-order traffic: every rank sends to every other rank
    // on multiple tags, receives in a scrambled order.
    let n = 5usize;
    let results = run_cluster(n, |comm| {
        for dest in 0..n {
            if dest != comm.rank() {
                for tag in 0..4u64 {
                    comm.send(dest, tag, (comm.rank() as u64) * 10 + tag);
                }
            }
        }
        let mut total = 0u64;
        // Receive in reversed tag and rank order.
        for src in (0..n).rev() {
            if src != comm.rank() {
                for tag in (0..4u64).rev() {
                    let v: u64 = comm.recv(src, tag);
                    assert_eq!(v, (src as u64) * 10 + tag);
                    total += v;
                }
            }
        }
        total
    });
    assert_eq!(results.len(), n);
}

#[test]
fn broadcast_from_nonzero_root() {
    let results = run_cluster(7, |comm| {
        if comm.rank() == 5 {
            comm.broadcast(5, Some(String::from("galactos")))
        } else {
            comm.broadcast::<String>(5, None)
        }
    });
    assert!(results.iter().all(|s| s == "galactos"));
}

#[test]
fn gather_large_payload_traffic_counted() {
    // Two non-root ranks ship 80 kB each to the root over tagged sends;
    // every rank's own counters see exactly its side of the traffic.
    let results = run_cluster(3, |comm| {
        if comm.rank() == 0 {
            let got: usize = (1..3).map(|r| comm.recv::<Vec<f64>>(r, 4).len()).sum();
            assert_eq!(got, 20_000);
        } else {
            comm.send(0, 4, vec![comm.rank() as f64; 10_000]);
        }
        comm.traffic().snapshot()
    });
    assert_eq!(
        (results[0].bytes_sent, results[0].messages_received),
        (0, 2)
    );
    for sender in &results[1..] {
        assert!(sender.bytes_sent >= 80_000, "bytes {}", sender.bytes_sent);
        assert_eq!(sender.bytes_sent * 2, results[0].bytes_received);
    }
}
