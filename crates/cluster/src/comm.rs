//! Ranks, communicators and collectives.
//!
//! Sends are asynchronous (unbounded channels), receives block with
//! `(source, tag)` matching, and communicators can be split into
//! sub-communicators — the operation at the heart of the paper's
//! recursive k-d partitioning, where "each level of the tree divides MPI
//! processes into sub-communicators of nearly equal size".
//!
//! Failure semantics: every rank announces its termination (clean return
//! or panic) to every mailbox, so a receive whose peer has already died
//! returns a [`RecvError`] naming the rank and tag instead of blocking
//! forever. [`run_cluster`] keeps the historical panic-propagation
//! behaviour; [`run_cluster_supervised`] instead converts each rank
//! panic — including kills injected by a
//! [`FaultHarness`] — into a structured
//! [`RankFailure`] so a driver can retry or reassign the lost work.

use crate::fault::{classify_panic, FaultHarness, RankFailure};
use crate::payload::Payload;
use crate::stats::{ClusterStats, TrafficStats};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Tag bit reserved for internal collective traffic; user tags must keep
/// it clear.
const INTERNAL_TAG: u64 = 1 << 63;

type MsgKey = (u64, u64, usize); // (comm id, tag, source world rank)

enum Envelope {
    Message {
        key: MsgKey,
        bytes: usize,
        data: Box<dyn Any + Send>,
    },
    /// Termination notice: `world_rank` has left the cluster, cleanly or
    /// not. Sent to every mailbox by the rank wrapper so blocked
    /// receivers wake up instead of hanging.
    Terminated { world_rank: usize, clean: bool },
}

/// Per-world-rank mailbox: one channel receiver plus a buffer for
/// messages that arrived before they were asked for.
struct Mailbox {
    rx: Receiver<Envelope>,
    pending: Mutex<HashMap<MsgKey, VecDeque<Parcel>>>,
    /// World ranks known to have terminated (`true` = clean return).
    dead: Mutex<HashMap<usize, bool>>,
}

/// A buffered message: its wire size plus the boxed payload.
type Parcel = (usize, Box<dyn Any + Send>);

struct Fabric {
    senders: Vec<Sender<Envelope>>,
    mailboxes: Vec<Arc<Mailbox>>,
    stats: ClusterStats,
}

/// Failure returned by [`Comm::recv_result`] when the message can never
/// arrive. Names the peer (local rank within the communicator) and tag
/// so a supervisor can tell *which* exchange died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecvError {
    /// Local rank of the peer within the communicator.
    pub source: usize,
    /// World rank of the peer.
    pub source_world: usize,
    pub tag: u64,
    pub kind: RecvErrorKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvErrorKind {
    /// The peer panicked or was killed before sending a matching message.
    PeerFailed,
    /// The peer returned cleanly without sending a matching message.
    PeerFinished,
    /// The whole fabric shut down while this rank was still receiving.
    FabricClosed,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            RecvErrorKind::PeerFailed => "terminated abnormally (panicked or killed)",
            RecvErrorKind::PeerFinished => "finished without sending a matching message",
            RecvErrorKind::FabricClosed => "is unreachable: the cluster fabric closed",
        };
        write!(
            f,
            "recv(src rank {} [world {}], tag {}) cannot complete: peer {}",
            self.source, self.source_world, self.tag, what
        )
    }
}

impl std::error::Error for RecvError {}

/// A communicator: a view of a subset of world ranks, with local ranks
/// `0..size()` mapping onto world ranks through `group`.
pub struct Comm {
    fabric: Arc<Fabric>,
    /// `group[local rank] = world rank`; sorted construction keeps local
    /// order consistent with parent order.
    group: Arc<Vec<usize>>,
    my_local: usize,
    comm_id: u64,
    /// Number of `split` calls made on this communicator (kept identical
    /// across members because `split` is collective).
    split_counter: u64,
}

impl Comm {
    /// This rank's id within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_local
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This rank's traffic counters.
    pub fn traffic(&self) -> &Arc<TrafficStats> {
        self.fabric.stats.rank(self.group[self.my_local])
    }

    /// Cluster-wide traffic statistics (shared by all ranks).
    pub fn cluster_stats(&self) -> &ClusterStats {
        &self.fabric.stats
    }

    /// Asynchronously send `value` to local rank `dest` under `tag`.
    pub fn send<T: Payload>(&self, dest: usize, tag: u64, value: T) {
        assert!(
            tag & INTERNAL_TAG == 0,
            "user tags must not set the top bit"
        );
        self.send_raw(dest, tag, value);
    }

    fn send_raw<T: Payload>(&self, dest: usize, tag: u64, value: T) {
        assert!(
            dest < self.size(),
            "dest {dest} out of range 0..{}",
            self.size()
        );
        let bytes = value.wire_bytes();
        let src_world = self.group[self.my_local];
        let dest_world = self.group[dest];
        self.fabric.stats.rank(src_world).record_send(bytes);
        self.fabric.senders[dest_world]
            .send(Envelope::Message {
                key: (self.comm_id, tag, src_world),
                bytes,
                data: Box::new(value),
            })
            .expect("rank mailbox closed — the cluster fabric shut down");
    }

    /// Block until a message from local rank `src` with `tag` arrives;
    /// panics if the payload type does not match `T` or if the peer
    /// terminated without sending (see [`Comm::recv_result`] for the
    /// non-panicking form).
    pub fn recv<T: Payload>(&self, src: usize, tag: u64) -> T {
        assert!(
            tag & INTERNAL_TAG == 0,
            "user tags must not set the top bit"
        );
        self.recv_raw(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Block until a message from local rank `src` with `tag` arrives,
    /// or until that can provably never happen because the peer has
    /// terminated — the failure mode that used to hang forever.
    pub fn recv_result<T: Payload>(&self, src: usize, tag: u64) -> Result<T, RecvError> {
        assert!(
            tag & INTERNAL_TAG == 0,
            "user tags must not set the top bit"
        );
        self.recv_raw(src, tag)
    }

    fn recv_raw<T: Payload>(&self, src: usize, tag: u64) -> Result<T, RecvError> {
        assert!(
            src < self.size(),
            "src {src} out of range 0..{}",
            self.size()
        );
        let src_world = self.group[src];
        let my_world = self.group[self.my_local];
        let want: MsgKey = (self.comm_id, tag, src_world);
        let mailbox = &self.fabric.mailboxes[my_world];
        loop {
            // Drain everything immediately available, then consult the
            // buffers. Per-sender FIFO guarantees that a peer's
            // termination notice is drained only after all of its
            // messages, so "dead and not buffered" means "never coming".
            while let Some(env) = mailbox.rx.try_recv() {
                Self::absorb(mailbox, env);
            }
            if let Some((bytes, data)) = Self::take_pending(mailbox, &want) {
                self.fabric.stats.rank(my_world).record_recv(bytes);
                return Ok(Self::downcast::<T>(data));
            }
            if let Some(&clean) = mailbox.dead.lock().get(&src_world) {
                return Err(RecvError {
                    source: src,
                    source_world: src_world,
                    tag,
                    kind: if clean {
                        RecvErrorKind::PeerFinished
                    } else {
                        RecvErrorKind::PeerFailed
                    },
                });
            }
            match mailbox.rx.recv() {
                Ok(env) => Self::absorb(mailbox, env),
                Err(_) => {
                    return Err(RecvError {
                        source: src,
                        source_world: src_world,
                        tag,
                        kind: RecvErrorKind::FabricClosed,
                    })
                }
            }
        }
    }

    /// File one drained envelope: a termination notice marks the peer
    /// dead, a message lands in the pending buffer.
    fn absorb(mailbox: &Mailbox, env: Envelope) {
        match env {
            Envelope::Terminated { world_rank, clean } => {
                mailbox.dead.lock().entry(world_rank).or_insert(clean);
            }
            Envelope::Message { key, bytes, data } => {
                mailbox
                    .pending
                    .lock()
                    .entry(key)
                    .or_default()
                    .push_back((bytes, data));
            }
        }
    }

    fn take_pending(mailbox: &Mailbox, want: &MsgKey) -> Option<Parcel> {
        let mut pending = mailbox.pending.lock();
        pending.get_mut(want).and_then(|queue| queue.pop_front())
    }

    fn downcast<T: 'static>(data: Box<dyn Any + Send>) -> T {
        *data
            .downcast::<T>()
            .expect("message payload type mismatch between send and recv")
    }

    /// Combined send+receive with the same peer (the halo-exchange
    /// communication shape). Safe against deadlock because sends are
    /// asynchronous.
    pub fn send_recv<T: Payload>(&self, peer: usize, tag: u64, value: T) -> T {
        self.send(peer, tag, value);
        self.recv(peer, tag)
    }

    /// Collective: split into sub-communicators by `color`. Every member
    /// of the communicator must call this the same number of times.
    /// Local ranks within each new communicator follow parent order.
    pub fn split(&mut self, color: u64) -> Comm {
        let gen = self.split_counter;
        self.split_counter += 1;

        // Gather colors at local root, which computes and distributes
        // the per-color member lists.
        let members: Vec<usize> = if self.my_local == 0 {
            let mut colors = vec![(0usize, color)];
            for r in 1..self.size() {
                let c: u64 = self.recv_internal(r, split_tag(gen));
                colors.push((r, c));
            }
            // Build per-color lists ordered by parent rank.
            let mut by_color: HashMap<u64, Vec<usize>> = HashMap::new();
            for &(r, c) in &colors {
                by_color.entry(c).or_default().push(r);
            }
            for &(r, c) in colors.iter().skip(1) {
                let list = by_color[&c].clone();
                self.send_internal(r, split_tag(gen), list);
                let _ = r;
            }
            by_color.remove(&color).expect("root color list")
        } else {
            self.send_internal(0, split_tag(gen), color);
            self.recv_internal::<Vec<usize>>(0, split_tag(gen))
        };

        let my_new_local = members
            .iter()
            .position(|&r| r == self.my_local)
            .expect("rank missing from its own color group");
        let group: Vec<usize> = members.iter().map(|&r| self.group[r]).collect();

        // All members derive the same child id locally.
        let mut h = DefaultHasher::new();
        (self.comm_id, gen, color).hash(&mut h);
        let comm_id = h.finish() | 1; // never collide with the world id 0

        Comm {
            fabric: Arc::clone(&self.fabric),
            group: Arc::new(group),
            my_local: my_new_local,
            comm_id,
            split_counter: 0,
        }
    }

    fn send_internal<T: Payload>(&self, dest: usize, tag: u64, value: T) {
        self.send_raw(dest, tag | INTERNAL_TAG, value);
    }

    fn recv_internal<T: Payload>(&self, src: usize, tag: u64) -> T {
        self.recv_raw(src, tag | INTERNAL_TAG)
            .unwrap_or_else(|e| panic!("collective cannot complete: {e}"))
    }

    /// Collective: block until every rank of the communicator arrives.
    pub fn barrier(&self) {
        if self.my_local == 0 {
            for r in 1..self.size() {
                let _: () = self.recv_internal(r, BARRIER_TAG);
            }
            for r in 1..self.size() {
                self.send_internal(r, BARRIER_TAG, ());
            }
        } else {
            self.send_internal(0, BARRIER_TAG, ());
            let _: () = self.recv_internal(0, BARRIER_TAG);
        }
    }

    /// Collective: root's value is distributed to every rank.
    pub fn broadcast<T: Payload + Clone>(&self, root: usize, value: Option<T>) -> T {
        if self.my_local == root {
            let v = value.expect("root must provide the broadcast value");
            for r in 0..self.size() {
                if r != root {
                    self.send_internal(r, BCAST_TAG, v.clone());
                }
            }
            v
        } else {
            self.recv_internal(root, BCAST_TAG)
        }
    }

    /// Collective: root receives every rank's value, ordered by rank.
    pub fn gather<T: Payload>(&self, root: usize, value: T) -> Option<Vec<T>> {
        if self.my_local == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (r, slot) in out.iter_mut().enumerate() {
                if r != root {
                    *slot = Some(self.recv_internal(r, GATHER_TAG));
                }
            }
            Some(out.into_iter().map(|v| v.unwrap()).collect())
        } else {
            self.send_internal(root, GATHER_TAG, value);
            None
        }
    }

    /// Collective: element-wise sum of `data` across ranks, result on
    /// every rank (the final multipole reduction of Algorithm 1).
    pub fn allreduce_sum_f64(&self, data: &mut Vec<f64>) {
        let gathered = self.gather(0, std::mem::take(data));
        if self.my_local == 0 {
            let parts = gathered.unwrap();
            let len = parts[0].len();
            let mut acc = vec![0.0f64; len];
            for part in &parts {
                assert_eq!(part.len(), len, "allreduce length mismatch");
                for (a, v) in acc.iter_mut().zip(part.iter()) {
                    *a += v;
                }
            }
            *data = self.broadcast(0, Some(acc));
        } else {
            *data = self.broadcast::<Vec<f64>>(0, None);
        }
    }

    /// Collective: sum reduced to root only.
    pub fn reduce_sum_f64(&self, root: usize, data: Vec<f64>) -> Option<Vec<f64>> {
        let gathered = self.gather(root, data);
        gathered.map(|parts| {
            let len = parts[0].len();
            let mut acc = vec![0.0f64; len];
            for part in &parts {
                assert_eq!(part.len(), len, "reduce length mismatch");
                for (a, v) in acc.iter_mut().zip(part.iter()) {
                    *a += v;
                }
            }
            acc
        })
    }
}

fn split_tag(generation: u64) -> u64 {
    SPLIT_TAG_BASE + generation
}

const BARRIER_TAG: u64 = 1;
const BCAST_TAG: u64 = 2;
const GATHER_TAG: u64 = 3;
const SPLIT_TAG_BASE: u64 = 1000;

/// Run `f` on `num_ranks` concurrent ranks; returns each rank's result,
/// ordered by rank. Panics in any rank propagate.
pub fn run_cluster<T, F>(num_ranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    run_cluster_with_stacks(num_ranks, 4 << 20, f)
}

/// [`run_cluster`] with an explicit per-rank stack size (large rank
/// counts want small stacks).
pub fn run_cluster_with_stacks<T, F>(num_ranks: usize, stack_bytes: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    run_cluster_inner(num_ranks, stack_bytes, None, f)
        .into_iter()
        .enumerate()
        .map(|(rank, r)| r.unwrap_or_else(|_| panic!("rank {rank} panicked")))
        .collect()
}

/// Run `f` on `num_ranks` ranks, converting each rank's panic (organic
/// or injected) into a [`RankFailure`] instead of propagating it;
/// `harness` is read only for the phase the failed rank last entered.
/// Surviving ranks keep running: a receive aimed at a
/// dead peer fails with [`RecvError`] rather than hanging, so failures
/// cascade *visibly* through collectives and the supervisor gets one
/// `Result` per rank.
pub fn run_cluster_supervised<T, F>(
    num_ranks: usize,
    harness: Arc<FaultHarness>,
    f: F,
) -> Vec<Result<T, RankFailure>>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    assert!(
        harness.num_ranks() >= num_ranks,
        "harness sized for {} ranks, cluster has {num_ranks}",
        harness.num_ranks()
    );
    run_cluster_inner(num_ranks, 4 << 20, Some(harness), f)
}

fn run_cluster_inner<T, F>(
    num_ranks: usize,
    stack_bytes: usize,
    harness: Option<Arc<FaultHarness>>,
    f: F,
) -> Vec<Result<T, RankFailure>>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    assert!(num_ranks > 0, "need at least one rank");
    let mut senders = Vec::with_capacity(num_ranks);
    let mut mailboxes = Vec::with_capacity(num_ranks);
    for _ in 0..num_ranks {
        let (tx, rx) = unbounded();
        senders.push(tx);
        mailboxes.push(Arc::new(Mailbox {
            rx,
            pending: Mutex::new(HashMap::new()),
            dead: Mutex::new(HashMap::new()),
        }));
    }
    let fabric = Arc::new(Fabric {
        senders,
        mailboxes,
        stats: ClusterStats::new(num_ranks),
    });
    let world: Arc<Vec<usize>> = Arc::new((0..num_ranks).collect());

    let mut results: Vec<Option<Result<T, RankFailure>>> = (0..num_ranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_ranks);
        for rank in 0..num_ranks {
            let comm = Comm {
                fabric: Arc::clone(&fabric),
                group: Arc::clone(&world),
                my_local: rank,
                comm_id: 0,
                split_counter: 0,
            };
            let f = &f;
            let fabric = Arc::clone(&fabric);
            let handle = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(stack_bytes)
                .spawn_scoped(scope, move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
                    // Announce termination to every mailbox (self
                    // included) so blocked peers wake up. Notices bypass
                    // traffic stats: they model the runtime noticing a
                    // death, not application traffic.
                    let clean = result.is_ok();
                    for dest in 0..num_ranks {
                        let _ = fabric.senders[dest].send(Envelope::Terminated {
                            world_rank: rank,
                            clean,
                        });
                    }
                    result
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            let outcome = handle
                .join()
                .expect("rank wrapper never panics: the body is caught");
            results[rank] = Some(outcome.map_err(|payload| {
                RankFailure {
                    rank,
                    phase: harness
                        .as_ref()
                        .map(|h| h.phase_of(rank))
                        .unwrap_or_default(),
                    cause: classify_panic(payload.as_ref()),
                }
            }));
        }
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FailureCause, FaultPlan, KillSpec};

    #[test]
    fn ping_pong() {
        let results = run_cluster(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42u64);
                comm.recv::<u64>(1, 8)
            } else {
                let v = comm.recv::<u64>(0, 7);
                comm.send(0, 8, v * 2);
                v
            }
        });
        assert_eq!(results, vec![84, 42]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_cluster(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64);
                comm.send(1, 2, 20u64);
                comm.send(1, 3, 30u64);
                0
            } else {
                // Receive in reverse order of sending.
                let c = comm.recv::<u64>(0, 3);
                let b = comm.recv::<u64>(0, 2);
                let a = comm.recv::<u64>(0, 1);
                a + b * 100 + c * 10_000
            }
        });
        assert_eq!(results[1], 10 + 2000 + 300_000);
    }

    #[test]
    fn send_recv_is_deadlock_free() {
        let results = run_cluster(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send_recv(peer, 5, comm.rank() as u64)
        });
        assert_eq!(results, vec![1, 0]);
    }

    #[test]
    fn barrier_and_broadcast() {
        let results = run_cluster(5, |comm| {
            comm.barrier();
            let v = if comm.rank() == 2 {
                comm.broadcast(2, Some(vec![1.0f64, 2.0, 3.0]))
            } else {
                comm.broadcast::<Vec<f64>>(2, None)
            };
            comm.barrier();
            v[2]
        });
        assert_eq!(results, vec![3.0; 5]);
    }

    #[test]
    fn gather_ordered_by_rank() {
        let results = run_cluster(4, |comm| comm.gather(0, comm.rank() as u64 * 10));
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert_eq!(results[1], None);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let results = run_cluster(3, |comm| {
            let mut data = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum_f64(&mut data);
            data
        });
        for r in results {
            assert_eq!(r, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn split_into_halves() {
        let results = run_cluster(5, |mut comm| {
            // 0,1 -> color 0; 2,3,4 -> color 1 (non-power-of-two split)
            let color = u64::from(comm.rank() >= 2);
            let sub = comm.split(color);
            // Sum ranks within each sub-communicator.
            let mut v = vec![comm.rank() as f64];
            sub.allreduce_sum_f64(&mut v);
            (sub.rank(), sub.size(), v[0])
        });
        assert_eq!(results[0], (0, 2, 1.0)); // 0+1
        assert_eq!(results[1], (1, 2, 1.0));
        assert_eq!(results[2], (0, 3, 9.0)); // 2+3+4
        assert_eq!(results[3], (1, 3, 9.0));
        assert_eq!(results[4], (2, 3, 9.0));
    }

    #[test]
    fn recursive_split_matches_kd_pattern() {
        // Split 6 ranks 3 levels deep like the domain decomposition does.
        let results = run_cluster(6, |mut comm| {
            let mut path = Vec::new();
            let mut current = comm.split(0); // trivial split to exercise nesting
            let _ = &mut comm;
            while current.size() > 1 {
                let half = current.size() / 2;
                let color = u64::from(current.rank() >= half);
                path.push(color);
                current = current.split(color);
            }
            assert_eq!(current.size(), 1);
            path
        });
        // All leaf paths must be distinct.
        let mut seen = std::collections::HashSet::new();
        for p in results {
            assert!(seen.insert(p.clone()), "duplicate leaf path {p:?}");
        }
    }

    #[test]
    fn traffic_accounting() {
        let results = run_cluster(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![0.0f64; 1000]);
            } else {
                let _ = comm.recv::<Vec<f64>>(0, 9);
            }
            comm.barrier();
            comm.cluster_stats().total_bytes_sent()
        });
        // 8008 payload bytes plus small barrier messages.
        assert!(results[0] >= 8008, "bytes {}", results[0]);
        assert_eq!(results[0], results[1]);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn type_mismatch_panics() {
        run_cluster(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 1.0f64);
            } else {
                let _ = comm.recv::<u64>(0, 1);
            }
        });
    }

    #[test]
    fn many_ranks_with_small_stacks() {
        let results = run_cluster_with_stacks(64, 256 << 10, |comm| {
            let mut v = vec![1.0f64];
            comm.allreduce_sum_f64(&mut v);
            v[0] as usize
        });
        assert!(results.iter().all(|&r| r == 64));
    }

    // ---- fault injection and supervision ----

    fn harness(plan: FaultPlan, num_ranks: usize) -> Arc<FaultHarness> {
        Arc::new(FaultHarness::new(plan, num_ranks))
    }

    #[test]
    fn recv_from_panicked_peer_errors_instead_of_hanging() {
        let results = run_cluster_supervised(2, harness(FaultPlan::none(), 2), |comm| {
            if comm.rank() == 1 {
                panic!("simulated node failure");
            }
            // Without termination notices this would block forever.
            let err = comm.recv_result::<u64>(1, 42).unwrap_err();
            assert_eq!(err.source, 1);
            assert_eq!(err.tag, 42);
            assert_eq!(err.kind, RecvErrorKind::PeerFailed);
            let msg = err.to_string();
            assert!(msg.contains("rank 1"), "message names the rank: {msg}");
            assert!(msg.contains("tag 42"), "message names the tag: {msg}");
            err.source
        });
        assert!(results[0].is_ok());
        let failure = results[1].as_ref().unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(
            failure.cause,
            FailureCause::Panic("simulated node failure".to_string())
        );
    }

    #[test]
    fn recv_from_cleanly_finished_peer_errors() {
        let results = run_cluster_supervised(2, harness(FaultPlan::none(), 2), |comm| {
            if comm.rank() == 1 {
                return 0;
            }
            let err = comm.recv_result::<u64>(1, 7).unwrap_err();
            assert_eq!(err.kind, RecvErrorKind::PeerFinished);
            1
        });
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn messages_sent_before_death_are_still_received() {
        // Per-sender FIFO: the termination notice trails the payload.
        let results = run_cluster_supervised(2, harness(FaultPlan::none(), 2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, 99u64);
                panic!("dies after sending");
            }
            comm.recv_result::<u64>(0, 3).unwrap()
        });
        assert_eq!(*results[1].as_ref().unwrap(), 99);
    }

    #[test]
    fn injected_kill_reports_phase_and_cause() {
        let h = harness(FaultPlan::none().with_phase_kill(1, "compute", 1), 3);
        let results = run_cluster_supervised(3, Arc::clone(&h), |comm| {
            h.enter_phase(comm.rank(), "ingest");
            h.enter_phase(comm.rank(), "compute");
            comm.rank()
        });
        assert!(results[0].is_ok() && results[2].is_ok());
        let failure = results[1].as_ref().unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.phase, "compute");
        assert_eq!(failure.cause, FailureCause::InjectedKill);
    }

    #[test]
    fn collective_with_dead_rank_fails_structurally_not_by_hanging() {
        let h = harness(FaultPlan::none().with_phase_kill(2, "pre-barrier", 1), 3);
        let results = run_cluster_supervised(3, Arc::clone(&h), |comm| {
            h.enter_phase(comm.rank(), "pre-barrier");
            comm.barrier();
            comm.rank()
        });
        // Rank 2 dies; the barrier cannot complete, so every rank
        // resolves to a failure instead of deadlocking the process.
        assert!(results[2].is_err());
        assert!(results.iter().any(|r| r.is_err()));
    }

    #[test]
    fn transient_kill_fires_once_across_supervised_rounds() {
        let plan = FaultPlan::none().with_phase_kill(0, "work", 1);
        let h = harness(plan, 2);
        let first = run_cluster_supervised(2, Arc::clone(&h), |comm| {
            h.enter_phase(comm.rank(), "work");
            comm.rank()
        });
        assert!(first[0].is_err());
        assert!(first[1].is_ok());
        // Same harness, second round: the kill budget is spent.
        let second = run_cluster_supervised(2, Arc::clone(&h), |comm| {
            h.enter_phase(comm.rank(), "work");
            comm.rank()
        });
        assert!(second[0].is_ok());
    }

    #[test]
    fn permanent_kill_fires_every_round() {
        let plan = FaultPlan::none().with_phase_kill(1, "work", KillSpec::ALWAYS);
        let h = harness(plan, 2);
        for _ in 0..3 {
            let round = run_cluster_supervised(2, Arc::clone(&h), |comm| {
                h.enter_phase(comm.rank(), "work");
                comm.rank()
            });
            assert!(round[1].is_err());
        }
    }
}
