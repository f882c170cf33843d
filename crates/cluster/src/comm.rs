//! Ranks and communicators: `send`, `recv`, `split`, `broadcast`.
//!
//! Sends are asynchronous (unbounded channels), receives block with
//! `(source, tag)` matching, and communicators can be split into
//! sub-communicators — the operation at the heart of the paper's
//! recursive k-d partitioning, where "each level of the tree divides MPI
//! processes into sub-communicators of nearly equal size". These four
//! are what `galactos_domain::exchange::distribute` uses; the final ζ
//! reduction happens outside the cluster, over the ranks' returned
//! partials.
//!
//! Failure semantics: every rank announces its termination (clean return
//! or panic) to every mailbox, so a receive whose peer has already died
//! fails with a [`RecvError`] naming the rank and tag instead of
//! blocking forever. [`run_cluster`] propagates a rank's panic once
//! every rank has returned; catching one and retrying the lost work is
//! the supervisor's job (`galactos_core::pipeline`), not this crate's.

use crate::payload::Payload;
use crate::stats::TrafficStats;
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
    /// Traffic counters, one per world rank.
    stats: Vec<Arc<TrafficStats>>,
}

/// Why a receive can never complete: the panic message of a
/// [`Comm::recv`] whose peer is gone. Names the peer (local rank within
/// the communicator, and world rank) and tag, so the report says *which*
/// exchange died.
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
        &self.fabric.stats[self.group[self.my_local]]
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
        self.fabric.stats[src_world].record_send(bytes);
        self.fabric.senders[dest_world]
            .send(Envelope::Message {
                key: (self.comm_id, tag, src_world),
                bytes,
                data: Box::new(value),
            })
            .expect("rank mailbox closed — the cluster fabric shut down");
    }

    /// Block until a message from local rank `src` with `tag` arrives.
    /// Panics if the payload type does not match `T`, or — with the
    /// [`RecvError`] text — once the message can provably never arrive
    /// because the peer has terminated without sending it: the failure
    /// mode that would otherwise hang forever.
    pub fn recv<T: Payload>(&self, src: usize, tag: u64) -> T {
        assert!(
            tag & INTERNAL_TAG == 0,
            "user tags must not set the top bit"
        );
        self.recv_raw(src, tag).unwrap_or_else(|e| panic!("{e}"))
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
                self.fabric.stats[my_world].record_recv(bytes);
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
}

fn split_tag(generation: u64) -> u64 {
    SPLIT_TAG_BASE + generation
}

const BCAST_TAG: u64 = 2;
const SPLIT_TAG_BASE: u64 = 1000;

/// Run `f` on `num_ranks` concurrent ranks, each on a thread with a
/// 4 MiB stack; returns each rank's result, ordered by rank. Every rank
/// runs to its end — a receive aimed at a dead peer fails with
/// [`RecvError`] rather than hanging, so one death cascades *visibly* —
/// and then the first panicked rank is reported with a panic naming it.
pub fn run_cluster<T, F>(num_ranks: usize, f: F) -> Vec<T>
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
        stats: (0..num_ranks)
            .map(|_| Arc::new(TrafficStats::default()))
            .collect(),
    });
    let world: Arc<Vec<usize>> = Arc::new((0..num_ranks).collect());

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
                .stack_size(4 << 20)
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
        // Join every rank before reporting, so no thread is left
        // blocked behind the first failure.
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("rank wrapper never panics: the body is caught")
            })
            .collect();
        outcomes
            .into_iter()
            .enumerate()
            .map(|(rank, r)| r.unwrap_or_else(|_| panic!("rank {rank} panicked")))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The text of a caught panic (`panic!` with a format string).
    fn panic_text(payload: Box<dyn Any + Send>) -> String {
        *payload.downcast::<String>().expect("string panic payload")
    }

    /// Element sum over a communicator from the surviving operations:
    /// tagged sends to local rank 0, which adds and broadcasts.
    fn sum_over(comm: &Comm, v: f64) -> f64 {
        if comm.rank() == 0 {
            let total = (1..comm.size()).fold(v, |acc, r| acc + comm.recv::<f64>(r, 77));
            comm.broadcast(0, Some(total))
        } else {
            comm.send(0, 77, v);
            comm.broadcast::<f64>(0, None)
        }
    }

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
        // The halo-exchange shape: both peers send first, then receive.
        // Safe because sends are asynchronous.
        let results = run_cluster(2, |comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 5, comm.rank() as u64);
            comm.recv::<u64>(peer, 5)
        });
        assert_eq!(results, vec![1, 0]);
    }

    #[test]
    fn gather_ordered_by_rank() {
        // The gather pattern from tagged sends: one shared tag, and the
        // root's receives match on the source, whatever order the
        // messages arrived in.
        let results = run_cluster(4, |comm| {
            if comm.rank() != 0 {
                comm.send(0, 3, comm.rank() as u64 * 10);
                return Vec::new();
            }
            (1..comm.size())
                .rev()
                .map(|r| comm.recv::<u64>(r, 3))
                .collect()
        });
        assert_eq!(results[0], vec![30, 20, 10]);
    }

    #[test]
    fn split_into_halves() {
        let results = run_cluster(5, |mut comm| {
            // 0,1 -> color 0; 2,3,4 -> color 1 (non-power-of-two split)
            let color = u64::from(comm.rank() >= 2);
            let sub = comm.split(color);
            // Sum ranks within each sub-communicator.
            (sub.rank(), sub.size(), sum_over(&sub, comm.rank() as f64))
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
            comm.traffic().snapshot()
        });
        // 8000 payload bytes plus the length prefix, one message, and
        // nothing in the other direction.
        assert_eq!(results[0].bytes_sent, 8008);
        assert_eq!(results[0].messages_sent, 1);
        assert_eq!(results[1].bytes_received, results[0].bytes_sent);
        assert_eq!(results[1].messages_received, 1);
        assert_eq!(results[1].bytes_sent + results[0].bytes_received, 0);
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
    fn many_ranks_run_to_completion() {
        let results = run_cluster(64, |comm| sum_over(&comm, 1.0) as usize);
        assert!(results.iter().all(|&r| r == 64));
    }

    // ---- dead peers: a receive that can never complete ends, with
    // ---- the RecvError text, instead of hanging ----

    #[test]
    fn recv_from_panicked_peer_errors_instead_of_hanging() {
        let seen = Mutex::new(String::new());
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_cluster(2, |comm| {
                if comm.rank() == 1 {
                    panic!("simulated node failure");
                }
                // Without termination notices this would block forever.
                let err = catch_unwind(AssertUnwindSafe(|| comm.recv::<u64>(1, 42))).unwrap_err();
                *seen.lock() = panic_text(err);
            })
        }));
        assert_eq!(panic_text(run.unwrap_err()), "rank 1 panicked");
        let msg = seen.lock().clone();
        assert!(
            msg.contains("src rank 1 [world 1]"),
            "names the peer: {msg}"
        );
        assert!(msg.contains("tag 42"), "names the tag: {msg}");
        assert!(
            msg.contains("terminated abnormally"),
            "names the cause: {msg}"
        );
    }

    #[test]
    fn recv_from_cleanly_finished_peer_errors() {
        let results = run_cluster(3, |mut comm| {
            // Ranks 1 and 2 form a sub-communicator, so the peer's local
            // rank (0) and world rank (1) differ in the message.
            let sub = comm.split(u64::from(comm.rank() > 0));
            if comm.rank() != 2 {
                return String::new();
            }
            panic_text(catch_unwind(AssertUnwindSafe(|| sub.recv::<u64>(0, 7))).unwrap_err())
        });
        let msg = &results[2];
        assert!(msg.contains("src rank 0 [world 1], tag 7"), "{msg}");
        assert!(msg.contains("finished without sending"), "{msg}");
    }

    #[test]
    fn messages_sent_before_death_are_still_received() {
        // Per-sender FIFO: the termination notice trails the payload.
        let got = Mutex::new(0u64);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_cluster(2, |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 3, 99u64);
                    panic!("dies after sending");
                }
                *got.lock() = comm.recv::<u64>(0, 3);
            })
        }));
        assert_eq!(panic_text(run.unwrap_err()), "rank 0 panicked");
        assert_eq!(*got.lock(), 99);
    }

    #[test]
    fn collective_with_dead_rank_fails_structurally_not_by_hanging() {
        // Rank 2 dies before the split; the root cannot collect its
        // color and the others cannot get their member list, so every
        // rank resolves to a failure instead of deadlocking the process.
        let survivors = Mutex::new(Vec::new());
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_cluster(3, |mut comm| {
                if comm.rank() == 2 {
                    panic!("dies before the collective");
                }
                let err = catch_unwind(AssertUnwindSafe(|| comm.split(0))).err();
                survivors.lock().push(err.map(panic_text));
            })
        }));
        assert_eq!(panic_text(run.unwrap_err()), "rank 2 panicked");
        let survivors = survivors.lock();
        assert_eq!(survivors.len(), 2);
        for msg in survivors.iter() {
            let msg = msg.as_ref().expect("the split cannot complete");
            assert!(
                msg.starts_with("collective cannot complete: recv("),
                "{msg}"
            );
        }
    }
}
