//! The one sanctioned wall-clock gate for the workspace.
//!
//! The workspace `clippy.toml` bans `Instant::{now, elapsed}` and
//! `SystemTime::{now, elapsed}` by `disallowed-methods`, resolved by
//! type, everywhere — tests and examples included. Only the private
//! `read_now` here allows them, with a reason. The public
//! surface is [`Epoch`], [`reads`] and [`Stages`]: every runtime stage
//! split (the tree engine's chunks, the grid estimator, the supervised
//! pipeline's shard tasks) times itself through one [`Stages`] clock,
//! and the obs tracer, the `reproduce` binary of `crates/bench` and
//! the examples through [`Epoch`], so the zero-cost contract is
//! auditable in one place: a stage clock started with `instrument`
//! false never touches the clock.
//!
//! Each real clock read also bumps a process-global counter, exposed via
//! [`reads`]. Tests pin the contract by asserting the counter does not
//! move across an uninstrumented run — a much stronger check than
//! "timings came back zero". The counter is one relaxed atomic add per
//! read; uninstrumented runs never reach it.

use crate::span::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// The calling thread's share of `CLOCK_READS`. The tests that pin
    /// "no read" compare this, not the process-wide count, which the
    /// binary's other tests move from their own threads meanwhile.
    static THREAD_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Process-global number of real clock reads made through this module.
// lint:allow(W-DEADPUB): oracle for the zero-clock contract: core/tests/zero_clock.rs (tree, grid, supervised) and grid's cold/timed test assert it does not move
pub fn reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

/// Clock reads made so far on the calling thread.
#[cfg(test)]
pub(crate) fn thread_reads() -> u64 {
    THREAD_READS.with(std::cell::Cell::get)
}

fn count_read() {
    CLOCK_READS.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_READS.with(|n| n.set(n.get() + 1));
}

#[allow(
    clippy::disallowed_methods,
    reason = "the one counted clock read that every other read goes through"
)]
fn read_now() -> Instant {
    count_read();
    Instant::now()
}

/// A tiling stage clock over `N` stages: each boundary is one clock
/// read, which closes the stage running since the previous boundary
/// and opens the next, so the stages sum exactly to the nanoseconds
/// between the first read and the last. The stages' time is emitted
/// as aggregate slices under the caller's open span ([`Stages::emit`]).
///
/// Started with `instrument` false it holds no boundary, and neither
/// [`Stages::lap`] nor [`Stages::emit`] reads the clock.
#[derive(Debug)]
pub struct Stages<const N: usize> {
    /// The last boundary; `None` when uninstrumented.
    last: Option<Instant>,
    nanos: [u64; N],
}

impl<const N: usize> Stages<N> {
    /// Open the first stage: one clock read when `instrument` is true,
    /// none otherwise.
    pub fn start(instrument: bool) -> Self {
        Stages {
            last: instrument.then(read_now),
            nanos: [0; N],
        }
    }

    /// Charge the time since the previous boundary to `stage`: one
    /// clock read when started instrumented, none otherwise.
    #[inline(always)]
    pub fn lap(&mut self, stage: usize) {
        if let Some(last) = self.last {
            let now = read_now();
            self.nanos[stage] += (now - last).as_nanos() as u64;
            self.last = Some(now);
        }
    }

    /// Record each stage as an aggregate slice of `calls` invocations
    /// under the calling thread's open span, in the order given (zero
    /// clock reads; a no-op on a disabled tracer).
    pub fn emit(&self, tracer: &Tracer, stages: [(&str, u64); N]) {
        for ((name, calls), nanos) in stages.into_iter().zip(self.nanos) {
            tracer.add_aggregate(name, calls, nanos);
        }
    }
}

/// A fixed time origin for trace timestamps: span offsets are measured
/// from the epoch so every track shares one timeline.
#[derive(Clone, Copy, Debug)]
pub struct Epoch(Instant);

impl Epoch {
    /// Capture the current instant as the origin (one clock read).
    pub fn now() -> Self {
        Epoch(read_now())
    }

    /// Nanoseconds elapsed since the epoch (one clock read).
    pub fn elapsed_nanos(&self) -> u64 {
        (read_now() - self.0).as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstrumented_calls_never_read() {
        let before = thread_reads();
        let mut stages = Stages::<2>::start(false);
        stages.lap(0);
        stages.lap(1);
        assert_eq!(stages.nanos, [0, 0]);
        assert_eq!(thread_reads(), before);
    }

    #[test]
    fn instrumented_calls_count_reads() {
        // One read to start and one per lap; the laps tile the time
        // from the first read to the last, exactly.
        let before = thread_reads();
        let mut stages = Stages::<3>::start(true);
        let first = stages.last.unwrap();
        let laps = [0, 2, 1, 2, 2];
        for stage in laps {
            stages.lap(stage);
        }
        assert_eq!(thread_reads(), before + 1 + laps.len() as u64);
        let span = stages.last.unwrap() - first;
        assert_eq!(stages.nanos.iter().sum::<u64>(), span.as_nanos() as u64);
    }

    #[test]
    fn epoch_orders_instants() {
        let e = Epoch::now();
        let earlier = e.elapsed_nanos();
        assert!(earlier <= e.elapsed_nanos());
    }
}
