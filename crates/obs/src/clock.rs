//! The one sanctioned wall-clock gate for the workspace.
//!
//! The workspace `clippy.toml` bans `Instant::{now, elapsed}` and
//! `SystemTime::{now, elapsed}` by `disallowed-methods`, resolved by
//! type, everywhere — tests and examples included. Only `read_now`
//! and [`nanos_since`] here allow them, each with a reason. Every
//! runtime crate (engine, grid, supervised pipeline) times itself
//! through [`now_if`]/[`nanos_since`], and the `reproduce` binary of
//! `crates/bench` and the examples through [`Epoch`], so the zero-cost
//! contract is auditable in one place: when `instrument` is false, no
//! branch in this module touches the clock.
//!
//! Each real clock read also bumps a process-global counter, exposed via
//! [`reads`]. Tests pin the contract by asserting the counter does not
//! move across an uninstrumented run — a much stronger check than
//! "timings came back zero". The counter is one relaxed atomic add per
//! read; uninstrumented runs never reach it.

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

/// Read the clock only when instrumentation is on.
#[inline]
pub fn now_if(instrument: bool) -> Option<Instant> {
    if instrument {
        Some(read_now())
    } else {
        None
    }
}

/// Elapsed nanoseconds since `start`, or 0 without touching the clock
/// when `start` is `None`.
#[inline]
#[allow(
    clippy::disallowed_methods,
    reason = "the one counted elapsed-time read that every other goes through"
)]
pub fn nanos_since(start: Option<Instant>) -> u64 {
    match start {
        Some(t0) => {
            count_read();
            t0.elapsed().as_nanos() as u64
        }
        None => 0,
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
        nanos_since(Some(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstrumented_calls_never_read() {
        let before = thread_reads();
        assert!(now_if(false).is_none());
        assert_eq!(nanos_since(None), 0);
        assert_eq!(thread_reads(), before);
    }

    #[test]
    fn instrumented_calls_count_reads() {
        let before = reads();
        let t0 = now_if(true);
        assert!(t0.is_some());
        let _ = nanos_since(t0);
        assert!(reads() >= before + 2);
    }

    #[test]
    fn epoch_orders_instants() {
        let e = Epoch::now();
        let earlier = e.elapsed_nanos();
        assert!(earlier <= e.elapsed_nanos());
    }
}
