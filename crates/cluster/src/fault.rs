//! Deterministic fault injection for the cluster.
//!
//! At the paper's scale — 9,636 KNL nodes held for the full 2-billion-
//! galaxy O(N²) run — rank failure is the expected case, not the
//! exception. This module gives the simulator a *failure model* that is
//! reproducible down to the bit: a [`FaultPlan`] names, ahead of time,
//! exactly which ranks to kill at which point, and a [`FaultHarness`]
//! executes the plan with deterministic counters. No randomness at
//! runtime, no clocks: a plan replayed against the same program
//! produces the same failure at the same operation.
//!
//! There is one kind of fault: a [`KillSpec`] terminates a chosen rank
//! when it enters a named *phase* ([`FaultHarness::enter_phase`]). A
//! kill fires at most [`KillSpec::times`] times across the whole run —
//! counters persist across supervised retries, so `times: 1` models a
//! transient fault (the retry succeeds) and [`KillSpec::ALWAYS`] models
//! a permanently dead node (retries exhaust and work is reassigned).
//! The fabric moves messages and the harness kills ranks: no fault
//! touches a message.
//!
//! A fired kill raises a panic with an [`InjectedKill`] payload; the
//! supervisor (`galactos_core::pipeline`) catches it — and ordinary
//! rank panics — and [`classify_panic`] turns the payload into the
//! cause of a structured [`RankFailure`] instead of poisoning the whole
//! run.

use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicU32, Ordering};

/// Kill one rank on entering a phase, at most `times` times.
#[derive(Clone, Debug)]
pub struct KillSpec {
    /// World rank of the victim (the top-level cluster's numbering).
    pub rank: usize,
    /// The phase name, as passed to [`FaultHarness::enter_phase`].
    pub phase: String,
    /// How many times this kill may fire across the whole run,
    /// *including supervised retries*. `1` = transient fault;
    /// [`KillSpec::ALWAYS`] = permanently dead node.
    pub times: u32,
}

impl KillSpec {
    /// `times` value modelling a permanently dead rank.
    pub const ALWAYS: u32 = u32::MAX;
}

/// A complete, deterministic fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub kills: Vec<KillSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a kill of `rank` on entering `phase`, firing `times` times.
    // lint:allow(W-DEADPUB): fault injection for the chaos suite (core/tests/supervised.rs, core/tests/zero_clock.rs)
    pub fn with_phase_kill(mut self, rank: usize, phase: &str, times: u32) -> Self {
        self.kills.push(KillSpec {
            rank,
            phase: phase.to_string(),
            times,
        });
        self
    }
}

/// Panic payload of an injected kill; the supervisor downcasts it to
/// classify the failure cause.
#[derive(Clone, Copy, Debug)]
pub struct InjectedKill {
    /// World rank that was killed.
    pub rank: usize,
}

/// Why a rank failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// A [`KillSpec`] fired.
    InjectedKill,
    /// The rank panicked on its own (message captured when the payload
    /// is a string, as `panic!` produces).
    Panic(String),
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::InjectedKill => write!(f, "injected kill"),
            FailureCause::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// A structured rank failure: who died, during which phase, and why.
/// Built by the supervisor from a caught panic, in place of
/// propagating it.
#[derive(Clone, Debug)]
pub struct RankFailure {
    pub rank: usize,
    /// The last phase the rank entered via `enter_phase`
    /// (empty if it never declared one).
    pub phase: String,
    pub cause: FailureCause,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} failed in phase '{}': {}",
            self.rank, self.phase, self.cause
        )
    }
}

/// Classify a caught panic payload into a [`FailureCause`].
pub fn classify_panic(payload: &(dyn Any + Send)) -> FailureCause {
    if payload.downcast_ref::<InjectedKill>().is_some() {
        FailureCause::InjectedKill
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        FailureCause::Panic((*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        FailureCause::Panic(s.clone())
    } else {
        FailureCause::Panic("non-string panic payload".to_string())
    }
}

/// Executes a [`FaultPlan`] with deterministic counters. One harness
/// spans an entire supervised run — kill fire-counts persist across
/// retries, which is what lets `times` distinguish transient from
/// permanent faults. All ranks are *world* ranks of the top-level
/// cluster.
pub struct FaultHarness {
    plan: FaultPlan,
    /// Per kill spec: how many times it has fired.
    kill_fired: Vec<AtomicU32>,
    /// Per rank: last phase entered.
    phases: Vec<Mutex<String>>,
}

impl FaultHarness {
    pub fn new(plan: FaultPlan, num_ranks: usize) -> Self {
        for k in &plan.kills {
            assert!(
                k.rank < num_ranks,
                "kill spec targets rank {} of {num_ranks}",
                k.rank
            );
        }
        let kill_fired = (0..plan.kills.len()).map(|_| AtomicU32::new(0)).collect();
        FaultHarness {
            plan,
            kill_fired,
            phases: (0..num_ranks).map(|_| Mutex::new(String::new())).collect(),
        }
    }

    /// The last phase `rank` entered (empty string if none).
    pub fn phase_of(&self, rank: usize) -> String {
        self.phases[rank].lock().clone()
    }

    /// Try to fire kill spec `i`; panics with [`InjectedKill`] when it
    /// still has firings left.
    fn fire(&self, i: usize, rank: usize) {
        let spec = &self.plan.kills[i];
        // Claim one firing slot atomically so concurrent checks (or
        // retries) never over-fire past `times`.
        let prev = self.kill_fired[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < spec.times).then(|| n.saturating_add(1))
            })
            .ok();
        if prev.is_some() {
            std::panic::panic_any(InjectedKill { rank });
        }
    }

    /// Record that `rank` enters `phase`; fires matching kills. The
    /// one way a rank declares a phase, on or off a rank thread.
    pub fn enter_phase(&self, rank: usize, phase: &str) {
        *self.phases[rank].lock() = phase.to_string();
        for (i, spec) in self.plan.kills.iter().enumerate() {
            if spec.rank == rank && spec.phase == phase {
                self.fire(i, rank);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fires_exactly_times() {
        let plan = FaultPlan::none().with_phase_kill(1, "compute", 2);
        let h = FaultHarness::new(plan, 3);
        for attempt in 0..4 {
            let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                h.enter_phase(1, "compute");
            }))
            .is_err();
            assert_eq!(fired, attempt < 2, "attempt {attempt}");
        }
        // A different rank or phase never fires.
        h.enter_phase(0, "compute");
        h.enter_phase(1, "reduce");
        // A permanent kill never runs out.
        let dead = FaultHarness::new(
            FaultPlan::none().with_phase_kill(0, "work", KillSpec::ALWAYS),
            1,
        );
        for _ in 0..4 {
            let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dead.enter_phase(0, "work");
            }));
            assert!(fired.is_err());
        }
    }

    #[test]
    fn classify_panics() {
        let kill: Box<dyn Any + Send> = Box::new(InjectedKill { rank: 3 });
        assert_eq!(classify_panic(kill.as_ref()), FailureCause::InjectedKill);
        let s: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(
            classify_panic(s.as_ref()),
            FailureCause::Panic("boom".to_string())
        );
        let owned: Box<dyn Any + Send> = Box::new("ouch".to_string());
        assert_eq!(
            classify_panic(owned.as_ref()),
            FailureCause::Panic("ouch".to_string())
        );
    }
}
