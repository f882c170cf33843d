//! Span-based tracing with thread-local span stacks.
//!
//! A [`Tracer`] owns an epoch (the trace time origin) and a list of
//! finished spans. Each thread that touches the tracer gets its own
//! **track** (a timeline lane in the Chrome export) and its own span
//! stack, so parent/child nesting never needs cross-thread
//! coordination: entering a span pushes a frame on the current thread's
//! stack, dropping the [`SpanGuard`] pops it and records the finished
//! span under the path of its ancestors (`"compute/worker/search"`).
//!
//! Two recording flavors:
//!
//! * [`Tracer::span`] — a real timed span: one clock read at enter, one
//!   at exit.
//! * [`Tracer::add_aggregate`] — a pre-measured total (e.g. one stage
//!   of a [`Stages`](crate::clock::Stages) clock, which the engine's
//!   chunks, the grid estimator and the supervised shard tasks emit)
//!   attached under the currently open span with **zero** clock reads;
//!   aggregates are laid out back-to-back from the parent's start so
//!   the Chrome view shows the stage breakdown inside the worker slice.
//!
//! A disabled tracer never reads the clock, never locks, and never
//! allocates per span — the zero-cost contract the engine's
//! bit-identity tests pin.

use crate::clock::Epoch;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One finished span (or aggregate slice).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Slash-joined ancestor names ending in this span's name.
    pub path: String,
    /// Leaf name.
    pub name: String,
    /// Track (timeline lane) index.
    pub track: u32,
    /// Nesting depth (0 = track root).
    pub depth: u32,
    /// Offset from the tracer epoch, nanoseconds.
    pub start_nanos: u64,
    pub end_nanos: u64,
    /// Number of underlying calls (1 for real spans, N for aggregates).
    pub calls: u64,
    /// True for pre-measured totals recorded via `add_aggregate`.
    pub aggregate: bool,
}

impl SpanRecord {
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

#[derive(Debug, Default)]
struct TraceState {
    /// Track labels; index is the track id. Threads register in first-
    /// touch order; [`Tracer::name_track`] renames the caller's track.
    tracks: Vec<String>,
    spans: Vec<SpanRecord>,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Distinguishes tracers so a thread-local context bound to an old
    /// tracer is re-initialized instead of mixing span stacks.
    id: u64,
    epoch: Option<Epoch>,
    state: Mutex<TraceState>,
}

static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

struct Frame {
    name: String,
    start_nanos: u64,
    /// Nanos of aggregate slices already laid out under this span.
    agg_cursor: u64,
}

struct ThreadCtx {
    tracer_id: u64,
    track: u32,
    frames: Vec<Frame>,
    /// Aggregate layout cursor for slices recorded with no open span.
    root_cursor: u64,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx {
            tracer_id: 0,
            track: 0,
            frames: Vec::new(),
            root_cursor: 0,
        })
    };
}

impl Tracer {
    /// A live tracer; captures the epoch (one clock read).
    pub(crate) fn new() -> Self {
        Tracer {
            enabled: true,
            id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
            epoch: Some(Epoch::now()),
            state: Mutex::new(TraceState::default()),
        }
    }

    /// An inert tracer: every call is a no-op with zero clock reads.
    pub(crate) fn disabled() -> Self {
        Tracer {
            enabled: false,
            id: 0,
            epoch: None,
            state: Mutex::new(TraceState::default()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Bind the calling thread to this tracer, registering a fresh track
    /// on first touch. Returns the track id.
    fn bind_thread(&self) -> u32 {
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.tracer_id != self.id {
                let mut state = self.state.lock().expect("obs tracer poisoned");
                let track = state.tracks.len() as u32;
                state.tracks.push(format!("thread-{track}"));
                ctx.tracer_id = self.id;
                ctx.track = track;
                ctx.frames.clear();
                ctx.root_cursor = 0;
            }
            ctx.track
        })
    }

    /// Rename the calling thread's track (e.g. `"rank 3"`). Threads are
    /// otherwise labeled `thread-N` in first-touch order.
    pub fn name_track(&self, label: &str) {
        if !self.enabled {
            return;
        }
        let track = self.bind_thread();
        let mut state = self.state.lock().expect("obs tracer poisoned");
        state.tracks[track as usize] = label.to_string();
    }

    /// Enter a span; the returned guard records it when dropped. Guards
    /// must be dropped in LIFO order (the natural scoping order).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: None };
        }
        let start = self
            .epoch
            .expect("enabled tracer has epoch")
            .elapsed_nanos();
        self.bind_thread();
        CTX.with(|ctx| {
            ctx.borrow_mut().frames.push(Frame {
                name: name.to_string(),
                start_nanos: start,
                agg_cursor: 0,
            });
        });
        SpanGuard { tracer: Some(self) }
    }

    /// Record a pre-measured total of `calls` invocations summing to
    /// `total_nanos`, as a child of the currently open span on this
    /// thread. Makes zero clock reads: aggregate slices are laid out
    /// back-to-back from the parent's start offset.
    pub fn add_aggregate(&self, name: &str, calls: u64, total_nanos: u64) {
        if !self.enabled {
            return;
        }
        let track = self.bind_thread();
        let record = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let depth = ctx.frames.len() as u32;
            let (parent_path, start) = match ctx.frames.last_mut() {
                Some(frame) => {
                    let start = frame.start_nanos + frame.agg_cursor;
                    frame.agg_cursor += total_nanos;
                    (path_of(&ctx.frames), start)
                }
                None => {
                    let start = ctx.root_cursor;
                    ctx.root_cursor += total_nanos;
                    (String::new(), start)
                }
            };
            let path = if parent_path.is_empty() {
                name.to_string()
            } else {
                format!("{parent_path}/{name}")
            };
            SpanRecord {
                path,
                name: name.to_string(),
                track,
                depth,
                start_nanos: start,
                end_nanos: start + total_nanos,
                calls,
                aggregate: true,
            }
        });
        self.state
            .lock()
            .expect("obs tracer poisoned")
            .spans
            .push(record);
    }

    /// Track labels, index = track id.
    pub(crate) fn tracks(&self) -> Vec<String> {
        self.state
            .lock()
            .expect("obs tracer poisoned")
            .tracks
            .clone()
    }

    /// All finished spans, sorted by `(track, start, path)` so the
    /// output is deterministic given deterministic work.
    pub fn finished(&self) -> Vec<SpanRecord> {
        let mut spans = self
            .state
            .lock()
            .expect("obs tracer poisoned")
            .spans
            .clone();
        spans.sort_by(|a, b| {
            (a.track, a.start_nanos, &a.path).cmp(&(b.track, b.start_nanos, &b.path))
        });
        spans
    }
}

/// RAII guard returned by [`Tracer::span`].
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else {
            return;
        };
        let end = tracer
            .epoch
            .expect("enabled tracer has epoch")
            .elapsed_nanos();
        let record = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            // A guard from an earlier tracer whose thread context was
            // rebound has nothing to pop; drop it silently.
            if ctx.tracer_id != tracer.id {
                return None;
            }
            let path = path_of(&ctx.frames);
            let frame = ctx.frames.pop()?;
            Some(SpanRecord {
                path,
                name: frame.name,
                track: ctx.track,
                depth: ctx.frames.len() as u32,
                start_nanos: frame.start_nanos,
                end_nanos: end.max(frame.start_nanos),
                calls: 1,
                aggregate: false,
            })
        });
        if let Some(record) = record {
            tracer
                .state
                .lock()
                .expect("obs tracer poisoned")
                .spans
                .push(record);
        }
    }
}

/// The `/`-joined names of an open span stack, outermost first.
fn path_of(frames: &[Frame]) -> String {
    let names: Vec<&str> = frames.iter().map(|f| f.name.as_str()).collect();
    names.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn threads_get_their_own_tracks() {
        let tracer = Tracer::new();
        {
            let _root = tracer.span("main");
        }
        thread::scope(|s| {
            for i in 0..2 {
                let tracer = &tracer;
                s.spawn(move || {
                    let _w = tracer.span("worker");
                    tracer.add_aggregate("stage", 10 + i, 500);
                });
            }
        });
        let spans = tracer.finished();
        assert_eq!(spans.len(), 5);
        let tracks = tracer.tracks();
        assert_eq!(tracks.len(), 3);
        // Worker spans landed on distinct non-main tracks.
        let worker_tracks: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "worker")
            .map(|s| s.track)
            .collect();
        assert_eq!(worker_tracks.len(), 2);
        assert_ne!(worker_tracks[0], worker_tracks[1]);
        // Aggregates nest under their worker span.
        for s in spans.iter().filter(|s| s.aggregate) {
            assert_eq!(s.path, "worker/stage");
            assert_eq!(s.depth, 1);
            assert_eq!(s.duration_nanos(), 500);
        }
    }

    #[test]
    fn aggregates_lay_out_back_to_back() {
        let tracer = Tracer::new();
        {
            let _g = tracer.span("parent");
            tracer.add_aggregate("a", 1, 100);
            tracer.add_aggregate("b", 1, 250);
        }
        let spans = tracer.finished();
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        let parent = spans.iter().find(|s| s.name == "parent").unwrap();
        assert_eq!(a.start_nanos, parent.start_nanos);
        assert_eq!(b.start_nanos, a.end_nanos);
        assert_eq!(b.duration_nanos(), 250);
    }

    #[test]
    fn name_track_labels_current_thread() {
        let tracer = Tracer::new();
        tracer.name_track("rank 0");
        {
            let _g = tracer.span("shard");
        }
        assert_eq!(tracer.tracks(), vec!["rank 0".to_string()]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let _g = tracer.span("x");
            tracer.add_aggregate("y", 1, 10);
        }
        assert!(tracer.finished().is_empty());
        assert!(tracer.tracks().is_empty());
    }
}
