//! Traced-run plumbing: a timestamping solver event sink, per-thread
//! attribution of solver time to layers, and spans around public calls.
//!
//! The solver's own trace events carry no time. [`StampSink`], installed
//! through the public `MinlpOptions::trace` hook, stamps each event with its
//! thread and an [`Instant`] and keeps the stamps in memory until the
//! caller drains them after an op. [`attribute`] then splits each thread's
//! timeline inside the solve span into intervals that end at an event, and
//! charges each interval to the layer the event closes:
//!
//! * `BarrierMu` and `NlpSolved` close NLP work (`nlp.busy_ms`);
//! * `LpSolved` closes LP work (`lp.busy_ms`);
//! * every other event, and the calling thread's tail from its last event to
//!   the end of the span, is tree work (`minlp.tree_ms`), which therefore
//!   includes presolve and the parallel replay merge.
//!
//! Threads are attributed separately, so a parallel solve is never
//! interleaved: the calling thread's first interval starts at the span
//! start, a worker thread's first interval (spawn to first event) is not
//! attributed, and busy times of a parallel solve are summed over threads.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use hslb_obs::{Event, EventSink, Trace};

/// The solver event kinds the benchmark distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NodeOpened,
    BarrierMu,
    NlpSolved,
    LpSolved,
    Other,
}

impl Kind {
    fn of(event: &Event) -> Kind {
        match event {
            Event::NodeOpened { .. } => Kind::NodeOpened,
            Event::BarrierMu { .. } => Kind::BarrierMu,
            Event::NlpSolved { .. } => Kind::NlpSolved,
            Event::LpSolved { .. } => Kind::LpSolved,
            _ => Kind::Other,
        }
    }
}

/// One stamped event.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub thread: ThreadId,
    pub at: Instant,
    pub kind: Kind,
}

/// In-memory sink that stamps every event with its thread and time.
#[derive(Default)]
pub struct StampSink {
    stamps: Mutex<Vec<Stamp>>,
}

impl StampSink {
    /// A fresh sink and the solver trace handle that feeds it.
    pub fn install() -> (Arc<StampSink>, Trace) {
        let sink = Arc::new(StampSink::default());
        let trace = Trace::to_sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        (sink, trace)
    }

    /// Moves out every stamp recorded so far.
    pub fn drain(&self) -> Vec<Stamp> {
        match self.stamps.lock() {
            Ok(mut v) => std::mem::take(&mut *v),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }
}

impl EventSink for StampSink {
    fn record(&self, event: Event) {
        let stamp = Stamp {
            thread: std::thread::current().id(),
            at: Instant::now(),
            kind: Kind::of(&event),
        };
        // A poisoned lock only means another recorder panicked; keep going
        // (sinks must not panic inside the solver).
        match self.stamps.lock() {
            Ok(mut v) => v.push(stamp),
            Err(poisoned) => poisoned.into_inner().push(stamp),
        }
    }
}

/// Time and event counts of one solve, split by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    pub nlp: Duration,
    pub lp: Duration,
    pub tree: Duration,
    pub node_opened: u64,
    pub barrier_mu: u64,
}

impl Attribution {
    pub fn add(&mut self, other: &Attribution) {
        self.nlp += other.nlp;
        self.lp += other.lp;
        self.tree += other.tree;
        self.node_opened += other.node_opened;
        self.barrier_mu += other.barrier_mu;
    }
}

/// Attributes the stamps of one solve that ran on `caller` from `start`
/// to `end` (see the module docs for the rule).
pub fn attribute(stamps: &[Stamp], caller: ThreadId, start: Instant, end: Instant) -> Attribution {
    let mut per_thread: HashMap<ThreadId, Vec<Stamp>> = HashMap::new();
    for s in stamps {
        per_thread.entry(s.thread).or_default().push(*s);
    }
    let mut out = Attribution::default();
    // Durations are integers, so summing threads in hash order is exact.
    for (thread, mut events) in per_thread {
        events.sort_by_key(|s| s.at);
        let is_caller = thread == caller;
        let mut prev = if is_caller { Some(start) } else { None };
        for s in &events {
            match s.kind {
                Kind::NodeOpened => out.node_opened += 1,
                Kind::BarrierMu => out.barrier_mu += 1,
                _ => {}
            }
            if let Some(p) = prev {
                let span = s.at.saturating_duration_since(p);
                match s.kind {
                    Kind::BarrierMu | Kind::NlpSolved => out.nlp += span,
                    Kind::LpSolved => out.lp += span,
                    Kind::NodeOpened | Kind::Other => out.tree += span,
                }
            }
            prev = Some(s.at);
        }
        if is_caller {
            if let Some(p) = prev {
                out.tree += end.saturating_duration_since(p);
            }
        }
    }
    if !stamps.iter().any(|s| s.thread == caller) {
        // No event on the calling thread at all: the whole span is tree work.
        out.tree += end.saturating_duration_since(start);
    }
    out
}

/// Named spans around public calls: total time per name.
/// Disabled spans call straight through without reading the clock.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, Duration>,
    last: Option<(Instant, Instant)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// Runs `f`, charging its wall time to `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        *self.totals.entry(name).or_default() += end - start;
        self.last = Some((start, end));
        out
    }

    /// Start and end of the most recent span.
    pub fn last(&self) -> Option<(Instant, Instant)> {
        self.last
    }

    /// Total milliseconds charged to `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(thread: ThreadId, base: Instant, ms: u64, kind: Kind) -> Stamp {
        Stamp {
            thread,
            at: base + Duration::from_millis(ms),
            kind,
        }
    }

    #[test]
    fn serial_intervals_go_to_the_event_that_closes_them() {
        let me = std::thread::current().id();
        let t0 = Instant::now();
        let stamps = [
            stamp(me, t0, 2, Kind::NodeOpened), // 0..2 tree
            stamp(me, t0, 5, Kind::BarrierMu),  // 2..5 nlp
            stamp(me, t0, 6, Kind::NlpSolved),  // 5..6 nlp
            stamp(me, t0, 10, Kind::LpSolved),  // 6..10 lp
            stamp(me, t0, 11, Kind::Other),     // 10..11 tree
        ];
        let a = attribute(&stamps, me, t0, t0 + Duration::from_millis(15));
        assert_eq!(a.nlp, Duration::from_millis(4));
        assert_eq!(a.lp, Duration::from_millis(4));
        // 2 ms before the first node, 1 ms of bookkeeping, 4 ms tail.
        assert_eq!(a.tree, Duration::from_millis(7));
        assert_eq!((a.node_opened, a.barrier_mu), (1, 1));
    }

    #[test]
    fn threads_are_attributed_separately() {
        let me = std::thread::current().id();
        let other = std::thread::spawn(|| std::thread::current().id())
            .join()
            .expect("probe thread");
        let t0 = Instant::now();
        // Interleaved in time: attributing the merged sequence would give
        // the caller's 1..4 interval to the worker's BarrierMu at 3.
        let stamps = [
            stamp(me, t0, 1, Kind::NodeOpened),
            stamp(other, t0, 2, Kind::NodeOpened),
            stamp(other, t0, 3, Kind::BarrierMu),
            stamp(me, t0, 4, Kind::LpSolved),
            stamp(other, t0, 9, Kind::BarrierMu),
        ];
        let a = attribute(&stamps, me, t0, t0 + Duration::from_millis(4));
        // Caller: 0..1 tree, 1..4 lp. Worker: spawn..2 unattributed,
        // 2..3 and 3..9 nlp, no tail.
        assert_eq!(a.lp, Duration::from_millis(3));
        assert_eq!(a.nlp, Duration::from_millis(7));
        assert_eq!(a.tree, Duration::from_millis(1));
        assert_eq!((a.node_opened, a.barrier_mu), (2, 2));
    }

    #[test]
    fn silent_solve_is_all_tree() {
        let me = std::thread::current().id();
        let t0 = Instant::now();
        let a = attribute(&[], me, t0, t0 + Duration::from_millis(3));
        assert_eq!(a.tree, Duration::from_millis(3));
        assert_eq!(a.nlp + a.lp, Duration::ZERO);
    }

    #[test]
    fn sink_records_thread_and_kind() {
        let (sink, trace) = StampSink::install();
        trace.emit(|| Event::LpSolved { pivots: 3 });
        std::thread::scope(|s| {
            s.spawn(|| {
                trace.emit(|| Event::BarrierMu {
                    mu: 1.0,
                    sigma: 0.1,
                })
            });
        });
        let stamps = sink.drain();
        assert_eq!(stamps.len(), 2);
        assert_eq!(stamps[0].kind, Kind::LpSolved);
        assert_eq!(stamps[0].thread, std::thread::current().id());
        assert_eq!(stamps[1].kind, Kind::BarrierMu);
        assert_ne!(stamps[1].thread, stamps[0].thread);
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut off = Spans::new(false);
        assert_eq!(off.time("x", || 7), 7);
        assert_eq!((off.total_ms("x"), off.last()), (0.0, None));
        let mut on = Spans::new(true);
        on.time("x", || std::thread::sleep(Duration::from_millis(1)));
        on.time("x", || std::thread::sleep(Duration::from_millis(1)));
        assert!(on.total_ms("x") >= 2.0);
        assert!(on.last().is_some());
    }
}
