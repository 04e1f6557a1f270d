//! npp-telemetry: deterministic sim-time tracing, metrics, and profiling hooks.
//!
//! Design rules (see DESIGN.md "Observability"):
//!
//! - Simulator code stamps records with **sim time** (`t_ns`), never wall
//!   clock. Wall-clock records exist only for executor/CLI layers and are
//!   excluded from the canonical trace.
//! - The canonical trace (`npp.trace/v1` JSONL) is the sim-clock records
//!   merge-sorted by `(scope, t_ns, seq)`. Because each scenario runs on a
//!   single thread and `seq` is a per-scope counter, the canonical trace of
//!   a `--jobs N` sweep is byte-identical to the serial one.
//! - With the `trace` cargo feature disabled every recording entry point is
//!   an empty `#[inline(always)]` stub: instrumented call sites compile to
//!   nothing. With the feature enabled but recording inactive, each site
//!   costs one relaxed atomic load.
//! - [`wall_clock`] is the one sanctioned wall-clock entry point in the
//!   workspace; npp-lint rule D2 flags any call to it inside determinism
//!   crates so wall time cannot leak into simulation logic.

pub mod fmt;
pub mod metrics;
pub mod progress;
pub mod timer;

use fmt::{push_escaped, push_f64, push_hex16, push_u64};

/// Schema identifier stamped on the canonical JSONL header line.
pub const TRACE_SCHEMA: &str = "npp.trace/v1";

/// What a [`Record`] marks: span boundaries, a point event, or a counter
/// sample (rendered as a Chrome `C` event, i.e. a time series track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span opening edge.
    Begin,
    /// Span closing edge.
    End,
    /// A point-in-time event.
    Instant,
    /// A counter sample (`value` is the series value at `t_ns`).
    Counter,
}

impl Phase {
    /// One-letter code used in both JSONL and Chrome trace output.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "I",
            Phase::Counter => "C",
        }
    }
}

/// A single trace record.
///
/// `scope` is the scenario identity (the content-hash seed of the scenario
/// spec); `seq` is a per-scope monotonic counter that breaks ties between
/// records carrying the same sim timestamp. Wall-clock records (`wall ==
/// true`) are only ever emitted by executor/CLI layers and never enter the
/// canonical trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Scenario identity (content-hash seed), 0 for the global scope.
    pub scope: u64,
    /// Timestamp: sim nanoseconds, or (for wall records) nanoseconds since
    /// recording started.
    pub t_ns: u64,
    /// Per-scope monotonic sequence number (tie-break at equal `t_ns`).
    pub seq: u64,
    /// True if the timestamp came from the wall clock (executor layer).
    pub wall: bool,
    /// Record kind.
    pub phase: Phase,
    /// Static event name (ASCII identifier-like, e.g. `"switch.freq"`).
    pub name: &'static str,
    /// Integer argument (device index, pipeline id, ...); 0 when unused.
    pub arg: u64,
    /// Numeric payload; 0.0 when unused.
    pub value: f64,
}

/// A finished recording: everything drained out of the per-thread buffers.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All records, in drain order (not sorted; see [`Trace::canonical`]).
    pub records: Vec<Record>,
}

impl Trace {
    /// Number of records (including wall-clock ones).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Canonical view: sim-clock records only, merge-sorted by
    /// `(scope, t_ns, seq)`. This ordering is total (seq is unique within a
    /// scope) so the result is independent of thread scheduling.
    pub fn canonical(&self) -> Vec<&Record> {
        let mut sim: Vec<&Record> = self.records.iter().filter(|r| !r.wall).collect();
        sim.sort_by_key(|r| (r.scope, r.t_ns, r.seq));
        sim
    }

    /// Render the canonical trace as byte-stable `npp.trace/v1` JSONL.
    pub fn to_canonical_jsonl(&self) -> String {
        let sim = self.canonical();
        let mut out = String::with_capacity(64 + sim.len() * 96);
        out.push_str("{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str("\",\"records\":");
        push_u64(&mut out, sim.len() as u64);
        out.push_str("}\n");
        for r in sim {
            out.push_str("{\"scope\":\"");
            push_hex16(&mut out, r.scope);
            out.push_str("\",\"t_ns\":");
            push_u64(&mut out, r.t_ns);
            out.push_str(",\"seq\":");
            push_u64(&mut out, r.seq);
            out.push_str(",\"ph\":\"");
            out.push_str(r.phase.code());
            out.push_str("\",\"name\":\"");
            push_escaped(&mut out, r.name);
            out.push_str("\",\"arg\":");
            push_u64(&mut out, r.arg);
            out.push_str(",\"value\":");
            push_f64(&mut out, r.value);
            out.push_str("}\n");
        }
        out
    }

    /// Render all records (wall ones included) in Chrome `trace_event` JSON,
    /// loadable in Perfetto / chrome://tracing. Sim scopes map to one `tid`
    /// each (in canonical order); wall records ride on a dedicated track.
    pub fn to_chrome_json(&self) -> String {
        const WALL_TID: u64 = 0;
        let canonical = self.canonical();
        // Deterministic scope -> tid assignment by canonical order.
        let mut tids: Vec<u64> = Vec::new();
        for r in &canonical {
            if !tids.contains(&r.scope) {
                tids.push(r.scope);
            }
        }
        let tid_of = |scope: u64| -> u64 {
            tids.iter()
                .position(|s| *s == scope)
                .map(|p| p as u64 + 1)
                .unwrap_or(WALL_TID)
        };
        let mut out = String::with_capacity(128 + self.records.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str("\"},\"traceEvents\":[");
        let mut first = true;
        let push_sep = |out: &mut String, first: &mut bool| {
            if *first {
                *first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n ");
        };
        // Track-name metadata: one per sim scope, one for the wall track.
        push_sep(&mut out, &mut first);
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"wall (executor)\"}}",
        );
        for scope in &tids {
            push_sep(&mut out, &mut first);
            out.push_str("{\"ph\":\"M\",\"pid\":1,\"tid\":");
            push_u64(&mut out, tid_of(*scope));
            out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"scenario ");
            push_hex16(&mut out, *scope);
            out.push_str("\"}}");
        }
        let emit = |out: &mut String, first: &mut bool, r: &Record, tid: u64| {
            push_sep(out, first);
            out.push_str("{\"ph\":\"");
            out.push_str(r.phase.code());
            out.push_str("\",\"pid\":1,\"tid\":");
            push_u64(out, tid);
            out.push_str(",\"ts\":");
            // Chrome trace timestamps are microseconds.
            push_f64(out, r.t_ns as f64 / 1000.0);
            out.push_str(",\"name\":\"");
            push_escaped(out, r.name);
            if r.phase == Phase::Instant {
                out.push_str("\",\"s\":\"t");
            }
            out.push_str("\",\"args\":{\"arg\":");
            push_u64(out, r.arg);
            out.push_str(",\"value\":");
            push_f64(out, r.value);
            out.push_str("}}");
        };
        for r in &canonical {
            emit(&mut out, &mut first, r, tid_of(r.scope));
        }
        let mut walls: Vec<&Record> = self.records.iter().filter(|r| r.wall).collect();
        walls.sort_by_key(|r| (r.t_ns, r.seq));
        for r in walls {
            emit(&mut out, &mut first, r, WALL_TID);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// True when the `trace` cargo feature is compiled in.
#[inline(always)]
pub fn compiled() -> bool {
    cfg!(feature = "trace")
}

/// The one sanctioned wall-clock entry point in the workspace.
///
/// Executor and CLI layers (sweep thread pool, progress reporting, bench
/// timing) read the wall clock through this function only. npp-lint rule D2
/// flags direct `Instant::now()`/`SystemTime` *and* calls to `wall_clock()`
/// inside the determinism crates, so any use inside simulation logic must
/// carry an explicit justification.
pub fn wall_clock() -> std::time::Instant {
    // npp-lint: allow(wall-clock) reason="this is the single sanctioned wall-clock entry point for executor/CLI layers"
    std::time::Instant::now()
}

#[cfg(feature = "trace")]
mod core_impl {
    use super::{Phase, Record, Trace};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Instant;

    pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);
    static EPOCH: AtomicU64 = AtomicU64::new(0);
    static SINK: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    static WALL_START: Mutex<Option<Instant>> = Mutex::new(None);

    /// Per-thread buffer capacity; on overflow the buffer drains into the
    /// global sink (records are never dropped).
    const RING_CAPACITY: usize = 64 * 1024;

    struct Local {
        epoch: u64,
        scope: u64,
        seq: u64,
        wall_seq: u64,
        buf: Vec<Record>,
    }

    impl Local {
        const fn new() -> Self {
            Local {
                epoch: 0,
                scope: 0,
                seq: 0,
                wall_seq: 0,
                buf: Vec::new(),
            }
        }

        fn sync_epoch(&mut self) {
            let now = EPOCH.load(Ordering::Acquire);
            if self.epoch != now {
                self.epoch = now;
                self.scope = 0;
                self.seq = 0;
                self.wall_seq = 0;
                self.buf.clear();
            }
        }

        fn drain(&mut self) {
            if !self.buf.is_empty() && self.epoch == EPOCH.load(Ordering::Acquire) {
                sink().append(&mut self.buf);
            }
            self.buf.clear();
        }
    }

    impl Drop for Local {
        fn drop(&mut self) {
            if ENABLED.load(Ordering::Relaxed) {
                self.drain();
            }
        }
    }

    thread_local! {
        static LOCAL: RefCell<Local> = const { RefCell::new(Local::new()) };
    }

    fn sink() -> MutexGuard<'static, Vec<Record>> {
        SINK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn start_impl() {
        EPOCH.fetch_add(1, Ordering::AcqRel);
        sink().clear();
        // npp-lint: allow(wall-clock) reason="stamps the recording start for the wall track; wall records are excluded from the canonical trace"
        let start = super::wall_clock();
        *WALL_START.lock().unwrap_or_else(PoisonError::into_inner) = Some(start);
        crate::metrics::reset();
        ENABLED.store(true, Ordering::SeqCst);
    }

    pub(crate) fn finish_impl() -> Trace {
        LOCAL.with(|l| l.borrow_mut().drain());
        ENABLED.store(false, Ordering::SeqCst);
        let records = std::mem::take(&mut *sink());
        Trace { records }
    }

    pub(crate) fn record_impl(phase: Phase, name: &'static str, t_ns: u64, arg: u64, value: f64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.sync_epoch();
            let seq = l.seq;
            l.seq += 1;
            let scope = l.scope;
            l.buf.push(Record {
                scope,
                t_ns,
                seq,
                wall: false,
                phase,
                name,
                arg,
                value,
            });
            if l.buf.len() >= RING_CAPACITY {
                l.drain();
            }
        });
    }

    pub(crate) fn record_wall_impl(phase: Phase, name: &'static str, arg: u64, value: f64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let t_ns = WALL_START
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map(|s| s.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.sync_epoch();
            let seq = l.wall_seq;
            l.wall_seq += 1;
            let scope = l.scope;
            l.buf.push(Record {
                scope,
                t_ns,
                seq,
                wall: true,
                phase,
                name,
                arg,
                value,
            });
            if l.buf.len() >= RING_CAPACITY {
                l.drain();
            }
        });
    }

    pub(crate) fn enter_scope(id: u64) -> (u64, u64) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.sync_epoch();
            let prev = (l.scope, l.seq);
            l.scope = id;
            l.seq = 0;
            prev
        })
    }

    pub(crate) fn exit_scope(prev: (u64, u64)) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            // Drain at scenario boundaries so worker-thread buffers cannot
            // outlive the recording that produced them.
            l.drain();
            l.scope = prev.0;
            l.seq = prev.1;
        });
    }
}

/// True when recording is active (always false without the `trace` feature).
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        core_impl::ENABLED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Begin a recording: clears the sink, resets the metrics registry, and
/// arms every instrumented call site. No-op without the `trace` feature.
pub fn start() {
    #[cfg(feature = "trace")]
    core_impl::start_impl();
}

/// Stop recording and drain all buffered records into a [`Trace`].
///
/// The calling thread's buffer is drained here; worker threads drain at
/// scope exit and on thread exit (the sweep executor joins its scoped
/// threads before returning, so nothing is left behind).
pub fn finish() -> Trace {
    #[cfg(feature = "trace")]
    {
        core_impl::finish_impl()
    }
    #[cfg(not(feature = "trace"))]
    {
        Trace::default()
    }
}

/// Emit a sim-clock record. Prefer the [`trace_event!`]/[`trace_span!`]
/// macros, which skip argument evaluation when recording is inactive.
#[inline]
pub fn record(phase: Phase, name: &'static str, t_ns: u64, arg: u64, value: f64) {
    #[cfg(feature = "trace")]
    core_impl::record_impl(phase, name, t_ns, arg, value);
    #[cfg(not(feature = "trace"))]
    {
        let _ = (phase, name, t_ns, arg, value);
    }
}

/// Emit a wall-clock record (executor/CLI layers only). The timestamp is
/// nanoseconds since [`start`]; wall records never enter the canonical
/// trace.
#[inline]
pub fn record_wall(phase: Phase, name: &'static str, arg: u64, value: f64) {
    #[cfg(feature = "trace")]
    core_impl::record_wall_impl(phase, name, arg, value);
    #[cfg(not(feature = "trace"))]
    {
        let _ = (phase, name, arg, value);
    }
}

/// Guard restoring the previous trace scope (and its sequence counter) on
/// drop. Returned by [`scope`].
#[must_use]
#[derive(Debug)]
pub struct ScopeGuard {
    #[cfg(feature = "trace")]
    prev: Option<(u64, u64)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        if let Some(prev) = self.prev.take() {
            core_impl::exit_scope(prev);
        }
    }
}

/// Enter a trace scope for one scenario. `id` is the scenario's content-hash
/// seed; all sim-clock records emitted by this thread until the guard drops
/// carry this scope, with `seq` restarting at 0 (which is what makes the
/// canonical merge deterministic).
pub fn scope(id: u64) -> ScopeGuard {
    #[cfg(feature = "trace")]
    {
        if enabled() {
            ScopeGuard {
                prev: Some(core_impl::enter_scope(id)),
            }
        } else {
            ScopeGuard { prev: None }
        }
    }
    #[cfg(not(feature = "trace"))]
    {
        let _ = id;
        ScopeGuard {}
    }
}

/// Emit a sim-time point event: `trace_event!("name", t_ns)` or
/// `trace_event!("name", t_ns, value)`. Arguments are not evaluated unless
/// recording is active.
#[macro_export]
macro_rules! trace_event {
    ($name:expr, $t_ns:expr) => {
        if $crate::enabled() {
            $crate::record($crate::Phase::Instant, $name, $t_ns, 0, 0.0);
        }
    };
    ($name:expr, $t_ns:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::record($crate::Phase::Instant, $name, $t_ns, 0, $value as f64);
        }
    };
}

/// Emit a sim-time counter sample (a time-series point):
/// `trace_counter!("name", t_ns, arg, value)`.
#[macro_export]
macro_rules! trace_counter {
    ($name:expr, $t_ns:expr, $arg:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::record(
                $crate::Phase::Counter,
                $name,
                $t_ns,
                $arg as u64,
                $value as f64,
            );
        }
    };
}

/// Emit sim-time span edges: `trace_span!(begin "name", t_ns)` /
/// `trace_span!(end "name", t_ns)`. Sim spans carry explicit timestamps
/// (there is no RAII form: sim time is not ambient).
#[macro_export]
macro_rules! trace_span {
    (begin $name:expr, $t_ns:expr) => {
        if $crate::enabled() {
            $crate::record($crate::Phase::Begin, $name, $t_ns, 0, 0.0);
        }
    };
    (end $name:expr, $t_ns:expr) => {
        if $crate::enabled() {
            $crate::record($crate::Phase::End, $name, $t_ns, 0, 0.0);
        }
    };
}

#[cfg(test)]
mod format_tests {
    use super::*;

    #[test]
    fn f64_formatting_is_stable() {
        let mut s = String::new();
        push_f64(&mut s, 3.0);
        push_f64(&mut s, -2.0);
        push_f64(&mut s, 0.125);
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "3-20.1250");
    }

    #[test]
    fn hex_and_escape() {
        let mut s = String::new();
        push_hex16(&mut s, 0xDEAD_BEEF);
        assert_eq!(s, "00000000deadbeef");
        let mut e = String::new();
        push_escaped(&mut e, "a\"b\\c\n");
        assert_eq!(e, "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn empty_trace_renders_header_only() {
        let t = Trace::default();
        assert_eq!(
            t.to_canonical_jsonl(),
            "{\"schema\":\"npp.trace/v1\",\"records\":0}\n"
        );
        assert!(t.to_chrome_json().contains("traceEvents"));
    }

    #[test]
    fn canonical_sorts_by_scope_time_seq_and_drops_wall() {
        let rec = |scope, t_ns, seq, wall| Record {
            scope,
            t_ns,
            seq,
            wall,
            phase: Phase::Instant,
            name: "x",
            arg: 0,
            value: 0.0,
        };
        let t = Trace {
            records: vec![
                rec(2, 5, 0, false),
                rec(1, 9, 1, false),
                rec(1, 9, 0, false),
                rec(1, 1, 0, true),
            ],
        };
        let c = t.canonical();
        let keys: Vec<(u64, u64, u64)> = c.iter().map(|r| (r.scope, r.t_ns, r.seq)).collect();
        assert_eq!(keys, vec![(1, 9, 0), (1, 9, 1), (2, 5, 0)]);
    }
}

/// Recorder and metrics-registry state is process-global: every test in
/// this crate that starts, finishes or resets a recording holds this one
/// lock, so the parallel test runner cannot interleave them.
#[cfg(all(test, feature = "trace"))]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(all(test, feature = "trace"))]
mod recording_tests {
    use super::*;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _g = test_lock();
        let _ = finish();
        trace_event!("nope", 1);
        let t = finish();
        assert!(t.is_empty());
    }

    #[test]
    fn scoped_records_merge_deterministically() {
        let _g = test_lock();
        start();
        {
            let _s = scope(0xAA);
            trace_event!("a", 10, 1.5);
            trace_event!("a", 10, 2.5);
        }
        {
            let _s = scope(0x11);
            trace_span!(begin "b", 0);
            trace_span!(end "b", 7);
        }
        record_wall(Phase::Instant, "wall.mark", 0, 0.0);
        let t = finish();
        assert_eq!(t.len(), 5);
        let c = t.canonical();
        assert_eq!(c.len(), 4);
        // Scope 0x11 sorts before 0xAA regardless of emission order.
        assert_eq!(c[0].scope, 0x11);
        assert_eq!((c[0].phase, c[0].t_ns), (Phase::Begin, 0));
        assert_eq!(c[2].scope, 0xAA);
        assert_eq!((c[2].seq, c[3].seq), (0, 1));
        let jsonl = t.to_canonical_jsonl();
        assert!(jsonl.starts_with("{\"schema\":\"npp.trace/v1\",\"records\":4}\n"));
        assert!(jsonl.contains("\"value\":1.5"));
        // Wall record appears in the Chrome trace but not the canonical one.
        assert!(!jsonl.contains("wall.mark"));
        assert!(t.to_chrome_json().contains("wall.mark"));
    }

    #[test]
    fn worker_threads_drain_on_scope_exit() {
        let _g = test_lock();
        start();
        std::thread::scope(|s| {
            for id in 1..=4u64 {
                s.spawn(move || {
                    let _sc = scope(id);
                    trace_event!("w", id * 100);
                });
            }
        });
        let t = finish();
        let c = t.canonical();
        assert_eq!(c.len(), 4);
        let scopes: Vec<u64> = c.iter().map(|r| r.scope).collect();
        assert_eq!(scopes, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nested_scopes_restore_seq() {
        let _g = test_lock();
        start();
        let _outer = scope(5);
        trace_event!("o", 1);
        {
            let _inner = scope(6);
            trace_event!("i", 1);
        }
        trace_event!("o", 2);
        let t = finish();
        let c = t.canonical();
        // Outer scope records got seq 0 then 1; inner restarted at 0.
        let outer: Vec<u64> = c.iter().filter(|r| r.scope == 5).map(|r| r.seq).collect();
        assert_eq!(outer, vec![0, 1]);
    }
}
