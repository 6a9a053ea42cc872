//! Unified telemetry for PUL sessions: one registry of lock-free metrics, a
//! bounded structured event journal, and a clonable [`Telemetry`] handle that
//! is a single branch when disabled.
//!
//! The design mirrors the `Faults` failpoint handle (PR 7): a `Telemetry` is
//! an `Option<Arc<..>>`. [`Telemetry::disabled`] (the default) carries `None`,
//! so every instrumentation call — counter bump, histogram observation, span
//! guard, event record — reduces to one branch on a pointer-sized option and
//! compiles out of the hot path. [`Telemetry::enabled`] shares one
//! [`Metrics`] registry and one [`EventJournal`] across every clone, so a
//! `Durable<ShardedExecutor>` behind an `IngestQueue` reports through the
//! same registry as the bare `Executor` it wraps.
//!
//! Metrics are *fixed fields*, not a string-keyed map: the set of series is
//! part of the API (see [`Metrics`]), reads are field loads, and the
//! instrument selectors are plain `fn(&Metrics) -> &Counter` pointers — no
//! allocation, hashing or interning anywhere on the record path.
//!
//! Reading side: [`Telemetry::snapshot`] freezes the registry into a
//! [`MetricsSnapshot`] (plain integers + [`HistogramSummary`] quantiles),
//! [`MetricsSnapshot::render_text`] emits a Prometheus-style text exposition,
//! and [`Telemetry::recent_events`] drains a copy of the bounded event ring
//! (oldest dropped first once the ring is full).

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing event count. All operations are relaxed atomic
/// adds — safe from any thread, never a lock.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, bytes held) that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` holds observations `v` with
/// `bucket_index(v) == i`, i.e. `[2^(i-1), 2^i)` for `i > 0` and `{0}` for
/// `i == 0`. 64 buckets cover the whole `u64` range.
const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed log2-bucket histogram. Observations are two relaxed atomic adds
/// plus a `fetch_max` — no lock, no allocation — and the summary side
/// estimates p50/p95 from the bucket counts (exact `count`/`sum`/`max`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The log2 bucket an observation lands in.
#[inline]
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i` — the value reported for
/// quantiles that resolve inside it.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i).saturating_sub(1).max(1u64 << (i - 1))
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v).min(HISTOGRAM_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Freezes the histogram into exact `count`/`sum`/`max` plus log2-bucket
    /// estimates of p50 and p95 (each quantile reports its bucket's upper
    /// bound, clamped to the observed maximum).
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return bucket_bound(i).min(max);
                }
            }
            max
        };
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            max,
        }
    }
}

/// A frozen [`Histogram`]: exact totals, log2-estimated quantiles.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Estimated median (log2-bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// Estimated 95th percentile (log2-bucket upper bound, clamped to `max`).
    pub p95: u64,
    /// Exact maximum observed value.
    pub max: u64,
}

// ---------------------------------------------------------------------------
// event journal
// ---------------------------------------------------------------------------

/// What happened — the structured half of an [`Event`]. Kinds that map to a
/// stable `XPUL-*` error code carry it (see [`EventKind::code`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A commit published a new version.
    Commit,
    /// A transient store failure was retried with backoff.
    Retry,
    /// The durable layer flipped into sticky read-only degraded mode.
    Degraded,
    /// A background checkpoint (after a commit or a compaction) failed.
    MaintenanceFailure,
    /// Compaction renumbered the arena and bumped the epoch.
    CompactionEpoch,
    /// An ingest submission was shed at the admission bound.
    Shed,
    /// A checkpoint image was written and the WAL rotated.
    Checkpoint,
    /// An injected failpoint fired.
    FaultHit,
}

impl EventKind {
    /// Stable lower-case label used in the text exposition and journal dumps.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Commit => "commit",
            EventKind::Retry => "retry",
            EventKind::Degraded => "degraded",
            EventKind::MaintenanceFailure => "maintenance_failure",
            EventKind::CompactionEpoch => "compaction_epoch",
            EventKind::Shed => "shed",
            EventKind::Checkpoint => "checkpoint",
            EventKind::FaultHit => "fault_hit",
        }
    }

    /// The stable `XPUL-*` error code this event kind surfaces as, if any.
    pub fn code(self) -> Option<&'static str> {
        match self {
            EventKind::Degraded => Some("XPUL-E09"),
            EventKind::Shed => Some("XPUL-E08"),
            EventKind::FaultHit => Some("XPUL-E04"),
            _ => None,
        }
    }
}

/// One structured journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Journal-global sequence number (monotone; gaps mean dropped records
    /// never happen — the ring drops *old* records, seq keeps counting).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The session version the event is about (0 when not version-related).
    pub version: u64,
    /// Free-form context — built lazily, only when telemetry is armed.
    pub detail: String,
}

/// How many events the journal ring retains before dropping oldest-first.
pub const EVENT_JOURNAL_CAP: usize = 256;

/// A bounded ring of [`Event`]s behind one mutex: concurrent recorders (the
/// ingest pipeline threads) serialize on push, so records never tear and
/// sequence numbers are monotone in ring order. Once full the *oldest* record
/// is dropped (and counted).
#[derive(Debug, Default)]
pub struct EventJournal {
    ring: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl EventJournal {
    /// Appends a record, dropping the oldest if the ring is at capacity.
    pub fn push(&self, kind: EventKind, version: u64, detail: String) {
        let mut ring = self.ring.lock().expect("event journal mutex poisoned");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if ring.len() >= EVENT_JOURNAL_CAP {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Event { seq, kind, version, detail });
    }

    /// A copy of the retained records, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.ring.lock().expect("event journal mutex poisoned").iter().cloned().collect()
    }

    /// How many records have been dropped oldest-first to stay bounded.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// the registry
// ---------------------------------------------------------------------------

/// Declares the fixed metric registry once: field set, snapshot struct, and
/// the text exposition all derive from the same list, so they cannot drift.
macro_rules! registry {
    (
        counters { $($cname:ident: $chelp:literal,)* }
        gauges { $($gname:ident: $ghelp:literal,)* }
        histograms { $($hname:ident: $hhelp:literal,)* }
    ) => {
        /// The fixed metric registry shared by every [`Telemetry`] clone.
        /// Fields are the series; instrument selectors are plain field
        /// accessors (`|m| &m.commits`-shaped `fn` pointers).
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(#[doc = $chelp] pub $cname: Counter,)*
            $(#[doc = $ghelp] pub $gname: Gauge,)*
            $(#[doc = $hhelp] pub $hname: Histogram,)*
        }

        /// A frozen [`Metrics`] registry: plain integers and
        /// [`HistogramSummary`] values, cheap to clone, compare and print.
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $(#[doc = $chelp] pub $cname: u64,)*
            $(#[doc = $ghelp] pub $gname: i64,)*
            $(#[doc = $hhelp] pub $hname: HistogramSummary,)*
        }

        impl Metrics {
            /// Freezes every series into a [`MetricsSnapshot`].
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($cname: self.$cname.get(),)*
                    $($gname: self.$gname.get(),)*
                    $($hname: self.$hname.summary(),)*
                }
            }
        }

        impl MetricsSnapshot {
            /// Prometheus-style text exposition of every series, in
            /// registry declaration order (deterministic for golden tests).
            pub fn render_text(&self) -> String {
                let mut out = String::new();
                $(render_counter(&mut out, stringify!($cname), $chelp, self.$cname);)*
                $(render_gauge(&mut out, stringify!($gname), $ghelp, self.$gname);)*
                $(render_histogram(&mut out, stringify!($hname), $hhelp, &self.$hname);)*
                out
            }
        }
    };
}

registry! {
    counters {
        commits: "Commits published (any surface, merged ingest rounds count once).",
        rollbacks: "Commits rewound by the apply journal: a failed apply, shard abort or WAL append.",
        snapshot_hits: "MVCC snapshot re-pins of the live version: the session's held snapshot.",
        snapshot_misses: "MVCC snapshot freezes of the live version (O(document) each).",
        rounds_coalesced: "Ingest batches of two or more submissions, committed as one aggregate.",
        rounds_serialized: "Ingest batches of a single submission.",
        tickets_committed: "Ingest tickets completed with a committed version.",
        tickets_failed: "Ingest tickets completed with an error (conflicts, faults, XPUL-E09).",
        tickets_shed: "Submissions shed at the admission bound (XPUL-E08).",
        wal_append_bytes: "Bytes appended to the write-ahead log.",
        retry_attempts: "Transient store-operation attempts beyond the first (backoff retries).",
        maintenance_failures: "Background checkpoints that failed (after a commit or compaction).",
        degraded_transitions: "Flips into sticky read-only degraded mode (XPUL-E09).",
        fault_hits: "Injected failpoints that fired.",
    }
    gauges {
        queue_depth: "Submissions waiting in the ingest queue right now.",
    }
    histograms {
        commit_ns: "Wall time of a commit (apply + labeling + sink append), ns.",
        resolve_ns: "Wall time of a resolve (integrate + reconcile + aggregate), ns.",
        enqueue_block_ns: "Producer wall time blocked on the ingest capacity bound, ns.",
        ticket_latency_ns: "End-to-end ticket latency from enqueue to completion, ns.",
        wal_append_ns: "WAL frame append (write, excluding fsync) wall time, ns.",
        wal_sync_ns: "WAL fsync wall time, ns.",
        wal_rotate_ns: "WAL segment seal + rotate wall time, ns.",
        checkpoint_ns: "Checkpoint image write (encode + tmp + fsync + rename), ns.",
    }
}

fn render_counter(out: &mut String, name: &str, help: &str, v: u64) {
    out.push_str(&format!(
        "# HELP xmlpul_{name} {help}\n# TYPE xmlpul_{name} counter\nxmlpul_{name} {v}\n"
    ));
}

fn render_gauge(out: &mut String, name: &str, help: &str, v: i64) {
    out.push_str(&format!(
        "# HELP xmlpul_{name} {help}\n# TYPE xmlpul_{name} gauge\nxmlpul_{name} {v}\n"
    ));
}

fn render_histogram(out: &mut String, name: &str, help: &str, h: &HistogramSummary) {
    out.push_str(&format!("# HELP xmlpul_{name} {help}\n# TYPE xmlpul_{name} summary\n"));
    out.push_str(&format!("xmlpul_{name}{{quantile=\"0.5\"}} {}\n", h.p50));
    out.push_str(&format!("xmlpul_{name}{{quantile=\"0.95\"}} {}\n", h.p95));
    out.push_str(&format!("xmlpul_{name}_max {}\n", h.max));
    out.push_str(&format!("xmlpul_{name}_sum {}\n", h.sum));
    out.push_str(&format!("xmlpul_{name}_count {}\n", h.count));
}

// ---------------------------------------------------------------------------
// the handle
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Inner {
    metrics: Metrics,
    journal: EventJournal,
}

/// The clonable telemetry handle threaded through every subsystem.
///
/// [`Telemetry::disabled`] (the `Default`) is a `None`: every record call is
/// a single branch and no state exists. [`Telemetry::enabled`] allocates one
/// shared registry + journal; clones observe into the same state, so arming
/// the outermost layer (an `IngestQueue` config, a `Durable` façade) arms
/// the whole stack beneath it.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl Telemetry {
    /// An armed handle with a fresh registry and event journal.
    pub fn enabled() -> Telemetry {
        Telemetry(Some(Arc::new(Inner::default())))
    }

    /// The no-op handle (same as `Default`): one branch per record call,
    /// nothing allocated.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Bumps a counter by one. `sel` picks the series:
    /// `t.count(|m| &m.commits)`.
    #[inline]
    pub fn count(&self, sel: fn(&Metrics) -> &Counter) {
        if let Some(inner) = &self.0 {
            sel(&inner.metrics).inc();
        }
    }

    /// Bumps a counter by `n`.
    #[inline]
    pub fn add(&self, sel: fn(&Metrics) -> &Counter, n: u64) {
        if let Some(inner) = &self.0 {
            sel(&inner.metrics).add(n);
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn gauge_set(&self, sel: fn(&Metrics) -> &Gauge, v: i64) {
        if let Some(inner) = &self.0 {
            sel(&inner.metrics).set(v);
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&self, sel: fn(&Metrics) -> &Histogram, v: u64) {
        if let Some(inner) = &self.0 {
            sel(&inner.metrics).observe(v);
        }
    }

    /// Records the nanoseconds elapsed since `since` into a histogram.
    #[inline]
    pub fn observe_since(&self, sel: fn(&Metrics) -> &Histogram, since: Instant) {
        if let Some(inner) = &self.0 {
            sel(&inner.metrics).observe(since.elapsed().as_nanos() as u64);
        }
    }

    /// Starts a span whose wall time lands in the selected histogram when the
    /// guard drops. Disabled handles return an inert guard without reading
    /// the clock.
    #[inline]
    pub fn span(&self, sel: fn(&Metrics) -> &Histogram) -> SpanTimer {
        SpanTimer { armed: self.0.as_ref().map(|inner| (Instant::now(), Arc::clone(inner), sel)) }
    }

    /// Appends a structured record to the event journal. The `detail` closure
    /// is only evaluated when the handle is armed, so formatting costs
    /// nothing on the disabled path.
    #[inline]
    pub fn event(&self, kind: EventKind, version: u64, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.0 {
            record_event(inner, kind, version, detail());
        }
    }

    /// Freezes the registry. `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|inner| inner.metrics.snapshot())
    }

    /// Direct registry access for readers that want live series (`None` when
    /// disabled).
    pub fn metrics(&self) -> Option<&Metrics> {
        self.0.as_deref().map(|inner| &inner.metrics)
    }

    /// A copy of the retained journal records, oldest first (empty when
    /// disabled).
    pub fn recent_events(&self) -> Vec<Event> {
        self.0.as_ref().map(|inner| inner.journal.recent()).unwrap_or_default()
    }

    /// How many journal records were dropped oldest-first to stay bounded.
    pub fn events_dropped(&self) -> u64 {
        self.0.as_ref().map(|inner| inner.journal.dropped()).unwrap_or(0)
    }
}

/// Event recording is rare (commits, failures, mode flips) next to counter
/// traffic — keep it out of the callers' instruction stream.
#[cold]
fn record_event(inner: &Inner, kind: EventKind, version: u64, detail: String) {
    inner.journal.push(kind, version, detail);
}

/// What an armed [`SpanTimer`] carries: the start instant, the shared
/// registry, and the histogram series the elapsed time lands in.
type ArmedSpan = (Instant, Arc<Inner>, fn(&Metrics) -> &Histogram);

/// A drop guard recording its lifetime into one histogram series. Inert (no
/// clock read, no state) when produced by a disabled handle.
#[derive(Debug)]
pub struct SpanTimer {
    armed: Option<ArmedSpan>,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((start, inner, sel)) = self.armed.take() {
            sel(&inner.metrics).observe(start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_only_when_armed() {
        let off = Telemetry::disabled();
        off.count(|m| &m.commits);
        off.gauge_set(|m| &m.queue_depth, 9);
        assert!(off.snapshot().is_none());
        assert!(!off.is_enabled());

        let on = Telemetry::enabled();
        on.count(|m| &m.commits);
        on.add(|m| &m.commits, 2);
        on.gauge_set(|m| &m.queue_depth, 9);
        let snap = on.snapshot().unwrap();
        assert_eq!(snap.commits, 3);
        assert_eq!(snap.queue_depth, 9);
    }

    #[test]
    fn clones_share_one_registry() {
        let a = Telemetry::enabled();
        let b = a.clone();
        b.count(|m| &m.rollbacks);
        assert_eq!(a.snapshot().unwrap().rollbacks, 1);
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);

        let h = Histogram::default();
        for v in [0, 1, 7, 100, 1000, u64::MAX] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1)
                .wrapping_add(7)
                .wrapping_add(100)
                .wrapping_add(1000)
                .wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn histogram_quantiles_are_log2_estimates_clamped_to_max() {
        let h = Histogram::default();
        for _ in 0..95 {
            h.observe(10); // bucket [8, 16), bound 15
        }
        for _ in 0..5 {
            h.observe(1000); // bucket [512, 1024), bound 1023 → clamped 1000
        }
        let s = h.summary();
        assert_eq!(s.p50, 15);
        assert_eq!(s.p95, 15);
        assert_eq!(s.max, 1000);

        let one = Histogram::default();
        one.observe(3);
        let s = one.summary();
        assert_eq!((s.p50, s.p95, s.max), (3, 3, 3));
    }

    #[test]
    fn span_timer_records_on_drop() {
        let t = Telemetry::enabled();
        {
            let _span = t.span(|m| &m.commit_ns);
        }
        assert_eq!(t.snapshot().unwrap().commit_ns.count, 1);
        // Disabled handles hand out inert guards.
        let off = Telemetry::disabled();
        drop(off.span(|m| &m.commit_ns));
    }

    #[test]
    fn event_journal_is_bounded_and_drops_oldest_first() {
        let t = Telemetry::enabled();
        for i in 0..(EVENT_JOURNAL_CAP as u64 + 10) {
            t.event(EventKind::Commit, i, || format!("v{i}"));
        }
        let events = t.recent_events();
        assert_eq!(events.len(), EVENT_JOURNAL_CAP);
        assert_eq!(t.events_dropped(), 10);
        assert_eq!(events.first().unwrap().seq, 10, "oldest records dropped first");
        assert_eq!(events.last().unwrap().seq, EVENT_JOURNAL_CAP as u64 + 9);
        let monotone = events.windows(2).all(|w| w[0].seq + 1 == w[1].seq);
        assert!(monotone, "ring order is sequence order");
    }

    #[test]
    fn event_detail_is_lazy_when_disabled() {
        let off = Telemetry::disabled();
        off.event(EventKind::Degraded, 0, || panic!("detail must not be evaluated"));
        assert!(off.recent_events().is_empty());
    }

    #[test]
    fn event_kinds_expose_codes_and_labels() {
        assert_eq!(EventKind::Degraded.code(), Some("XPUL-E09"));
        assert_eq!(EventKind::Shed.code(), Some("XPUL-E08"));
        assert_eq!(EventKind::Commit.code(), None);
        assert_eq!(EventKind::MaintenanceFailure.label(), "maintenance_failure");
    }

    #[test]
    fn render_text_is_deterministic() {
        let t = Telemetry::enabled();
        t.count(|m| &m.commits);
        t.observe(|m| &m.wal_append_ns, 100);
        let text = t.snapshot().unwrap().render_text();
        assert!(text.contains("# TYPE xmlpul_commits counter\nxmlpul_commits 1\n"));
        assert!(text.contains("# TYPE xmlpul_queue_depth gauge\nxmlpul_queue_depth 0\n"));
        assert!(text.contains("xmlpul_wal_append_ns_count 1\n"));
        assert!(text.contains("xmlpul_wal_append_ns{quantile=\"0.5\"} 100\n"));
        assert_eq!(text, t.snapshot().unwrap().render_text());
    }
}
