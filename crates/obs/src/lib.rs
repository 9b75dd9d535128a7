//! Cross-crate observability: a thread-safe metrics registry (counters and
//! log2-bucketed histograms), hierarchical span timing, and the
//! [`Recorder`] interface every measurement crate reports through.
//!
//! # Design
//!
//! Hot paths never read the wall clock: a [`Counter`] or [`Histogram`]
//! update is one relaxed op on the calling thread's stripe of a
//! pre-interned handle; reads sum the stripes. Wall-clock
//! reads happen only at span boundaries ([`SpanTimer`] enter/exit), which
//! sit at phase granularity, not per probe.
//!
//! # Determinism contract
//!
//! Metric *values* — counter totals and histogram bucket tallies — must be byte-identical across thread counts for the same seed. The
//! pipeline guarantees this by deriving every per-probe quantity from
//! scenario state rather than scheduling (see DESIGN.md §10). Quantities
//! that *are* scheduling-dependent — wall-clock durations, work-steal
//! counts, per-worker shares — are reported via [`Recorder::record_span`]
//! and [`Recorder::timing_value`] and exported under the top-level
//! `timing` key, which determinism comparisons strip.

#![warn(missing_docs)]

use parking_lot::Mutex;
use serde_json::{Map, Number, Value};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Version tag of the exported metrics document.
pub const SCHEMA: &str = "hobbit-metrics/v2";

/// Number of histogram buckets: bucket `k` holds values whose bit length
/// is `k`, i.e. `[2^(k-1), 2^k)`, with bucket 0 reserved for zero.
pub const HIST_BUCKETS: usize = 65;

/// Log2 bucket index for a value: 0 for 0, otherwise the bit length
/// (so 1 → 1, 2..=3 → 2, 4..=7 → 3, ...).
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Stripes per [`Counter`] and [`Histogram`] handle. A thread writes only
/// its own stripe, so up to this many live threads update one metric
/// without sharing a cache line; reads sum the stripes.
const STRIPES: usize = 8;

/// Stripes held by live threads, one bit each.
static HELD: AtomicUsize = AtomicUsize::new(0);

/// A thread's claim on a stripe, given back when the claim drops (when
/// the thread exits).
struct StripeClaim {
    held: &'static AtomicUsize,
    index: usize,
    /// The claimed bit of `held`; 0 for a shared, unheld stripe.
    bit: usize,
}

impl StripeClaim {
    /// Claim the lowest stripe `held` marks free. With every stripe held,
    /// share stripe 0: totals stay exact, only the cache line is shared.
    fn claim(held: &'static AtomicUsize) -> StripeClaim {
        let mut now = held.load(Ordering::Relaxed);
        loop {
            let free = !now & ((1 << STRIPES) - 1);
            if free == 0 {
                return StripeClaim {
                    held,
                    index: 0,
                    bit: 0,
                };
            }
            let index = free.trailing_zeros() as usize;
            let bit = 1 << index;
            match held.compare_exchange_weak(now, now | bit, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return StripeClaim { held, index, bit },
                Err(seen) => now = seen,
            }
        }
    }
}

impl Drop for StripeClaim {
    fn drop(&mut self) {
        self.held.fetch_and(!self.bit, Ordering::Relaxed);
    }
}

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    static CLAIM: Cell<Option<StripeClaim>> = const { Cell::new(None) };
}

/// The calling thread's stripe, claimed on its first use and held until
/// the thread exits. Concurrently live threads never share a stripe (up
/// to [`STRIPES`] of them), however many threads came and went before:
/// a long-lived thread and a stream of short-lived workers stay apart.
#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            let claim = StripeClaim::claim(&HELD);
            i = claim.index;
            s.set(i);
            // During thread-local teardown the claim drops at once: the
            // stripe is used unheld, still exact, only maybe shared.
            let _ = CLAIM.try_with(|c| c.set(Some(claim)));
        }
        i
    })
}

/// One stripe on cache lines of its own (128 bytes: the adjacent-line
/// prefetcher pairs 64-byte lines).
#[derive(Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// A monotonically increasing counter. Cloning shares the underlying
/// stripes (handles are cheap and `Send + Sync`); [`Counter::fork`] makes
/// an independent copy with the same current value.
#[derive(Clone, Default)]
pub struct Counter(Arc<[Padded<AtomicU64>; STRIPES]>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum of the stripes.
    pub fn get(&self) -> u64 {
        self.0.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    /// An independent counter starting at this counter's current value
    /// (deep copy — used by `Clone` impls of structs that snapshot state).
    pub fn fork(&self) -> Self {
        let c = Counter::new();
        c.add(self.get());
        c
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// One thread's share of a [`Histogram`].
struct HistStripe {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A histogram with fixed log2 buckets (see [`bucket_index`]). Like
/// [`Counter`], cloning shares state and recording writes only the calling
/// thread's stripe.
#[derive(Clone, Default)]
pub struct Histogram(Arc<[Padded<HistStripe>; STRIPES]>);

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = &self.0[stripe()].0;
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Sum one field over the stripes.
    fn total(&self, field: impl Fn(&HistStripe) -> &AtomicU64) -> u64 {
        self.0
            .iter()
            .map(|s| field(&s.0).load(Ordering::Relaxed))
            .sum()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total(|s| &s.count)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.total(|s| &s.sum)
    }

    /// Non-empty buckets as `(bucket index, tally)` pairs, ascending.
    pub fn bucket_counts(&self) -> Vec<(usize, u64)> {
        (0..HIST_BUCKETS)
            .filter_map(|i| {
                let n = self.total(|s| &s.buckets[i]);
                (n > 0).then_some((i, n))
            })
            .collect()
    }

    /// An independent histogram with the same tallies.
    pub fn fork(&self) -> Self {
        let h = Histogram::new();
        let s = &h.0[0].0;
        for (i, n) in self.bucket_counts() {
            s.buckets[i].store(n, Ordering::Relaxed);
        }
        s.count.store(self.count(), Ordering::Relaxed);
        s.sum.store(self.sum(), Ordering::Relaxed);
        h
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// The one interface instrumented code reports through.
///
/// `counter`/`histogram` intern a metric by name and return a
/// shared handle; calling twice with the same name must return handles
/// over the same state. Handles should be obtained once, outside hot
/// loops, then bumped lock-free.
///
/// The two `timing` methods record scheduling-dependent data (wall-clock
/// spans, per-worker shares). Implementations that don't track timing can
/// keep the no-op defaults.
pub trait Recorder: Send + Sync {
    /// Intern (or look up) a counter by name.
    fn counter(&self, name: &str) -> Counter;
    /// Intern (or look up) a histogram by name.
    fn histogram(&self, name: &str) -> Histogram;
    /// Record a completed span: `path` is `/`-separated (`run/classify`),
    /// `us` the wall-clock duration. Timing-only — excluded from the
    /// determinism contract.
    fn record_span(&self, _path: &str, _us: u64) {}
    /// Accumulate a scheduling-dependent scalar under the `timing` key
    /// (work-steal counts, per-worker totals). Excluded from the
    /// determinism contract.
    fn timing_value(&self, _path: &str, _v: u64) {}
}

/// A recorder that retains nothing: every call returns a fresh detached
/// handle, so instrumented code pays one atomic op and moves on.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn counter(&self, _name: &str) -> Counter {
        Counter::new()
    }
    fn histogram(&self, _name: &str) -> Histogram {
        Histogram::new()
    }
}

/// An RAII span: created at phase entry, records its wall-clock duration
/// to the recorder on drop. The only wall-clock reads in the system.
pub struct SpanTimer<'a> {
    rec: &'a dyn Recorder,
    path: String,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Enter a span at `path` (e.g. `run/classify/block`).
    pub fn start(rec: &'a dyn Recorder, path: impl Into<String>) -> Self {
        SpanTimer {
            rec,
            path: path.into(),
            start: Instant::now(),
        }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        self.rec.record_span(&self.path, us);
    }
}

/// Aggregated timing of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the span was entered.
    pub count: u64,
    /// Total wall-clock microseconds across entries.
    pub total_us: u64,
}

/// The concrete metrics registry: interns metrics by name, aggregates
/// span timings by path, and exports a versioned JSON document.
///
/// Interning takes a mutex, so handles should be obtained once per phase
/// or worker; updates through the returned handles are lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
    timing_values: Mutex<BTreeMap<String, u64>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Enter a span; its duration is recorded when the guard drops.
    pub fn span(&self, path: impl Into<String>) -> SpanTimer<'_> {
        SpanTimer::start(self, path)
    }

    /// Read a counter's current value without interning it: `None` when no
    /// counter of that name has been created yet (distinct from an
    /// existing counter sitting at zero). Lets tests and reports assert on
    /// a metric without the read itself creating the metric.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.lock().get(name).map(|c| c.get())
    }

    /// Span timings as `(path, stat)` rows, sorted by path (preorder of
    /// the span tree, since a parent path is a prefix of its children).
    pub fn span_rows(&self) -> Vec<(String, SpanStat)> {
        self.spans
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Scheduling-dependent scalars as `(path, value)` rows, sorted.
    pub fn timing_rows(&self) -> Vec<(String, u64)> {
        self.timing_values
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Render the span tree as indented text, one line per path:
    /// `name  count  total_ms`.
    pub fn render_span_tree(&self) -> String {
        let mut out = String::new();
        for (path, stat) in self.span_rows() {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(&path);
            out.push_str(&format!(
                "{}{}  x{}  {:.3} ms\n",
                "  ".repeat(depth),
                name,
                stat.count,
                stat.total_us as f64 / 1000.0
            ));
        }
        out
    }

    /// Export the versioned metrics document. Everything outside the
    /// `timing` key is deterministic across thread counts; `timing` holds
    /// span durations and scheduling-dependent values.
    pub fn export(&self) -> Value {
        let mut root = Map::new();
        root.insert("schema".into(), Value::String(SCHEMA.into()));

        let mut counters = Map::new();
        for (name, c) in self.counters.lock().iter() {
            counters.insert(name.clone(), Value::Number(Number::U64(c.get())));
        }
        root.insert("counters".into(), Value::Object(counters));

        let mut hists = Map::new();
        for (name, h) in self.histograms.lock().iter() {
            let mut entry = Map::new();
            entry.insert("count".into(), Value::Number(Number::U64(h.count())));
            entry.insert("sum".into(), Value::Number(Number::U64(h.sum())));
            let buckets = h
                .bucket_counts()
                .into_iter()
                .map(|(i, n)| {
                    Value::Array(vec![
                        Value::Number(Number::U64(i as u64)),
                        Value::Number(Number::U64(n)),
                    ])
                })
                .collect();
            entry.insert("buckets".into(), Value::Array(buckets));
            hists.insert(name.clone(), Value::Object(entry));
        }
        root.insert("histograms".into(), Value::Object(hists));

        let mut timing = Map::new();
        let mut spans = Map::new();
        for (path, stat) in self.span_rows() {
            let mut entry = Map::new();
            entry.insert("count".into(), Value::Number(Number::U64(stat.count)));
            entry.insert("total_us".into(), Value::Number(Number::U64(stat.total_us)));
            spans.insert(path, Value::Object(entry));
        }
        timing.insert("spans".into(), Value::Object(spans));
        let mut values = Map::new();
        for (path, v) in self.timing_rows() {
            values.insert(path, Value::Number(Number::U64(v)));
        }
        timing.insert("values".into(), Value::Object(values));
        root.insert("timing".into(), Value::Object(timing));

        Value::Object(root)
    }

    /// [`Registry::export`] rendered as two-space-indented JSON. Key
    /// order is sorted (BTreeMap), so the text is byte-deterministic for
    /// equal metric values.
    pub fn export_pretty(&self) -> String {
        self.export().to_json_pretty()
    }
}

impl Recorder for Registry {
    fn counter(&self, name: &str) -> Counter {
        self.counters.lock().entry(name.into()).or_default().clone()
    }

    fn histogram(&self, name: &str) -> Histogram {
        self.histograms
            .lock()
            .entry(name.into())
            .or_default()
            .clone()
    }

    fn record_span(&self, path: &str, us: u64) {
        let mut spans = self.spans.lock();
        let stat = spans.entry(path.into()).or_default();
        stat.count += 1;
        stat.total_us += us;
    }

    fn timing_value(&self, path: &str, v: u64) {
        *self.timing_values.lock().entry(path.into()).or_default() += v;
    }
}

/// Strip the `timing` key from an exported metrics document, leaving only
/// the deterministic content (what byte-identity tests compare).
pub fn strip_timing(doc: &Value) -> Value {
    match doc {
        Value::Object(m) => {
            let mut out = Map::new();
            for (k, v) in m {
                if k != "timing" {
                    out.insert(k.clone(), v.clone());
                }
            }
            Value::Object(out)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_value_reads_without_interning() {
        let reg = Registry::new();
        assert_eq!(reg.counter_value("absent"), None);
        // The read above must not have created the metric.
        assert_eq!(reg.counter_value("absent"), None);
        let c = reg.counter("present");
        assert_eq!(reg.counter_value("present"), Some(0));
        c.add(3);
        assert_eq!(reg.counter_value("present"), Some(3));
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn counter_handles_share_state_and_fork_detaches() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("x").get(), 4);
        let f = a.fork();
        a.inc();
        assert_eq!(f.get(), 4, "fork is a snapshot");
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn histogram_tallies_and_fork() {
        let h = Histogram::new();
        for v in [0, 1, 1, 5, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 307);
        assert_eq!(h.bucket_counts(), vec![(0, 1), (1, 2), (3, 1), (9, 1)]);
        let f = h.fork();
        h.record(1);
        assert_eq!(f.count(), 5);
        assert_eq!(f.bucket_counts(), vec![(0, 1), (1, 2), (3, 1), (9, 1)]);
    }

    #[test]
    fn null_recorder_detaches() {
        let n = NullRecorder;
        n.counter("x").add(5);
        assert_eq!(n.counter("x").get(), 0);
        // A detached handle still counts for whoever holds it.
        let c = n.counter("x");
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        let h = n.histogram("h");
        h.record(9);
        assert_eq!((h.count(), h.sum()), (1, 9));
    }

    #[test]
    fn live_claims_never_share_a_stripe() {
        static HELD: AtomicUsize = AtomicUsize::new(0);
        // A long-lived claim (the main thread) and a stream of short-lived
        // pairs (per-phase workers): every pair gets the two lowest free
        // stripes, however many pairs came before.
        let main = StripeClaim::claim(&HELD);
        assert_eq!(main.index, 0);
        for _ in 0..3 * STRIPES {
            let pair = [StripeClaim::claim(&HELD), StripeClaim::claim(&HELD)];
            assert_eq!([pair[0].index, pair[1].index], [1, 2]);
        }
        // Exhausted: further claims share stripe 0 and give back nothing.
        let rest: Vec<StripeClaim> = (1..STRIPES).map(|_| StripeClaim::claim(&HELD)).collect();
        assert_eq!(HELD.load(Ordering::Relaxed), (1 << STRIPES) - 1);
        let extra = StripeClaim::claim(&HELD);
        assert_eq!((extra.index, extra.bit), (0, 0));
        drop(extra);
        assert_eq!(HELD.load(Ordering::Relaxed), (1 << STRIPES) - 1);
        drop(rest);
        drop(main);
        assert_eq!(HELD.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn striped_totals_are_exact_under_contention() {
        const THREADS: u64 = 8;
        const OPS: u64 = 100_000;
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..OPS {
                        c.inc();
                        c.add(t);
                        h.record(i % 1000);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * OPS + OPS * (0..THREADS).sum::<u64>());
        assert_eq!(h.count(), THREADS * OPS);
        assert_eq!(h.sum(), THREADS * (OPS / 1000) * (0..1000).sum::<u64>());
        let mut want = [0u64; HIST_BUCKETS];
        for v in 0..1000 {
            want[bucket_index(v)] += THREADS * (OPS / 1000);
        }
        let want: Vec<(usize, u64)> = want
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        assert_eq!(h.bucket_counts(), want);

        // A fork keeps the totals and detaches from further updates, made
        // from any thread.
        let (fc, fh) = (c.fork(), h.fork());
        std::thread::scope(|s| {
            s.spawn(|| {
                c.inc();
                h.record(5);
            });
        });
        assert_eq!(fc.get(), c.get() - 1);
        assert_eq!(fh.count(), h.count() - 1);
        assert_eq!(fh.sum(), h.sum() - 5);
        fc.inc();
        assert_eq!(fc.get(), c.get());
    }

    #[test]
    fn spans_aggregate_by_path() {
        let reg = Registry::new();
        {
            let _run = reg.span("run");
            for _ in 0..3 {
                let _p = reg.span("run/phase");
            }
        }
        let rows = reg.span_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "run");
        assert_eq!(rows[0].1.count, 1);
        assert_eq!(rows[1].0, "run/phase");
        assert_eq!(rows[1].1.count, 3);
        let tree = reg.render_span_tree();
        assert!(tree.contains("run"));
        assert!(tree.contains("  phase"));
    }

    #[test]
    fn export_shape_and_strip_timing() {
        let reg = Registry::new();
        reg.counter("probe.sent").add(42);
        reg.histogram("probe.rtt_us").record(1000);
        reg.record_span("run", 1234);
        reg.timing_value("scheduling/steals", 7);

        let doc = reg.export();
        assert_eq!(doc["schema"].as_str(), Some(SCHEMA));
        assert_eq!(doc["counters"]["probe.sent"].as_u64(), Some(42));
        assert_eq!(doc["histograms"]["probe.rtt_us"]["count"].as_u64(), Some(1));
        assert_eq!(
            doc["timing"]["spans"]["run"]["total_us"].as_u64(),
            Some(1234)
        );
        assert_eq!(
            doc["timing"]["values"]["scheduling/steals"].as_u64(),
            Some(7)
        );

        let stripped = strip_timing(&doc);
        assert!(stripped.get("timing").is_none());
        assert_eq!(stripped["counters"]["probe.sent"].as_u64(), Some(42));
    }

    #[test]
    fn export_is_byte_deterministic_for_equal_values() {
        let build = || {
            let reg = Registry::new();
            reg.counter("b").add(2);
            reg.counter("a").add(1);
            reg.histogram("h").record(9);
            strip_timing(&reg.export()).to_json_pretty()
        };
        assert_eq!(build(), build());
    }
}
