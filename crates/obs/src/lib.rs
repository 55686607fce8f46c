//! # cwa-obs — zero-dependency observability
//!
//! Counters, gauges, log-scale histograms and span timers for the
//! sim → vantage → analysis pipeline, plus a [`Registry`] that
//! serializes every metric to a stable, sorted JSON schema
//! (`cwa-obs/v1`).
//!
//! Design constraints (they shape the whole API):
//!
//! * **Cheap on hot paths.** Every mutation is a single relaxed atomic
//!   RMW on a pre-resolved `Arc` handle; name lookup (the only locking
//!   operation) happens once at wiring time, not per event.
//! * **Observation only.** Metrics never feed back into simulation
//!   logic and never touch an RNG stream, so enabling them cannot
//!   perturb determinism — runs stay bit-identical with metrics on or
//!   off (the simnet test suite asserts this).
//! * **Stable output.** [`Registry::to_json`] emits metrics sorted by
//!   name with integer-only values, so two snapshots of identical
//!   counters are byte-identical.
//!
//! The [`trace`] module adds the flight recorder: per-thread ring
//! buffers of span events with a Chrome trace-event export, for the
//! *when* that aggregate metrics cannot answer. The [`heartbeat`] and
//! [`http`] modules add *live* telemetry: a background sampler that
//! snapshots the registry on an interval (bounded ring + optional
//! `metrics.jsonl` stream) and a tiny HTTP/1.0 scrape server exposing
//! `/metrics`, `/metrics.json`, `/progress` and `/healthz` while a run
//! is still in flight. The [`live`] module adds the mailbox live runs
//! publish their rendered `/report` and `/figures/*` documents into.

#![forbid(unsafe_code)]

pub mod heartbeat;
pub mod http;
pub mod live;
pub mod trace;

pub use heartbeat::{Heartbeat, HeartbeatConfig, HeartbeatRing, HeartbeatSample};
pub use http::{TelemetryServer, TelemetryState};
pub use live::{LiveFigure, LiveSnapshot};
pub use trace::{NameId, StageLog, TraceBuf, TraceSpan, Tracer};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed value that can move both ways (queue depths, utilization).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: one per possible bit length of a `u64`,
/// plus one for zero.
const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-scale histogram for latencies and sizes.
///
/// Bucket `i` counts values whose bit length is `i` (bucket 0 holds
/// exact zeros), so bucket `i` spans `[2^(i-1), 2^i - 1]` and the whole
/// `u64` range is covered with 65 slots and no configuration.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Index of the log2 bucket for `v` (its bit length).
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (q in [0, 1]) of the recorded distribution,
    /// linearly interpolated *within* the log2 bucket that holds the
    /// target rank: exact log2-resolution quantiles without storing a
    /// single sample.
    ///
    /// With `n` observations the target rank is `q·n`; walking the
    /// buckets in order finds the bucket whose cumulative count first
    /// reaches it, and the value is interpolated between that bucket's
    /// inclusive bounds by the rank's fractional position inside it.
    /// Returns `None` for an empty histogram — there is no
    /// distribution to take a quantile of, and emitting 0 would be
    /// indistinguishable from a real all-zero sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * n as f64;
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let lo = bucket_floor(i) as f64;
                let hi = bucket_bound(i) as f64;
                let within = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * within);
            }
            cum += c;
        }
        Some(self.max() as f64)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// ascending order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_bound(i), n))
            })
            .collect()
    }
}

/// Accumulated wall-clock time across [`Span`]s.
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Timer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Timer::default()
    }

    /// Records one measured duration.
    pub fn record(&self, d: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Starts a scoped span that records into this timer on drop.
    pub fn start(self: &Arc<Self>) -> Span {
        Span {
            timer: Arc::clone(self),
            started: Instant::now(),
            recorded: false,
        }
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total recorded nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }
}

/// A scope timer: measures from creation until [`Span::stop`] or drop.
#[derive(Debug)]
pub struct Span {
    timer: Arc<Timer>,
    started: Instant,
    recorded: bool,
}

impl Span {
    /// Stops the span now, recording the elapsed time.
    pub fn stop(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        self.timer.record(elapsed);
        self.recorded = true;
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorded {
            self.timer.record(self.started.elapsed());
        }
    }
}

/// The four metric kinds a registry can hold.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Timer(Arc<Timer>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Timer(_) => "timer",
        }
    }
}

/// A named collection of metrics with get-or-create handles and a
/// stable JSON snapshot.
///
/// Handle resolution locks a mutex; the returned `Arc` handles are
/// lock-free. Resolve once at wiring time, mutate freely afterwards.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T, F, G>(&self, name: &str, make: F, extract: G) -> Arc<T>
    where
        F: FnOnce() -> Metric,
        G: FnOnce(&Metric) -> Option<Arc<T>>,
    {
        let mut map = self.metrics.lock().expect("obs registry poisoned");
        let entry = map.entry(name.to_owned()).or_insert_with(make);
        extract(entry)
            .unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", entry.kind()))
    }

    /// Resolves (creating if needed) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Resolves (creating if needed) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Resolves (creating if needed) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Resolves (creating if needed) the timer `name`.
    pub fn timer(&self, name: &str) -> Arc<Timer> {
        self.get_or_insert(
            name,
            || Metric::Timer(Arc::new(Timer::new())),
            |m| match m {
                Metric::Timer(t) => Some(Arc::clone(t)),
                _ => None,
            },
        )
    }

    /// Starts a span on the timer `name`.
    pub fn span(&self, name: &str) -> Span {
        self.timer(name).start()
    }

    /// Compact JSON snapshot (schema `cwa-obs/v1`, names sorted).
    pub fn to_json(&self) -> String {
        self.render(false, None)
    }

    /// Pretty two-space-indented JSON snapshot.
    pub fn to_json_pretty(&self) -> String {
        self.render(true, None)
    }

    /// Compact JSON snapshot with a `ts_ms` wall-clock field, for
    /// append-only heartbeat streams (`metrics.jsonl`): one snapshot
    /// per line, each line a full self-describing cwa-obs/v1 document.
    pub fn to_json_with_ts(&self, ts_ms: u64) -> String {
        self.render(false, Some(ts_ms))
    }

    /// Numeric sample of every metric, for rate derivation between
    /// consecutive snapshots: counters and gauges appear under their
    /// registered name; timers contribute `<name>.total_ns` and
    /// `<name>.count`; histograms contribute `<name>.count` and
    /// `<name>.sum`.
    pub fn sample(&self) -> BTreeMap<String, i64> {
        let map = self.metrics.lock().expect("obs registry poisoned");
        let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
        let mut out = BTreeMap::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.insert(name.clone(), clamp(c.get()));
                }
                Metric::Gauge(g) => {
                    out.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    out.insert(format!("{name}.count"), clamp(h.count()));
                    out.insert(format!("{name}.sum"), clamp(h.sum()));
                }
                Metric::Timer(t) => {
                    out.insert(format!("{name}.total_ns"), clamp(t.total_ns()));
                    out.insert(format!("{name}.count"), clamp(t.count()));
                }
            }
        }
        out
    }

    /// Prometheus text exposition (version 0.0.4) of every metric,
    /// names sorted and sanitized to the Prometheus charset (`.` and
    /// any other invalid character become `_`), label values escaped
    /// per the exposition format (`\\`, `\"`, `\n`), every line
    /// newline-terminated. Counters gain the conventional `_total`
    /// suffix; histograms expose cumulative `_bucket{le=...}` series
    /// plus `_sum`/`_count`; timers expose `_ns_total` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let map = self.metrics.lock().expect("obs registry poisoned");
        let mut out = String::new();
        for (name, metric) in map.iter() {
            let base = prometheus_name(name);
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "# TYPE {base}_total counter\n{base}_total {}\n",
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {base} gauge\n{base} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {base} histogram\n"));
                    let mut cum = 0u64;
                    for (le, n) in h.buckets() {
                        cum += n;
                        out.push_str(&format!(
                            "{base}_bucket{{le=\"{}\"}} {cum}\n",
                            prometheus_label_value(&le.to_string())
                        ));
                    }
                    out.push_str(&format!(
                        "{base}_bucket{{le=\"+Inf\"}} {}\n{base}_sum {}\n{base}_count {}\n",
                        h.count(),
                        h.sum(),
                        h.count()
                    ));
                }
                Metric::Timer(t) => {
                    out.push_str(&format!(
                        "# TYPE {base}_ns_total counter\n{base}_ns_total {}\n\
                         # TYPE {base}_count counter\n{base}_count {}\n",
                        t.total_ns(),
                        t.count()
                    ));
                }
            }
        }
        out
    }

    fn render(&self, pretty: bool, ts_ms: Option<u64>) -> String {
        let map = self.metrics.lock().expect("obs registry poisoned");
        let (nl, ind1, ind2, ind3, sp) = if pretty {
            ("\n", "  ", "    ", "      ", " ")
        } else {
            ("", "", "", "", "")
        };
        let mut out = String::new();
        out.push_str(&format!("{{{nl}{ind1}\"schema\":{sp}\"cwa-obs/v1\",{nl}"));
        if let Some(ts) = ts_ms {
            out.push_str(&format!("{ind1}\"ts_ms\":{sp}{ts},{nl}"));
        }
        out.push_str(&format!("{ind1}\"metrics\":{sp}{{{nl}"));
        for (i, (name, metric)) in map.iter().enumerate() {
            out.push_str(&format!("{ind2}{}:{sp}", json_string(name)));
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{{\"type\":{sp}\"counter\",{sp}\"value\":{sp}{}}}",
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{{\"type\":{sp}\"gauge\",{sp}\"value\":{sp}{}}}",
                        g.get()
                    ));
                }
                Metric::Histogram(h) => {
                    let buckets = h
                        .buckets()
                        .iter()
                        .map(|(le, n)| format!("{{\"le\":{sp}{le},{sp}\"count\":{sp}{n}}}"))
                        .collect::<Vec<_>>()
                        .join(&format!(",{sp}"));
                    // An empty histogram has no distribution to
                    // summarize: the quantile keys are omitted rather
                    // than emitted as a fake 0 sample.
                    let quantiles = match (h.quantile(0.50), h.quantile(0.90), h.quantile(0.99)) {
                        (Some(p50), Some(p90), Some(p99)) => format!(
                            "{sp}\"p50\":{sp}{},{sp}\"p90\":{sp}{},{sp}\"p99\":{sp}{},",
                            p50.round() as u64,
                            p90.round() as u64,
                            p99.round() as u64,
                        ),
                        _ => String::new(),
                    };
                    out.push_str(&format!(
                        "{{\"type\":{sp}\"histogram\",{sp}\"count\":{sp}{},{sp}\"sum\":{sp}{},{sp}\
                         \"min\":{sp}{},{sp}\"max\":{sp}{},{quantiles}{nl}{ind3}\
                         \"buckets\":{sp}[{buckets}]}}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                    ));
                }
                Metric::Timer(t) => {
                    let count = t.count();
                    let mean = t.total_ns().checked_div(count).unwrap_or(0);
                    out.push_str(&format!(
                        "{{\"type\":{sp}\"timer\",{sp}\"count\":{sp}{count},{sp}\
                         \"total_ns\":{sp}{},{sp}\"mean_ns\":{sp}{mean}}}",
                        t.total_ns(),
                    ));
                }
            }
            if i + 1 < map.len() {
                out.push(',');
            }
            out.push_str(nl);
        }
        out.push_str(&format!("{ind1}}}{nl}}}{nl}"));
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.metrics.lock().expect("obs registry poisoned");
        write!(f, "Registry({} metrics)", map.len())
    }
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote and newline must be backslash-escaped; all
/// other characters (including UTF-8) pass through verbatim.
pub(crate) fn prometheus_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Sanitizes a metric name to the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// JSON-escapes a metric name.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_log2_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1014);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        // 0 → le 0; 1 → le 1; 2,3 → le 3; 8 → le 15; 1000 → le 1023.
        assert_eq!(
            h.buckets(),
            vec![(0, 1), (1, 1), (3, 2), (15, 1), (1023, 1)]
        );
    }

    #[test]
    fn empty_histogram_min_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.buckets().is_empty());
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn empty_histogram_json_omits_quantile_keys() {
        let reg = Registry::new();
        reg.histogram("empty.sizes");
        reg.histogram("full.sizes").record(5);
        let as_u64 = |v: &serde_json::Value| match v {
            serde_json::Value::Num(n) => n.as_u64(),
            _ => None,
        };
        for json in [reg.to_json(), reg.to_json_pretty()] {
            let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
            let metrics = v.get("metrics").unwrap();
            let empty = metrics.get("empty.sizes").unwrap();
            for key in ["p50", "p90", "p99"] {
                assert!(empty.get(key).is_none(), "{key} present in: {json}");
            }
            assert_eq!(as_u64(empty.get("count").unwrap()), Some(0));
            // 5 sits in the log2 bucket [4,7]; p50 interpolates to
            // its midpoint 5.5, which rounds to 6.
            let full = metrics.get("full.sizes").unwrap();
            assert_eq!(as_u64(full.get("p50").unwrap()), Some(6));
        }
    }

    #[test]
    fn quantiles_interpolate_within_one_bucket() {
        // 4, 5, 6, 7 all land in the bucket [4, 7]: n = 4, so the
        // p50 target rank is 2.0, half-way into the bucket's 4 counts,
        // hence 4 + (7 − 4)·0.5 = 5.5; p99 is 4 + 3·0.99 = 6.97.
        let h = Histogram::new();
        for v in [4u64, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(5.5));
        assert_eq!(h.quantile(0.99), Some(6.97));
        assert_eq!(h.quantile(0.0), Some(4.0));
        assert_eq!(h.quantile(1.0), Some(7.0));
    }

    #[test]
    fn quantiles_interpolate_across_buckets() {
        // 1 → [1,1]; 2,2 → [2,3]; 8 → [8,15].  p50 target rank 2.0
        // falls half-way into the [2,3] bucket: 2 + 1·0.5 = 2.5.
        // p90 target rank 3.6 is 0.6 into the [8,15] bucket:
        // 8 + 7·0.6 = 12.2.
        let h = Histogram::new();
        for v in [1u64, 2, 2, 8] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(2.5));
        assert!((h.quantile(0.9).unwrap() - 12.2).abs() < 1e-9);
    }

    #[test]
    fn json_snapshot_emits_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("sizes");
        for v in [4u64, 5, 6, 7] {
            h.record(v);
        }
        let json = reg.to_json();
        // 5.5 → 6 and 6.97 → 7 after rounding to integers.
        assert!(json.contains("\"p50\":6"), "got: {json}");
        assert!(json.contains("\"p90\":7"), "got: {json}");
        assert!(json.contains("\"p99\":7"), "got: {json}");
    }

    #[test]
    fn prometheus_exposition_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("sim.events").add(7);
        reg.gauge("queue.depth").set(-2);
        let h = reg.histogram("sizes");
        h.record(3);
        h.record(900);
        reg.timer("phase").record(Duration::from_micros(5));

        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE sim_events_total counter"));
        assert!(text.contains("sim_events_total 7"));
        assert!(text.contains("queue_depth -2"));
        assert!(text.contains("sizes_bucket{le=\"3\"} 1"));
        assert!(text.contains("sizes_bucket{le=\"1023\"} 2"));
        assert!(text.contains("sizes_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sizes_sum 903"));
        assert!(text.contains("sizes_count 2"));
        assert!(text.contains("phase_ns_total 5000"));
        assert!(text.contains("phase_count 1"));
        // Deterministic: identical registries render identically.
        assert_eq!(text, reg.to_prometheus());
    }

    /// Line-level conformance with the Prometheus text exposition
    /// format 0.0.4: trailing newline, well-formed `# TYPE` comments
    /// with known kinds, sample names in the legal charset, numeric
    /// values, and every sample preceded by a TYPE declaration for its
    /// family (modulo the `_bucket`/`_sum`/`_count` histogram
    /// suffixes).
    #[test]
    fn prometheus_exposition_is_line_conformant() {
        let reg = Registry::new();
        reg.counter("sim.shard.00.records").add(12);
        reg.gauge("weird metric-name!\"quoted\"").set(3);
        let h = reg.histogram("sizes");
        h.record(0);
        h.record(77);
        reg.timer("phase.analyze").record(Duration::from_millis(2));

        let text = reg.to_prometheus();
        assert!(text.ends_with('\n'), "exposition must end with newline");

        let name_ok = |s: &str| {
            !s.is_empty()
                && !s.starts_with(|c: char| c.is_ascii_digit())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let (name, kind) = (parts.next().unwrap(), parts.next().unwrap());
                assert!(parts.next().is_none(), "extra tokens in TYPE line: {line}");
                assert!(name_ok(name), "bad TYPE name: {line}");
                assert!(
                    ["counter", "gauge", "histogram"].contains(&kind),
                    "unknown kind: {line}"
                );
                assert!(!typed.contains(&name.to_string()), "duplicate TYPE: {line}");
                typed.push(name.to_string());
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
            let name = match series.split_once('{') {
                Some((name, labels)) => {
                    assert!(labels.ends_with('}'), "unterminated labels: {line}");
                    let body = &labels[..labels.len() - 1];
                    let (key, val) = body.split_once('=').expect("label has key=value");
                    assert!(name_ok(key), "bad label key: {line}");
                    assert!(
                        val.starts_with('"') && val.ends_with('"') && val.len() >= 2,
                        "label value not quoted: {line}"
                    );
                    name
                }
                None => series,
            };
            assert!(name_ok(name), "bad sample name: {line}");
            let family_typed = typed.iter().any(|t| {
                name == t
                    || ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suf| name.strip_suffix(suf) == Some(t))
            });
            assert!(family_typed, "sample without TYPE declaration: {line}");
        }
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        assert_eq!(prometheus_label_value("plain"), "plain");
        assert_eq!(
            prometheus_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd",
            "backslash, quote and newline must be escaped"
        );
    }

    #[test]
    fn registry_sample_flattens_every_kind() {
        let reg = Registry::new();
        reg.counter("records").add(41);
        reg.gauge("depth").set(-3);
        let h = reg.histogram("sizes");
        h.record(10);
        h.record(20);
        reg.timer("phase").record(Duration::from_nanos(700));

        let s = reg.sample();
        assert_eq!(s.get("records"), Some(&41));
        assert_eq!(s.get("depth"), Some(&-3));
        assert_eq!(s.get("sizes.count"), Some(&2));
        assert_eq!(s.get("sizes.sum"), Some(&30));
        assert_eq!(s.get("phase.total_ns"), Some(&700));
        assert_eq!(s.get("phase.count"), Some(&1));
    }

    #[test]
    fn timestamped_snapshot_keeps_schema_and_parses() {
        let reg = Registry::new();
        reg.counter("records").add(5);
        let line = reg.to_json_with_ts(1_720_000_000_123);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("cwa-obs/v1"));
        let ts = match v.get("ts_ms").unwrap() {
            serde_json::Value::Num(n) => n.as_u64(),
            _ => None,
        };
        assert_eq!(ts, Some(1_720_000_000_123));
        assert!(v.get("metrics").is_some());
    }

    #[test]
    fn timer_spans_accumulate() {
        let t = Arc::new(Timer::new());
        t.start().stop();
        {
            let _implicit = t.start();
        }
        t.record(Duration::from_nanos(500));
        assert_eq!(t.count(), 3);
        assert!(t.total_ns() >= 500);
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        assert_eq!(reg.counter("a").get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_clash() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn json_snapshot_round_trips_through_serde_json() {
        let reg = Registry::new();
        reg.counter("sim.events").add(7);
        reg.gauge("queue.depth").set(-2);
        let h = reg.histogram("sizes");
        h.record(3);
        h.record(900);
        reg.timer("phase").record(Duration::from_micros(5));

        for json in [reg.to_json(), reg.to_json_pretty()] {
            let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
            let back = serde_json::to_string(&v).expect("serializes");
            let v2: serde_json::Value = serde_json::from_str(&back).expect("valid JSON");
            assert_eq!(v, v2, "parse→print→parse stable");
            assert!(json.contains("\"cwa-obs/v1\""));
            assert!(json.contains("\"sim.events\""));
            assert!(json.contains("\"total_ns\""));
        }
    }

    #[test]
    fn json_snapshot_is_deterministic_and_sorted() {
        let build = |order_flip: bool| {
            let reg = Registry::new();
            if order_flip {
                reg.counter("b").add(1);
                reg.counter("a").add(2);
            } else {
                reg.counter("a").add(2);
                reg.counter("b").add(1);
            }
            reg.to_json()
        };
        assert_eq!(build(false), build(true), "registration order irrelevant");
        let json = build(false);
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
    }

    #[test]
    fn concurrent_increments_from_crossbeam_workers() {
        let reg = Registry::new();
        let counter = reg.counter("parallel.incs");
        let hist = reg.histogram("parallel.values");
        crossbeam::thread::scope(|s| {
            for w in 0..8u64 {
                let c = Arc::clone(&counter);
                let h = Arc::clone(&hist);
                s.spawn(move |_| {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(w * 10_000 + i);
                    }
                });
            }
        })
        .expect("no worker panicked");
        assert_eq!(counter.get(), 80_000);
        assert_eq!(hist.count(), 80_000);
        assert_eq!(hist.min(), 0);
        assert_eq!(hist.max(), 79_999);
    }
}
