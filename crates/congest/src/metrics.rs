//! Zero-dependency live telemetry: counters, gauges, histograms, and a
//! process-wide registry with deterministic snapshots.
//!
//! The tracing layer ([`crate::trace`]) records *everything* for
//! post-hoc analysis; this module is the complementary *live* surface:
//! cheap shared handles a running system mutates on its hot path, and a
//! [`Registry`] that materializes a sorted, versioned
//! [`MetricsSnapshot`] on demand — renderable as JSON
//! ([`MetricsSnapshot::to_json`]) or Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]), and wire-encodable
//! ([`WireState`]) for the serve protocol.
//!
//! # Determinism contract
//!
//! Metric *content* is thread-count-invariant the same way trace
//! content is: every engine-level update happens on the simulator's
//! single-threaded commit spine (once per round, in round order), and
//! the remaining updates are commutative atomic additions, so two runs
//! of the same seeded workload — one on 1 thread, one on 4 — produce
//! bit-identical snapshots at any quiescent point. `tests/metrics.rs`
//! property-tests this.
//!
//! # Histograms
//!
//! [`LogHistogram`] is the repo's one log-bucketed histogram: bucket 0
//! holds the value `0`, bucket `i >= 1` holds `[2^(i-1), 2^i)`. It
//! used to live in `trace::profile` (and is still re-exported there);
//! the lock-free recording variant [`Histogram`] shares the exact same
//! bucket function, so profiles, bench latency distributions, and live
//! metrics all agree on boundaries — `histogram_buckets_unchanged`
//! below is the regression test pinning them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::json::Json;
use crate::wire::{BitReader, BitWriter, WireState};

/// Version stamped into every [`MetricsSnapshot`] (and its JSON
/// rendering as `"schema_version"`).
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// Number of log buckets covering the full `u64` range: one for zero
/// plus one per bit position.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Prefix prepended to every metric name in Prometheus exposition.
pub const PROMETHEUS_PREFIX: &str = "rwbc_";

// ---------------------------------------------------------------------
// LogHistogram (moved here from trace::profile; re-exported there)
// ---------------------------------------------------------------------

/// A log-bucketed histogram over non-negative integer samples.
///
/// Bucket 0 holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`. Sixty-five buckets cover the full `u64` range,
/// which keeps the structure O(1)-sized no matter how long a run is.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogHistogram {
    counts: Vec<u64>,
    samples: u64,
    sum: u128,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Bucket index for `value`.
    pub(crate) fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (`0` for bucket 0, else
    /// `2^i - 1`).
    pub(crate) fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn add(&mut self, value: u64) {
        let b = Self::bucket(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.samples += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Rebuilds a histogram from raw parts (trailing zero buckets are
    /// trimmed so equality matches the incrementally-built form).
    fn from_parts(mut counts: Vec<u64>, sum: u128, max: u64) -> LogHistogram {
        while counts.last() == Some(&0) {
            counts.pop();
        }
        let samples = counts.iter().sum();
        LogHistogram {
            counts,
            samples,
            sum,
            max,
        }
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`), by cumulative count; 0 when empty. The exact
    /// sample is unknown past bucket granularity, so this is an upper
    /// estimate — good enough for dashboards (p50/p99 readouts).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi_inclusive, count)` ranges, in
    /// ascending value order.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                if i == 0 {
                    (0, 0, c)
                } else {
                    (1u64 << (i - 1), (1u64 << i) - 1, c)
                }
            })
            .collect()
    }

    /// Renders the histogram as `lo..=hi: count` lines with a
    /// proportional bar, for CLI output.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        let peak = self.counts.iter().copied().max().unwrap_or(0);
        for (lo, hi, count) in self.buckets() {
            let bar_len = if peak == 0 {
                0
            } else {
                ((count as f64 / peak as f64) * width as f64).ceil() as usize
            };
            let range = if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}..{hi}")
            };
            out.push_str(&format!(
                "  {range:>14}  {count:>8}  {}\n",
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

impl WireState for LogHistogram {
    fn encode_state(&self, w: &mut BitWriter) {
        self.counts.encode_state(w);
        ((self.sum >> 64) as u64).encode_state(w);
        (self.sum as u64).encode_state(w);
        self.max.encode_state(w);
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<LogHistogram> {
        let counts = Vec::<u64>::decode_state(r)?;
        if counts.len() > HISTOGRAM_BUCKETS {
            return None;
        }
        let hi = u64::decode_state(r)?;
        let lo = u64::decode_state(r)?;
        let max = u64::decode_state(r)?;
        let sum = (u128::from(hi) << 64) | u128::from(lo);
        Some(LogHistogram::from_parts(counts, sum, max))
    }
}

// ---------------------------------------------------------------------
// Live handles
// ---------------------------------------------------------------------

/// A monotonically non-decreasing counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter (unregistered; usually obtained from
    /// [`Registry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Addition commutes, so concurrent updaters cannot make
    /// the total depend on scheduling.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one (for depth-style gauges tracking a live population).
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    pub fn dec(&self) {
        // fetch_update never fails with this closure shape, but stay
        // saturating rather than wrapping if a stray extra dec races in.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_hi: AtomicU64,
    sum_lo: AtomicU64,
    max: AtomicU64,
}

/// A lock-free recording histogram sharing [`LogHistogram`]'s bucket
/// boundaries. Cloning shares the cells; [`Histogram::snapshot`]
/// materializes a plain [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_hi: AtomicU64::new(0),
            sum_lo: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        inner.counts[LogHistogram::bucket(value)].fetch_add(1, Ordering::Relaxed);
        // 128-bit sum as a carry-propagated pair: overflow of the low
        // word bumps the high word. Concurrent adds commute.
        let prev = inner.sum_lo.fetch_add(value, Ordering::Relaxed);
        if prev.checked_add(value).is_none() {
            inner.sum_hi.fetch_add(1, Ordering::Relaxed);
        }
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Materializes the current contents as a [`LogHistogram`].
    ///
    /// Taken at a quiescent point (no concurrent recorders), the result
    /// is exactly the histogram a sequential [`LogHistogram`] built
    /// from the same samples would be.
    pub fn snapshot(&self) -> LogHistogram {
        let inner = &self.0;
        let counts: Vec<u64> = inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let sum = (u128::from(inner.sum_hi.load(Ordering::Relaxed)) << 64)
            | u128::from(inner.sum_lo.load(Ordering::Relaxed));
        LogHistogram::from_parts(counts, sum, inner.max.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of live metrics. Cloning shares the collection —
/// every clone registers into and snapshots the same instruments.
///
/// Registration (name lookup) takes a lock; the returned handles are
/// lock-free, so hot paths register once up front and then only touch
/// atomics. Names must be non-empty `[a-z0-9_]` (valid Prometheus
/// identifiers once prefixed) — anything else panics at registration,
/// which is a programmer error, not an input error.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

fn check_name(name: &str) {
    let ok = !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        && !name.as_bytes()[0].is_ascii_digit();
    assert!(
        ok,
        "invalid metric name {name:?}: want non-empty [a-z_][a-z0-9_]*"
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        check_name(name);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        check_name(name);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        check_name(name);
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Materializes every registered metric, sorted by name within each
    /// kind, stamped with [`METRICS_SCHEMA_VERSION`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            version: METRICS_SCHEMA_VERSION,
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot + exposition
// ---------------------------------------------------------------------

/// A point-in-time copy of a [`Registry`]'s contents, sorted by name —
/// byte-for-byte reproducible given identical metric values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// [`METRICS_SCHEMA_VERSION`] at capture time.
    pub version: u32,
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, ascending by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)` pairs, ascending by name.
    pub histograms: Vec<(String, LogHistogram)>,
}

fn clamped_int(v: u128) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// The versioned JSON rendering: sorted keys, stable field order,
    /// suitable for golden tests and artifact embedding.
    pub fn to_json(&self) -> Json {
        let hist = |h: &LogHistogram| {
            Json::Obj(vec![
                ("samples".into(), clamped_int(u128::from(h.samples()))),
                ("sum".into(), clamped_int(h.sum())),
                ("max".into(), clamped_int(u128::from(h.max()))),
                (
                    "buckets".into(),
                    Json::Arr(
                        h.buckets()
                            .into_iter()
                            .map(|(lo, hi, c)| {
                                Json::Arr(vec![
                                    clamped_int(u128::from(lo)),
                                    clamped_int(u128::from(hi)),
                                    clamped_int(u128::from(c)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        Json::Obj(vec![
            ("schema_version".into(), Json::Int(i64::from(self.version))),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), clamped_int(u128::from(*v))))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), clamped_int(u128::from(*v))))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), hist(h)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The Prometheus text-exposition rendering (version 0.0.4):
    /// `# TYPE` line per metric, [`PROMETHEUS_PREFIX`]-prefixed names,
    /// histograms as cumulative `_bucket{le="..."}` series plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "# TYPE {p}{name} counter\n{p}{name} {v}\n",
                p = PROMETHEUS_PREFIX
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "# TYPE {p}{name} gauge\n{p}{name} {v}\n",
                p = PROMETHEUS_PREFIX
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "# TYPE {p}{name} histogram\n",
                p = PROMETHEUS_PREFIX
            ));
            let mut cumulative = 0u64;
            for (_, hi, count) in h.buckets() {
                cumulative += count;
                out.push_str(&format!(
                    "{p}{name}_bucket{{le=\"{hi}\"}} {cumulative}\n",
                    p = PROMETHEUS_PREFIX
                ));
            }
            out.push_str(&format!(
                "{p}{name}_bucket{{le=\"+Inf\"}} {count}\n{p}{name}_sum {sum}\n{p}{name}_count {count}\n",
                p = PROMETHEUS_PREFIX,
                count = h.samples(),
                sum = h.sum(),
            ));
        }
        out
    }
}

impl WireState for MetricsSnapshot {
    fn encode_state(&self, w: &mut BitWriter) {
        self.version.encode_state(w);
        let names = |w: &mut BitWriter, pairs: &[(String, u64)]| {
            (pairs.len() as u64).encode_state(w);
            for (name, v) in pairs {
                name.as_bytes().to_vec().encode_state(w);
                v.encode_state(w);
            }
        };
        names(w, &self.counters);
        names(w, &self.gauges);
        (self.histograms.len() as u64).encode_state(w);
        for (name, h) in &self.histograms {
            name.as_bytes().to_vec().encode_state(w);
            h.encode_state(w);
        }
    }

    fn decode_state(r: &mut BitReader<'_>) -> Option<MetricsSnapshot> {
        // A decoded frame already passed the transport's length cap, but
        // keep element counts sane so a corrupt field cannot balloon.
        const MAX_METRICS: u64 = 1 << 16;
        let version = u32::decode_state(r)?;
        let name = |r: &mut BitReader<'_>| -> Option<String> {
            String::from_utf8(Vec::<u8>::decode_state(r)?).ok()
        };
        let pairs = |r: &mut BitReader<'_>| -> Option<Vec<(String, u64)>> {
            let len = u64::decode_state(r)?;
            if len > MAX_METRICS {
                return None;
            }
            let mut out = Vec::with_capacity(len as usize);
            for _ in 0..len {
                out.push((name(r)?, u64::decode_state(r)?));
            }
            Some(out)
        };
        let counters = pairs(r)?;
        let gauges = pairs(r)?;
        let len = u64::decode_state(r)?;
        if len > MAX_METRICS {
            return None;
        }
        let mut histograms = Vec::with_capacity(len as usize);
        for _ in 0..len {
            histograms.push((name(r)?, LogHistogram::decode_state(r)?));
        }
        Some(MetricsSnapshot {
            version,
            counters,
            gauges,
            histograms,
        })
    }
}

/// Checks a Prometheus text-exposition document for structural
/// well-formedness: every sample line names a `# TYPE`-declared family,
/// values parse as numbers, label syntax is balanced, counters and
/// histogram cumulative buckets are internally consistent.
///
/// # Errors
///
/// The 1-based line number and a description of the first violation.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    let mut declared: BTreeMap<String, String> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown metric kind `{kind}`"));
            }
            declared.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample line without a value"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: value `{value}` is not a number"));
        }
        let name = match name_labels.split_once('{') {
            Some((n, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {lineno}: unbalanced label braces"));
                }
                n
            }
            None => name_labels,
        };
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| declared.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        if !declared.contains_key(family) {
            return Err(format!(
                "line {lineno}: sample `{name}` has no preceding # TYPE declaration"
            ));
        }
    }
    // Histogram internal consistency: cumulative buckets non-decreasing,
    // +Inf bucket equals _count.
    for (family, kind) in &declared {
        if kind != "histogram" {
            continue;
        }
        let mut last = 0u64;
        let mut inf: Option<u64> = None;
        let mut count: Option<u64> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix(&format!("{family}_bucket{{le=\"")) {
                let (le, tail) = rest
                    .split_once("\"}")
                    .ok_or_else(|| format!("{family}: malformed bucket label"))?;
                let v: u64 = tail
                    .trim()
                    .parse()
                    .map_err(|_| format!("{family}: non-integer bucket count"))?;
                if v < last {
                    return Err(format!("{family}: cumulative bucket counts decreased"));
                }
                last = v;
                if le == "+Inf" {
                    inf = Some(v);
                }
            } else if let Some(rest) = line.strip_prefix(&format!("{family}_count ")) {
                count = rest.trim().parse().ok();
            }
        }
        if inf.is_none() {
            return Err(format!("{family}: histogram missing an le=\"+Inf\" bucket"));
        }
        if inf != count {
            return Err(format!("{family}: le=\"+Inf\" bucket != _count"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Typed handle bundles for the instrumented subsystems
// ---------------------------------------------------------------------

/// Live handles for the CONGEST engine, updated once per round on the
/// single-threaded commit spine (see [`crate::Simulator::with_metrics`]).
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Rounds committed (`engine_rounds_total`).
    pub rounds: Counter,
    /// Messages delivered (`engine_messages_total`).
    pub messages: Counter,
    /// Bits delivered (`engine_bits_total`).
    pub bits: Counter,
    /// Messages in flight into the current round (`engine_inbox_depth`).
    pub inbox_depth: Gauge,
}

impl EngineMetrics {
    /// Registers the engine's metric family in `registry`.
    pub fn register(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            rounds: registry.counter("engine_rounds_total"),
            messages: registry.counter("engine_messages_total"),
            bits: registry.counter("engine_bits_total"),
            inbox_depth: registry.gauge("engine_inbox_depth"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_semantics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 6);

        let g = Gauge::new();
        g.set(9);
        g.inc();
        assert_eq!(g.get(), 10);
        g.dec();
        g.dec();
        assert_eq!(g.get(), 8);
        let empty = Gauge::new();
        empty.dec();
        assert_eq!(empty.get(), 0, "dec saturates at zero");
    }

    /// The shared bucket boundaries are pinned: this is the regression
    /// test for unifying the profile / bench histograms into one type.
    #[test]
    fn histogram_buckets_unchanged() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.add(v);
        }
        assert_eq!(
            h.buckets(),
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (1024, 2047, 1),
            ]
        );
        assert_eq!(h.samples(), 8);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn atomic_histogram_matches_sequential() {
        let atomic = Histogram::new();
        let mut seq = LogHistogram::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x >> (x % 48);
            atomic.record(v);
            seq.add(v);
        }
        assert_eq!(atomic.snapshot(), seq);
    }

    #[test]
    fn quantile_tracks_cumulative_buckets() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.add(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        // The p50 sample (50) lives in bucket [32, 63].
        assert_eq!(h.quantile(0.5), 63);
        // The p99/p100 samples live in the top bucket, clamped to max.
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(LogHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("zeta").add(3);
        r.counter("alpha").add(1);
        r.gauge("mid").set(7);
        r.histogram("lat_us").record(5);
        // Re-registration returns the same cell.
        r.counter("alpha").inc();
        let snap = r.snapshot();
        assert_eq!(snap.version, METRICS_SCHEMA_VERSION);
        assert_eq!(
            snap.counters,
            vec![("alpha".to_string(), 2), ("zeta".to_string(), 3)]
        );
        assert_eq!(snap.gauge("mid"), Some(7));
        assert_eq!(snap.histogram("lat_us").unwrap().samples(), 1);
        assert_eq!(snap, r.snapshot(), "snapshots are reproducible");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_names_panic() {
        Registry::new().counter("no-dashes");
    }

    #[test]
    fn golden_json_exposition() {
        let r = Registry::new();
        r.counter("requests_total").add(5);
        r.gauge("queue_depth").set(2);
        let h = r.histogram("latency_us");
        for v in [0, 1, 3, 900] {
            h.record(v);
        }
        assert_eq!(
            r.snapshot().to_json().to_json(),
            r#"{"schema_version":1,"counters":{"requests_total":5},"gauges":{"queue_depth":2},"histograms":{"latency_us":{"samples":4,"sum":904,"max":900,"buckets":[[0,0,1],[1,1,1],[2,3,1],[512,1023,1]]}}}"#
        );
    }

    #[test]
    fn golden_prometheus_exposition() {
        let r = Registry::new();
        r.counter("requests_total").add(5);
        r.gauge("queue_depth").set(2);
        let h = r.histogram("latency_us");
        for v in [0, 1, 3, 900] {
            h.record(v);
        }
        let text = r.snapshot().to_prometheus();
        assert_eq!(
            text,
            "# TYPE rwbc_requests_total counter\n\
             rwbc_requests_total 5\n\
             # TYPE rwbc_queue_depth gauge\n\
             rwbc_queue_depth 2\n\
             # TYPE rwbc_latency_us histogram\n\
             rwbc_latency_us_bucket{le=\"0\"} 1\n\
             rwbc_latency_us_bucket{le=\"1\"} 2\n\
             rwbc_latency_us_bucket{le=\"3\"} 3\n\
             rwbc_latency_us_bucket{le=\"1023\"} 4\n\
             rwbc_latency_us_bucket{le=\"+Inf\"} 4\n\
             rwbc_latency_us_sum 904\n\
             rwbc_latency_us_count 4\n"
        );
        lint_prometheus(&text).expect("golden output lints clean");
    }

    #[test]
    fn prometheus_linter_rejects_malformed() {
        assert!(lint_prometheus("rwbc_x 1\n").is_err(), "undeclared family");
        assert!(
            lint_prometheus("# TYPE rwbc_x counter\nrwbc_x notanumber\n").is_err(),
            "non-numeric value"
        );
        assert!(
            lint_prometheus("# TYPE rwbc_x widget\nrwbc_x 1\n").is_err(),
            "unknown kind"
        );
        assert!(
            lint_prometheus(
                "# TYPE rwbc_h histogram\nrwbc_h_bucket{le=\"1\"} 2\nrwbc_h_bucket{le=\"+Inf\"} 1\nrwbc_h_sum 1\nrwbc_h_count 1\n"
            )
            .is_err(),
            "decreasing cumulative buckets"
        );
        assert!(
            lint_prometheus("# TYPE rwbc_h histogram\nrwbc_h_sum 1\nrwbc_h_count 1\n").is_err(),
            "missing +Inf bucket"
        );
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let r = Registry::new();
        r.counter("a_total").add(17);
        r.gauge("b").set(u64::MAX);
        let h = r.histogram("c_us");
        for v in [0u64, 5, 5, u64::MAX] {
            h.record(v);
        }
        let snap = r.snapshot();
        let mut w = BitWriter::new();
        snap.encode_state(&mut w);
        let bytes = w.finish();
        let mut rdr = BitReader::new(&bytes);
        let back = MetricsSnapshot::decode_state(&mut rdr).expect("decode");
        assert_eq!(back, snap);
        // Truncation is a typed failure, never a panic.
        for cut in 0..bytes.len().min(16) {
            let mut rdr = BitReader::new(&bytes[..cut]);
            let _ = MetricsSnapshot::decode_state(&mut rdr);
        }
    }

    #[test]
    fn histogram_sum_carries_past_u64() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(2);
        let snap = h.snapshot();
        assert_eq!(snap.sum(), 2 * u128::from(u64::MAX) + 2);
        let mut seq = LogHistogram::new();
        seq.add(u64::MAX);
        seq.add(u64::MAX);
        seq.add(2);
        assert_eq!(snap, seq);
    }
}
