//! Bucketed time-series metric recording.
//!
//! The paper's evaluation plots CPU utilization, network I/O and disk I/O
//! sampled at 3-second intervals (Figures 6–8). The [`Recorder`] reproduces
//! that measurement model: every metric is a named series of fixed-width
//! buckets into which point amounts (bytes written at an instant) or span
//! amounts (busy-seconds accumulated over an interval) are accumulated.
//! Rendering the rows of a series *is* regenerating one curve of a figure.

use std::collections::BTreeMap;

use crate::time::{Duration, SimTime};

/// One named, bucketed series.
#[derive(Clone, Debug)]
pub struct Series {
    interval: Duration,
    buckets: Vec<f64>,
}

impl Series {
    fn new(interval: Duration) -> Self {
        Series {
            interval,
            buckets: Vec::new(),
        }
    }

    fn bucket_index(&self, t: SimTime) -> usize {
        (t.ticks() / self.interval.ticks().max(1)) as usize
    }

    fn grow_to(&mut self, idx: usize) {
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0.0);
        }
    }

    fn add_point(&mut self, t: SimTime, amount: f64) {
        let idx = self.bucket_index(t);
        self.grow_to(idx);
        self.buckets[idx] += amount;
    }

    fn add_span(&mut self, t0: SimTime, t1: SimTime, amount: f64) {
        if t1 <= t0 || amount == 0.0 {
            if amount != 0.0 {
                self.add_point(t0, amount);
            }
            return;
        }
        let span = (t1 - t0).as_secs_f64();
        let first = self.bucket_index(t0);
        let last = self.bucket_index(SimTime::from_ticks(t1.ticks().saturating_sub(1)));
        self.grow_to(last);
        let iv = self.interval.as_secs_f64();
        for idx in first..=last {
            let b_start = idx as f64 * iv;
            let b_end = b_start + iv;
            let overlap =
                (t1.as_secs_f64().min(b_end) - t0.as_secs_f64().max(b_start)).max(0.0);
            self.buckets[idx] += amount * overlap / span;
        }
    }

    /// Bucket width.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Raw accumulated bucket values.
    pub fn buckets(&self) -> &[f64] {
        &self.buckets
    }

    /// `(bucket_start_seconds, value)` rows — the series as a figure plots it.
    pub fn rows(&self) -> Vec<(f64, f64)> {
        let iv = self.interval.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * iv, v))
            .collect()
    }

    /// `(bucket_start_seconds, value / bucket_width)` rows: converts an
    /// accumulated quantity into a rate (bytes → bytes/s, busy-seconds →
    /// utilization fraction).
    pub fn rate_rows(&self) -> Vec<(f64, f64)> {
        let iv = self.interval.as_secs_f64();
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * iv, v / iv))
            .collect()
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Largest bucket value (0 for an empty series).
    pub fn max(&self) -> f64 {
        self.buckets.iter().copied().fold(0.0, f64::max)
    }

    /// Index of the largest bucket (`None` for an empty series).
    pub fn argmax(&self) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.buckets.iter().enumerate() {
            if v > self.buckets[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Indices of local maxima strictly above `threshold` — used by tests to
    /// check figure shapes ("two disk-write peaks", "periodic polling
    /// writes").
    pub fn peaks(&self, threshold: f64) -> Vec<usize> {
        let b = &self.buckets;
        let mut out = Vec::new();
        for i in 0..b.len() {
            if b[i] <= threshold {
                continue;
            }
            let left = if i == 0 { 0.0 } else { b[i - 1] };
            let right = if i + 1 == b.len() { 0.0 } else { b[i + 1] };
            if b[i] >= left && b[i] > right || b[i] > left && b[i] >= right {
                out.push(i);
            }
        }
        out
    }
}

/// Interned handle to one series, returned by [`Recorder::intern`].
///
/// Hot paths (the fluid servers' `advance`) resolve their dotted key
/// strings once and record through the id afterwards, turning every
/// sample into a vector index instead of a string-keyed map lookup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetricId(u32);

/// Accumulates all metric series for a simulation run.
///
/// Keys are dotted paths, e.g. `"appliance.net.out"` or `"grid-node.cpu"`.
/// Each key is interned to a dense [`MetricId`] indexing a `Vec<Series>`;
/// the `BTreeMap` name index keeps report output deterministically
/// ordered.
#[derive(Clone, Debug)]
pub struct Recorder {
    interval: Duration,
    names: BTreeMap<String, MetricId>,
    series: Vec<Series>,
}

impl Recorder {
    /// New recorder with the given bucket width.
    pub fn new(interval: Duration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be nonzero");
        Recorder {
            interval,
            names: BTreeMap::new(),
            series: Vec::new(),
        }
    }

    /// Bucket width used by every series.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Resolve `key` to its id, creating an empty series on first use.
    pub fn intern(&mut self, key: &str) -> MetricId {
        if let Some(&id) = self.names.get(key) {
            return id;
        }
        let id = MetricId(u32::try_from(self.series.len()).expect("metric id space exhausted"));
        self.names.insert(key.to_owned(), id);
        self.series.push(Series::new(self.interval));
        id
    }

    /// Accumulate `amount` into the bucket containing instant `t`.
    pub fn add_point(&mut self, key: &str, t: SimTime, amount: f64) {
        let id = self.intern(key);
        self.add_point_id(id, t, amount);
    }

    /// Distribute `amount` over `[t0, t1)` proportionally to bucket overlap.
    /// A degenerate span collapses to a point at `t0`.
    pub fn add_span(&mut self, key: &str, t0: SimTime, t1: SimTime, amount: f64) {
        let id = self.intern(key);
        self.add_span_id(id, t0, t1, amount);
    }

    /// [`add_point`](Self::add_point) through an interned id.
    pub fn add_point_id(&mut self, id: MetricId, t: SimTime, amount: f64) {
        self.series[id.0 as usize].add_point(t, amount);
    }

    /// [`add_span`](Self::add_span) through an interned id.
    pub fn add_span_id(&mut self, id: MetricId, t0: SimTime, t1: SimTime, amount: f64) {
        self.series[id.0 as usize].add_span(t0, t1, amount);
    }

    /// Look up a series by key.
    pub fn series(&self, key: &str) -> Option<&Series> {
        self.names.get(key).map(|&id| &self.series[id.0 as usize])
    }

    /// Look up a series by interned id.
    pub fn series_by_id(&self, id: MetricId) -> &Series {
        &self.series[id.0 as usize]
    }

    /// Series total, or 0.0 when absent.
    pub fn total(&self, key: &str) -> f64 {
        self.series(key).map_or(0.0, Series::total)
    }

    /// All keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.names.keys().map(String::as_str)
    }

    /// Keys sharing a prefix (e.g. every metric of one host).
    pub fn keys_with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> {
        self.keys().filter(move |k| k.starts_with(prefix))
    }
}

// ---------------------------------------------------------------------------
// Windowed time-series registry (the fleet health plane's substrate)
// ---------------------------------------------------------------------------

/// Number of log₂ buckets in a [`WindowAgg`] histogram. Bucket 0 holds the
/// value 0, bucket `i` holds `[2^(i-1), 2^i)`, bucket 63 absorbs
/// everything larger.
pub const LOG2_BUCKETS: usize = 64;

/// Log₂ bucket index for a raw value.
#[inline]
pub(crate) fn log2_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(LOG2_BUCKETS - 1)
}

/// Inclusive upper bound of log₂ bucket `i`.
#[inline]
fn log2_bucket_upper(i: usize) -> u64 {
    if i == 0 {
        1
    } else {
        1u64 << i.min(63)
    }
}

/// Exclusive-ish lower bound of log₂ bucket `i` (0 for bucket 0).
#[inline]
fn log2_bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        log2_bucket_upper(i - 1)
    }
}

/// One window's aggregate: count / sum / max, plus an optional log₂
/// histogram for quantile queries. All fields are plain integer adds, so
/// [`WindowAgg::merge`] is commutative and associative — any subrange of
/// windows can be combined in any order with the same result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowAgg {
    count: u64,
    sum: u64,
    max: u64,
    /// Empty for counter-only series; `LOG2_BUCKETS` entries otherwise.
    buckets: Vec<u64>,
}

impl WindowAgg {
    /// Counter-only aggregate (no histogram allocation).
    pub fn counter() -> Self {
        WindowAgg::default()
    }

    /// Histogram aggregate (allocates the log₂ bucket array once).
    pub fn histogram() -> Self {
        WindowAgg {
            buckets: vec![0; LOG2_BUCKETS],
            ..WindowAgg::default()
        }
    }

    fn reset(&mut self) {
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        for b in &mut self.buckets {
            *b = 0;
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        if !self.buckets.is_empty() {
            self.buckets[log2_bucket(v)] += 1;
        }
    }

    /// Fold `other` into `self` (pure element-wise addition / max). A
    /// counter-only aggregate merging a histogram one promotes itself, so
    /// the operation stays commutative across kinds.
    pub fn merge(&mut self, other: &WindowAgg) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        if !other.buckets.is_empty() {
            if self.buckets.is_empty() {
                self.buckets = vec![0; LOG2_BUCKETS];
            }
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        }
    }

    /// Observations in this aggregate.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate in raw value units: linear interpolation inside
    /// the log₂ bucket holding the target rank, clamped to the observed
    /// max. `q` is clamped to `[0, 1]`. 0.0 when the aggregate is empty or
    /// counter-only.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.buckets.is_empty() || self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank of the sample we want, 1-based: q=0 -> first, q=1 -> last
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= target {
                let lower = log2_bucket_lower(i) as f64;
                let upper = (log2_bucket_upper(i).min(self.max.max(1))) as f64;
                let into = (target - (cum - c)) as f64 / c as f64;
                return (lower + into * (upper - lower).max(0.0)).min(self.max as f64);
            }
        }
        self.max as f64
    }
}

/// Sentinel epoch for a ring slot that has never been written.
const EMPTY_EPOCH: u64 = u64::MAX;

/// A ring of fixed-width windows over the virtual clock.
///
/// `record(t, v)` lands in the window `t / width`; a slot whose epoch has
/// lapped is reset in place, so the series holds the last `ring` windows
/// with zero steady-state allocation. Range queries merge every live
/// window overlapping the lookback, which is exact (not an approximation)
/// for count/sum/max and log₂-bucket-exact for quantiles.
#[derive(Clone, Debug)]
pub struct WindowedSeries {
    width: Duration,
    slots: Vec<(u64, WindowAgg)>,
    histo: bool,
    life_count: u64,
    life_sum: u64,
}

impl WindowedSeries {
    fn new(width: Duration, ring: usize, histo: bool) -> Self {
        assert!(!width.is_zero(), "window width must be nonzero");
        assert!(ring > 0, "window ring must hold at least one window");
        let proto = if histo {
            WindowAgg::histogram()
        } else {
            WindowAgg::counter()
        };
        WindowedSeries {
            width,
            slots: vec![(EMPTY_EPOCH, proto); ring],
            histo,
            life_count: 0,
            life_sum: 0,
        }
    }

    /// Window width.
    pub fn width(&self) -> Duration {
        self.width
    }

    /// Whether this series keeps per-window histograms.
    pub fn is_histogram(&self) -> bool {
        self.histo
    }

    /// Observations recorded over the series' whole lifetime (not just the
    /// windows still in the ring) — the Prometheus cumulative `_count`.
    pub fn lifetime_count(&self) -> u64 {
        self.life_count
    }

    /// Lifetime sum of observed values — the Prometheus cumulative `_sum`.
    pub fn lifetime_sum(&self) -> u64 {
        self.life_sum
    }

    /// Record `v` at instant `t`.
    pub fn record(&mut self, t: SimTime, v: u64) {
        let epoch = t.ticks() / self.width.ticks();
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.0 != epoch {
            slot.0 = epoch;
            slot.1.reset();
        }
        slot.1.record(v);
        self.life_count += 1;
        self.life_sum = self.life_sum.saturating_add(v);
    }

    /// Merge every live window whose span overlaps `[now - lookback, now]`.
    pub fn range(&self, now: SimTime, lookback: Duration) -> WindowAgg {
        let width = self.width.ticks();
        let now_epoch = now.ticks() / width;
        let start_epoch = now.ticks().saturating_sub(lookback.ticks()) / width;
        let mut out = if self.histo {
            WindowAgg::histogram()
        } else {
            WindowAgg::counter()
        };
        for (epoch, agg) in &self.slots {
            if *epoch != EMPTY_EPOCH && *epoch >= start_epoch && *epoch <= now_epoch {
                out.merge(agg);
            }
        }
        out
    }

    /// Live `(window_start, agg)` pairs in time order (for CSV export).
    pub fn windows(&self) -> Vec<(SimTime, &WindowAgg)> {
        let mut out: Vec<(SimTime, &WindowAgg)> = self
            .slots
            .iter()
            .filter(|(e, _)| *e != EMPTY_EPOCH)
            .map(|(e, agg)| (SimTime::from_ticks(e * self.width.ticks()), agg))
            .collect();
        out.sort_by_key(|(t, _)| *t);
        out
    }
}

/// Interned handle to one windowed series.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WindowedId(u32);

/// Registry of named windowed series sharing one window width and ring
/// depth. Names are interned to dense ids exactly like [`Recorder`]; the
/// `BTreeMap` keeps both exports deterministically name-ordered.
#[derive(Clone, Debug)]
pub struct WindowedRegistry {
    width: Duration,
    ring: usize,
    names: BTreeMap<String, WindowedId>,
    series: Vec<WindowedSeries>,
}

impl WindowedRegistry {
    /// New registry: each series is a ring of `ring` windows of `width`.
    pub fn new(width: Duration, ring: usize) -> Self {
        assert!(!width.is_zero(), "window width must be nonzero");
        assert!(ring > 0, "window ring must hold at least one window");
        WindowedRegistry {
            width,
            ring,
            names: BTreeMap::new(),
            series: Vec::new(),
        }
    }

    /// Window width shared by every series.
    pub fn width(&self) -> Duration {
        self.width
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series has been registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    fn intern(&mut self, name: &str, histo: bool) -> WindowedId {
        if let Some(&id) = self.names.get(name) {
            let existing = &self.series[id.0 as usize];
            assert_eq!(
                existing.is_histogram(),
                histo,
                "windowed series {name:?} re-registered as a different kind"
            );
            return id;
        }
        let id = WindowedId(
            u32::try_from(self.series.len()).expect("windowed id space exhausted"),
        );
        self.names.insert(name.to_owned(), id);
        self.series
            .push(WindowedSeries::new(self.width, self.ring, histo));
        id
    }

    /// Register (or look up) a counter-only series: count/sum/max per
    /// window, no histogram allocation. Use for request/error tallies.
    pub fn counter(&mut self, name: &str) -> WindowedId {
        self.intern(name, false)
    }

    /// Register (or look up) a histogram series: quantile queries over any
    /// window range. Use for latencies and queue depths.
    pub fn histogram(&mut self, name: &str) -> WindowedId {
        self.intern(name, true)
    }

    /// Record `v` at instant `t` into the series behind `id`.
    pub fn record(&mut self, id: WindowedId, t: SimTime, v: u64) {
        self.series[id.0 as usize].record(t, v);
    }

    /// Look up a series by name.
    pub fn series(&self, name: &str) -> Option<&WindowedSeries> {
        self.names.get(name).map(|&id| &self.series[id.0 as usize])
    }

    /// Look up a series by interned id.
    pub fn series_by_id(&self, id: WindowedId) -> &WindowedSeries {
        &self.series[id.0 as usize]
    }

    /// Merge the lookback range of the series behind `id` as of `now`.
    pub fn range(&self, id: WindowedId, now: SimTime, lookback: Duration) -> WindowAgg {
        self.series_by_id(id).range(now, lookback)
    }

    /// All series names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.keys().map(String::as_str)
    }

    /// Prometheus text-exposition snapshot as of `now`.
    ///
    /// Histogram series render as a `summary` family — `p50/p95/p99` over
    /// the whole ring plus cumulative `_sum`/`_count` — and counter-only
    /// series as a `counter` with the lifetime sum. Values are in the raw
    /// recorded units. The output passes [`validate_prometheus_text`].
    pub fn prometheus_text(&self, now: SimTime) -> String {
        self.prometheus_text_multi_labeled(now, |_| Vec::new())
    }

    /// [`WindowedRegistry::prometheus_text`] with per-series extra labels:
    /// `label_for` maps each *raw* (unsanitized) series name onto the
    /// `(key, value)` labels attached to every sample of that family — how
    /// the fleet's health plane tags per-replica series with a geo `site`
    /// and the artifact `version` the replica serves. Labels render in the
    /// order returned, values escaped per the exposition format. A
    /// callback that always returns an empty `Vec` produces byte-identical
    /// output to the unlabeled snapshot.
    pub fn prometheus_text_multi_labeled(
        &self,
        now: SimTime,
        label_for: impl Fn(&str) -> Vec<(String, String)>,
    ) -> String {
        let lookback = Duration::from_micros(
            self.width.ticks().saturating_mul(self.ring as u64),
        );
        let mut out = String::new();
        for (name, &id) in &self.names {
            let s = self.series_by_id(id);
            let fam = sanitize_metric_name(name);
            let extra = label_for(name);
            // rendered both alone (`{site="east",version="v2"}`) and
            // appended to the quantile label (`,site="east",version="v2"`)
            let (solo, tail) = if extra.is_empty() {
                (String::new(), String::new())
            } else {
                let joined = extra
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
                    .collect::<Vec<_>>()
                    .join(",");
                (format!("{{{joined}}}"), format!(",{joined}"))
            };
            if s.is_histogram() {
                let agg = s.range(now, lookback);
                out.push_str(&format!("# TYPE {fam} summary\n"));
                for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                    out.push_str(&format!(
                        "{fam}{{quantile=\"{label}\"{tail}}} {}\n",
                        fmt_prom_value(agg.quantile(q))
                    ));
                }
                out.push_str(&format!("{fam}_sum{solo} {}\n", s.lifetime_sum()));
                out.push_str(&format!("{fam}_count{solo} {}\n", s.lifetime_count()));
            } else {
                out.push_str(&format!("# TYPE {fam} counter\n"));
                out.push_str(&format!("{fam}{solo} {}\n", s.lifetime_sum()));
            }
        }
        out
    }

    /// Time-series CSV: one row per live window per series, name-ordered
    /// then time-ordered. Columns: `series,t_s,count,sum,max,p50,p95,p99`
    /// (quantile columns are 0 for counter-only series).
    pub fn timeseries_csv(&self) -> String {
        let mut out = String::from("series,t_s,count,sum,max,p50,p95,p99\n");
        for (name, &id) in &self.names {
            let s = self.series_by_id(id);
            for (t, agg) in s.windows() {
                out.push_str(&format!(
                    "{name},{},{},{},{},{},{},{}\n",
                    fmt_prom_value(t.as_secs_f64()),
                    agg.count(),
                    agg.sum(),
                    agg.max(),
                    fmt_prom_value(agg.quantile(0.5)),
                    fmt_prom_value(agg.quantile(0.95)),
                    fmt_prom_value(agg.quantile(0.99)),
                ));
            }
        }
        out
    }
}

/// Render a float for exposition/CSV output: integral values print without
/// a trailing `.0` so counters look like counters, everything else uses
/// Rust's shortest round-trip `Display` (deterministic across platforms).
fn fmt_prom_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape a label value for the exposition format: backslash, double quote
/// and newline are the characters it requires escaped. Values without them
/// come back unchanged.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Map an internal dotted series name onto the Prometheus metric-name
/// charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic()
            || c == '_'
            || c == ':'
            || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Strict validator for the Prometheus text exposition format.
///
/// Enforces: metric names match `[a-zA-Z_:][a-zA-Z0-9_:]*`; label syntax is
/// `key="value"` with `\\`, `\"`, `\n` escapes only; sample values parse as
/// floats (`+Inf`/`-Inf`/`NaN` allowed); every sample's family has a
/// `# TYPE` line *before* its first sample; no duplicate `# TYPE` for a
/// family; no duplicate sample (same name + label set); the text ends with
/// a newline. Returns `(families, samples)` on success.
pub fn validate_prometheus_text(text: &str) -> Result<(usize, usize), String> {
    use std::collections::BTreeSet;
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_samples: BTreeSet<String> = BTreeSet::new();
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !is_valid_metric_name(name) {
                return Err(format!("line {ln}: bad metric name in TYPE: {name:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                return Err(format!("line {ln}: unknown TYPE kind {kind:?}"));
            }
            if typed.insert(name.to_owned(), kind.to_owned()).is_some() {
                return Err(format!("line {ln}: duplicate TYPE for family {name:?}"));
            }
            continue;
        }
        if line.starts_with("# HELP ") || line.starts_with('#') {
            continue; // free-form comments / HELP text
        }
        // sample line: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {ln}: sample missing value: {line:?}")),
        };
        let (name, labels) = match name_labels.find('{') {
            Some(b) => {
                if !name_labels.ends_with('}') {
                    return Err(format!("line {ln}: unterminated label set: {line:?}"));
                }
                let name = &name_labels[..b];
                let labels = &name_labels[b + 1..name_labels.len() - 1];
                validate_label_set(labels).map_err(|e| format!("line {ln}: {e}"))?;
                (name, labels)
            }
            None => (name_labels, ""),
        };
        if !is_valid_metric_name(name) {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("line {ln}: bad sample value {value:?}"));
        }
        // resolve the family: summaries/histograms own their _sum/_count
        let known_family = typed.contains_key(name)
            || name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .or_else(|| name.strip_suffix("_bucket"))
                .is_some_and(|f| {
                    matches!(
                        typed.get(f).map(String::as_str),
                        Some("summary") | Some("histogram")
                    )
                });
        if !known_family {
            return Err(format!(
                "line {ln}: sample {name:?} has no preceding # TYPE"
            ));
        }
        if !seen_samples.insert(format!("{name}{{{labels}}}")) {
            return Err(format!("line {ln}: duplicate sample {name_labels:?}"));
        }
        samples += 1;
    }
    Ok((typed.len(), samples))
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn validate_label_set(labels: &str) -> Result<(), String> {
    if labels.is_empty() {
        return Err("empty label set braces".into());
    }
    let mut rest = labels;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair missing '=': {rest:?}"))?;
        let key = &rest[..eq];
        let mut kchars = key.chars();
        let head_ok = matches!(kchars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_');
        if !head_ok || !kchars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value must be quoted: {rest:?}"));
        }
        // scan the quoted value honouring escapes
        let bytes = rest.as_bytes();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => return Err("unterminated label value".into()),
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\') | Some(b'"') | Some(b'n') => i += 2,
                    _ => return Err("bad escape in label value".into()),
                },
                Some(b'"') => break,
                Some(_) => i += 1,
            }
        }
        rest = &rest[i + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| format!("label pairs must be comma-separated: {rest:?}"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Recorder {
        Recorder::new(Duration::from_secs(3))
    }

    #[test]
    fn point_lands_in_right_bucket() {
        let mut r = rec();
        r.add_point("x", SimTime::from_secs(7), 5.0);
        let s = r.series("x").unwrap();
        assert_eq!(s.buckets(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn points_accumulate() {
        let mut r = rec();
        r.add_point("x", SimTime::from_secs(1), 2.0);
        r.add_point("x", SimTime::from_secs(2), 3.0);
        assert_eq!(r.series("x").unwrap().buckets(), &[5.0]);
        assert_eq!(r.total("x"), 5.0);
    }

    #[test]
    fn span_splits_proportionally() {
        let mut r = rec();
        // [2s, 8s) over 3s buckets: 1s in bucket0, 3s in bucket1, 2s in bucket2
        r.add_span("x", SimTime::from_secs(2), SimTime::from_secs(8), 6.0);
        let b = r.series("x").unwrap().buckets();
        assert!((b[0] - 1.0).abs() < 1e-9, "{b:?}");
        assert!((b[1] - 3.0).abs() < 1e-9, "{b:?}");
        assert!((b[2] - 2.0).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn span_conserves_total() {
        let mut r = rec();
        r.add_span("x", SimTime::from_secs_f64(1.7), SimTime::from_secs_f64(13.2), 42.0);
        assert!((r.total("x") - 42.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_span_is_a_point() {
        let mut r = rec();
        r.add_span("x", SimTime::from_secs(4), SimTime::from_secs(4), 9.0);
        assert_eq!(r.series("x").unwrap().buckets(), &[0.0, 9.0]);
    }

    #[test]
    fn span_within_one_bucket() {
        let mut r = rec();
        r.add_span("x", SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(1.5), 4.0);
        assert_eq!(r.series("x").unwrap().buckets(), &[4.0]);
    }

    #[test]
    fn rate_rows_divide_by_interval() {
        let mut r = rec();
        r.add_point("x", SimTime::from_secs(0), 6.0);
        let rows = r.series("x").unwrap().rate_rows();
        assert_eq!(rows, vec![(0.0, 2.0)]);
    }

    #[test]
    fn rows_give_bucket_starts() {
        let mut r = rec();
        r.add_point("x", SimTime::from_secs(7), 1.0);
        let rows = r.series("x").unwrap().rows();
        assert_eq!(rows, vec![(0.0, 0.0), (3.0, 0.0), (6.0, 1.0)]);
    }

    #[test]
    fn peaks_finds_local_maxima() {
        let mut s = Series::new(Duration::from_secs(1));
        for (i, v) in [0.0, 5.0, 1.0, 0.0, 7.0, 2.0, 0.0, 3.0].iter().enumerate() {
            s.add_point(SimTime::from_secs(i as u64), *v);
        }
        assert_eq!(s.peaks(0.5), vec![1, 4, 7]);
        assert_eq!(s.peaks(4.0), vec![1, 4]);
        assert_eq!(s.argmax(), Some(4));
    }

    #[test]
    fn missing_series_total_is_zero() {
        let r = rec();
        assert_eq!(r.total("nope"), 0.0);
        assert!(r.series("nope").is_none());
    }

    #[test]
    fn prefix_filtering() {
        let mut r = rec();
        r.add_point("host.cpu", SimTime::ZERO, 1.0);
        r.add_point("host.disk", SimTime::ZERO, 1.0);
        r.add_point("other.cpu", SimTime::ZERO, 1.0);
        let keys: Vec<_> = r.keys_with_prefix("host.").collect();
        assert_eq!(keys, vec!["host.cpu", "host.disk"]);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        let _ = Recorder::new(Duration::ZERO);
    }

    #[test]
    fn intern_is_stable_and_id_path_aliases_key_path() {
        let mut r = rec();
        let a = r.intern("x");
        let b = r.intern("y");
        assert_ne!(a, b);
        assert_eq!(r.intern("x"), a);
        r.add_point_id(a, SimTime::from_secs(7), 5.0);
        r.add_span_id(a, SimTime::from_secs(2), SimTime::from_secs(8), 6.0);
        r.add_point("x", SimTime::from_secs(7), 1.0);
        let via_key = r.series("x").unwrap().total();
        let via_id = r.series_by_id(a).total();
        assert_eq!(via_key, via_id);
        assert!((via_key - 12.0).abs() < 1e-9);
        assert_eq!(r.series_by_id(b).total(), 0.0);
    }

    #[test]
    fn keys_stay_sorted_regardless_of_intern_order() {
        let mut r = rec();
        r.intern("z.last");
        r.intern("a.first");
        r.intern("m.middle");
        let keys: Vec<_> = r.keys().collect();
        assert_eq!(keys, vec!["a.first", "m.middle", "z.last"]);
    }
}

#[cfg(test)]
mod windowed_tests {
    use super::*;

    fn reg() -> WindowedRegistry {
        WindowedRegistry::new(Duration::from_secs(10), 6)
    }

    #[test]
    fn agg_tracks_count_sum_max_and_quantiles() {
        let mut a = WindowAgg::histogram();
        for v in [1u64, 2, 3, 100] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 106);
        assert_eq!(a.max(), 100);
        assert!((a.mean() - 26.5).abs() < 1e-9);
        // p50 lands in the low buckets, p99 clamps to the max
        assert!(a.quantile(0.5) <= 3.0, "p50 = {}", a.quantile(0.5));
        assert_eq!(a.quantile(1.0), 100.0);
        assert_eq!(a.quantile(0.99), 100.0);
        // 3 lands in the bucket spanning 2..4
        let b = log2_bucket(3);
        assert_eq!((log2_bucket_lower(b), log2_bucket_upper(b)), (2, 4));
        assert_eq!(a.buckets[b], 2, "2 and 3 share the bucket");
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        // 8 values all in bucket (4, 8]: interpolation spreads them across
        // the bucket, monotone in q, never above the observed max
        let mut a = WindowAgg::histogram();
        for v in [5u64, 5, 6, 6, 7, 7, 8, 8] {
            a.record(v);
        }
        let q25 = a.quantile(0.25);
        let q75 = a.quantile(0.75);
        assert!(q25 < q75, "{q25} vs {q75}");
        assert!(q25 >= 4.0 && q75 <= 8.0, "{q25}..{q75}");
    }

    #[test]
    fn empty_and_counter_aggs_quantile_zero() {
        assert_eq!(WindowAgg::histogram().quantile(0.99), 0.0);
        let mut c = WindowAgg::counter();
        c.record(7);
        assert_eq!(c.quantile(0.5), 0.0);
        assert_eq!(c.count(), 1);
        assert_eq!(c.sum(), 7);
    }

    #[test]
    fn merge_promotes_counter_to_histogram() {
        let mut c = WindowAgg::counter();
        c.record(4);
        let mut h = WindowAgg::histogram();
        h.record(16);
        let mut ab = c.clone();
        ab.merge(&h);
        let mut ba = h.clone();
        ba.merge(&c);
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.sum(), ba.sum());
        assert_eq!(ab.max(), ba.max());
        assert_eq!(ab.quantile(0.99), ba.quantile(0.99));
    }

    #[test]
    fn windows_reset_when_epoch_laps() {
        let mut s = WindowedSeries::new(Duration::from_secs(10), 3, true);
        s.record(SimTime::from_secs(5), 100); // epoch 0
        s.record(SimTime::from_secs(35), 7); // epoch 3 -> same slot as 0
        let live = s.windows();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, SimTime::from_secs(30));
        assert_eq!(live[0].1.count(), 1);
        assert_eq!(live[0].1.max(), 7);
        // lifetime totals survive the lap
        assert_eq!(s.lifetime_count(), 2);
        assert_eq!(s.lifetime_sum(), 107);
    }

    #[test]
    fn range_merges_only_overlapping_windows() {
        let mut s = WindowedSeries::new(Duration::from_secs(10), 6, true);
        s.record(SimTime::from_secs(5), 1); // epoch 0
        s.record(SimTime::from_secs(15), 2); // epoch 1
        s.record(SimTime::from_secs(25), 4); // epoch 2
        let now = SimTime::from_secs(29);
        // 10s lookback from t=29 covers epochs 1 and 2
        let a = s.range(now, Duration::from_secs(10));
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 6);
        assert_eq!(a.max(), 4);
        // whole-ring lookback sees everything
        let all = s.range(now, Duration::from_secs(60));
        assert_eq!(all.count(), 3);
        assert_eq!(all.sum(), 7);
    }

    #[test]
    fn registry_interns_and_rejects_kind_mismatch() {
        let mut r = reg();
        let a = r.histogram("lat");
        assert_eq!(r.histogram("lat"), a);
        let b = r.counter("errs");
        assert_ne!(a, b);
        let names: Vec<_> = r.names().collect();
        assert_eq!(names, vec!["errs", "lat"]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.counter("lat");
        }));
        assert!(caught.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn prometheus_snapshot_validates_and_has_expected_families() {
        let mut r = reg();
        let lat = r.histogram("replica.r0.latency_us");
        let errs = r.counter("replica.r0.errors");
        for i in 0..100u64 {
            r.record(lat, SimTime::from_secs(i / 10), 1000 + i);
        }
        r.record(errs, SimTime::from_secs(3), 1);
        let text = r.prometheus_text(SimTime::from_secs(10));
        let (families, samples) = validate_prometheus_text(&text).expect("strict parse");
        assert_eq!(families, 2);
        assert_eq!(samples, 6); // 3 quantiles + sum + count + 1 counter
        assert!(text.contains("# TYPE replica_r0_latency_us summary\n"));
        assert!(text.contains("replica_r0_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("replica_r0_latency_us_count 100\n"));
        assert!(text.contains("# TYPE replica_r0_errors counter\n"));
        assert!(text.contains("replica_r0_errors 1\n"));
    }

    #[test]
    fn labeled_exposition_tags_series_and_none_path_is_byte_identical() {
        let mut r = reg();
        let lat = r.histogram("replica.r0.latency_us");
        let errs = r.counter("replica.r0.errors");
        let other = r.counter("fleetwide.requests");
        r.record(lat, SimTime::from_secs(1), 1000);
        r.record(errs, SimTime::from_secs(1), 1);
        r.record(other, SimTime::from_secs(1), 9);
        let now = SimTime::from_secs(10);

        let plain = r.prometheus_text(now);
        let none = r.prometheus_text_multi_labeled(now, |_| Vec::new());
        assert_eq!(plain, none, "an empty labeler changes nothing");

        let labeled = r.prometheus_text_multi_labeled(now, |name| {
            if name.starts_with("replica.r0.") {
                vec![("site".to_owned(), "east".to_owned())]
            } else {
                Vec::new()
            }
        });
        validate_prometheus_text(&labeled).expect("labeled output parses strictly");
        assert!(labeled.contains(r#"replica_r0_latency_us{quantile="0.5",site="east"}"#));
        assert!(labeled.contains(r#"replica_r0_latency_us_sum{site="east"}"#));
        assert!(labeled.contains(r#"replica_r0_latency_us_count{site="east"}"#));
        assert!(labeled.contains(r#"replica_r0_errors{site="east"} 1"#));
        assert!(labeled.contains("fleetwide_requests 9\n"), "unlabeled series untouched");
    }

    #[test]
    fn label_values_are_escaped_in_the_exposition() {
        let mut r = reg();
        let id = r.counter("tenant.x.accepted");
        r.record(id, SimTime::from_secs(1), 1);
        let text = r.prometheus_text_multi_labeled(SimTime::from_secs(10), |_| {
            vec![
                ("tenant".to_owned(), "ev\"il\\x\ny".to_owned()),
                ("site".to_owned(), "east".to_owned()),
            ]
        });
        validate_prometheus_text(&text).expect("escaped label values parse strictly");
        assert!(
            text.contains(r#"tenant_x_accepted{tenant="ev\"il\\x\ny",site="east"} 1"#),
            "{text}"
        );
    }

    #[test]
    fn timeseries_csv_is_name_then_time_ordered() {
        let mut r = reg();
        let b = r.histogram("b.lat");
        let a = r.counter("a.req");
        r.record(b, SimTime::from_secs(25), 64);
        r.record(b, SimTime::from_secs(5), 32);
        r.record(a, SimTime::from_secs(15), 1);
        let csv = r.timeseries_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "series,t_s,count,sum,max,p50,p95,p99");
        assert!(lines[1].starts_with("a.req,10,1,1,1,"));
        assert!(lines[2].starts_with("b.lat,0,1,32,32,"));
        assert!(lines[3].starts_with("b.lat,20,1,64,64,"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn metric_name_sanitization() {
        assert_eq!(sanitize_metric_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("0abc"), "_abc");
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        // sample before TYPE
        assert!(validate_prometheus_text("x 1\n").is_err());
        // bad metric name
        assert!(validate_prometheus_text("# TYPE 9x counter\n").is_err());
        // unknown kind
        assert!(validate_prometheus_text("# TYPE x widget\n").is_err());
        // duplicate TYPE
        assert!(
            validate_prometheus_text("# TYPE x counter\n# TYPE x counter\n").is_err()
        );
        // bad value
        assert!(validate_prometheus_text("# TYPE x counter\nx one\n").is_err());
        // duplicate sample
        assert!(validate_prometheus_text("# TYPE x counter\nx 1\nx 2\n").is_err());
        // bad label syntax
        assert!(
            validate_prometheus_text("# TYPE x counter\nx{q=0.5} 1\n").is_err()
        );
        assert!(
            validate_prometheus_text("# TYPE x counter\nx{9q=\"a\"} 1\n").is_err()
        );
        // unterminated label set
        assert!(
            validate_prometheus_text("# TYPE x counter\nx{q=\"a\" 1\n").is_err()
        );
        // missing trailing newline
        assert!(validate_prometheus_text("# TYPE x counter\nx 1").is_err());
        // the good case, for contrast
        let good = "# TYPE x summary\nx{quantile=\"0.5\"} 1.5\nx_sum 3\nx_count 2\n";
        assert_eq!(validate_prometheus_text(good), Ok((1, 3)));
    }

    #[test]
    fn validator_accepts_escapes_and_special_values() {
        let text = "# TYPE x counter\nx{path=\"a\\\\b\\\"c\\n\"} +Inf\n";
        assert_eq!(validate_prometheus_text(text), Ok((1, 1)));
    }
}
