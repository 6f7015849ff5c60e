//! The traced run: the same workload with `Sim` telemetry on, its
//! measured window driven one `Sim::step` at a time from here so each
//! step's host time can be charged to a layer.
//!
//! A step is charged to the first span it opens (read from the growth of
//! `Telemetry::spans()`), or to `unattributed` when it opens none. The
//! virtual per-layer numbers come from span durations and telemetry
//! counters over the window.

use std::collections::BTreeMap;
use std::time::{Duration as HostDuration, Instant};

use crate::workload::{finish, percentile, setup, start, Outcome, Prepared, Workload};

/// Span names whose steps get their own `host_share.*` metric; steps
/// opening any other span land in `host_share.other`.
pub const SHARED_SPANS: [&str; 9] = [
    "onserve.invoke",
    "agent.stage",
    "soap.dispatch",
    "dispatcher.dispatch",
    "agent.submit",
    "gram.job",
    "poller.poll_loop",
    "portal.upload",
    "onserve.upload",
];

/// Telemetry counters read as window deltas.
const COUNTERS: [&str; 3] = [
    "agent.polls",
    "onserve.invocations",
    "onserve.session_cache_hit",
];

/// Result of one traced pass.
pub struct TraceRun {
    /// The drained workload, kept for the probes.
    pub prepared: Prepared,
    /// Its virtual results (must equal the untraced run's).
    pub outcome: Outcome,
    /// Host time of the stepped window.
    pub window: HostDuration,
    /// Host nanoseconds charged to each first-opened span name.
    pub step_ns: BTreeMap<&'static str, u64>,
    /// Host nanoseconds of steps that opened no span.
    pub unattributed_ns: u64,
    /// Window deltas of [`COUNTERS`].
    pub counters: BTreeMap<&'static str, u64>,
}

impl TraceRun {
    /// Host nanoseconds charged to any step.
    pub fn stepped_ns(&self) -> u64 {
        self.step_ns.values().sum::<u64>() + self.unattributed_ns
    }

    /// Share of stepped host time charged to steps opening `name`.
    pub fn share(&self, name: &str) -> f64 {
        self.step_ns.get(name).copied().unwrap_or(0) as f64 / self.stepped_ns() as f64
    }

    /// Share of stepped host time charged to spans outside [`SHARED_SPANS`].
    pub fn other_share(&self) -> f64 {
        let other: u64 = self
            .step_ns
            .iter()
            .filter(|(k, _)| !SHARED_SPANS.contains(k))
            .map(|(_, v)| v)
            .sum();
        other as f64 / self.stepped_ns() as f64
    }

    /// Nearest-rank percentile of the virtual durations of closed spans
    /// named `name` opened in the window, seconds (0 when none).
    pub fn span_percentile(&self, name: &str, p: f64) -> f64 {
        let mut d = self.span_durations(name);
        d.sort_by(f64::total_cmp);
        percentile(&d, p)
    }

    /// Number of closed spans named `name` opened in the window.
    pub fn span_count(&self, name: &str) -> usize {
        self.span_durations(name).len()
    }

    /// Total virtual duration of closed spans named `name` opened in the
    /// window, seconds.
    pub fn span_total(&self, name: &str) -> f64 {
        self.span_durations(name).iter().sum()
    }

    fn span_durations(&self, name: &str) -> Vec<f64> {
        let from = self.prepared.window_start();
        self.spans()
            .iter()
            .filter(|s| s.name == name && s.start >= from)
            .filter_map(|s| s.end.map(|e| e.since(s.start).as_secs_f64()))
            .collect()
    }

    fn spans(&self) -> &[simkit::SpanRecord] {
        self.prepared
            .sim
            .telemetry()
            .expect("traced run has telemetry")
            .spans()
    }
}

fn counter_values(p: &Prepared) -> BTreeMap<&'static str, u64> {
    let t = p.sim.telemetry().expect("traced run has telemetry");
    COUNTERS.iter().map(|&c| (c, t.counter(c))).collect()
}

/// Set up `workload` with telemetry on, then step its measured window,
/// charging each step's host time to the first span it opens.
pub fn run_traced(workload: Workload, seed: u64) -> Result<TraceRun, String> {
    let mut p = setup(workload, seed, true);
    let before = counter_values(&p);
    let mut step_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unattributed_ns = 0u64;
    let t0 = Instant::now();
    start(&mut p, true);
    // One clock read per step: each step is charged from the previous
    // read, so the loop's own bookkeeping lands in the charges too and
    // they sum to the stepped window.
    let mut last = Instant::now();
    loop {
        let spans_before = span_len(&p);
        if !p.sim.step() {
            break;
        }
        let now = Instant::now();
        let ns = now.duration_since(last).as_nanos() as u64;
        last = now;
        let tel = p.sim.telemetry().expect("traced run has telemetry");
        match tel.spans().get(spans_before) {
            Some(first) => *step_ns.entry(first.name).or_insert(0) += ns,
            None => unattributed_ns += ns,
        }
    }
    let window = t0.elapsed();
    let outcome = finish(&p)?;
    let after = counter_values(&p);
    let counters = after.iter().map(|(k, v)| (*k, v - before[k])).collect();
    Ok(TraceRun {
        prepared: p,
        outcome,
        window,
        step_ns,
        unattributed_ns,
        counters,
    })
}

fn span_len(p: &Prepared) -> usize {
    p.sim.telemetry().map_or(0, |t| t.spans().len())
}
