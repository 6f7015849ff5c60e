//! The fleet health plane: windowed metrics and gray-failure detection.
//!
//! A [`HealthPlane`] is a pure measurement facade over a
//! [`simkit::WindowedRegistry`]: the dispatcher feeds it one latency/error
//! sample per answered (or lost) attempt, a queue-depth sample per routed
//! attempt, and an in-flight/tenant sample per admitted request. Recording
//! is arithmetic only — no events, no randomness — so attaching a plane
//! leaves every run bit-for-bit identical.
//!
//! On top of it, [`GrayFailureDetector`] closes the loop on the failure
//! mode crashes cannot express: a replica that still answers, but slowly.
//! Each tick it scores every active replica *relative to its peers* — a
//! replica whose windowed p99 or error rate sustains ≥ k× the fleet median
//! accumulates strikes; at `probation_strikes` it is probation-weighted in
//! the dispatcher (probe traffic only), and at `eject_strikes` it is
//! ejected exactly like a crash, which lets the autoscaler's replace path
//! restore the capacity. A replica that returns to the pack has its
//! strikes cleared and its probation lifted.
//!
//! Peer-relative scoring is what makes the detector workload-proof: a
//! fleet-wide slowdown (overload, shared-storage contention) moves the
//! median with it and flags nobody; only an *outlier* is a gray failure.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use simkit::{Duration, Sim, SimTime, WindowedRegistry};

use crate::fleet::Fleet;

/// Health-plane windowing and detector thresholds.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Width of one aggregation window.
    pub window: Duration,
    /// Windows retained per series; `window × ring` is the plane's memory.
    pub ring: usize,
    /// How far back detector queries look (should span several windows).
    pub lookback: Duration,
    /// Detector tick period.
    pub interval: Duration,
    /// A replica is a latency outlier when its windowed p99 is at least
    /// this many times the fleet median p99.
    pub latency_factor: f64,
    /// A replica is an error outlier when its windowed error rate is at
    /// least this many times the fleet median error rate…
    pub error_factor: f64,
    /// …and at least this absolute rate (so a lone error in a quiet
    /// window cannot flag anyone).
    pub error_floor: f64,
    /// Replicas with fewer samples than this in the lookback are not
    /// scored (freshly booted, or starved of traffic).
    pub min_samples: u64,
    /// Consecutive outlier ticks before probation-weighting.
    pub probation_strikes: u32,
    /// Consecutive outlier ticks before ejection (must exceed
    /// `probation_strikes`; probation is the intermediate state).
    pub eject_strikes: u32,
    /// Distinct per-tenant request series kept before further tenants
    /// fold into the `tenant.other.requests` overflow series.
    pub max_tenants: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: Duration::from_secs(5),
            ring: 64,
            lookback: Duration::from_secs(30),
            interval: Duration::from_secs(5),
            latency_factor: 3.0,
            error_factor: 4.0,
            error_floor: 0.05,
            min_samples: 10,
            probation_strikes: 2,
            eject_strikes: 8,
            max_tenants: 64,
        }
    }
}

/// One replica's windowed health, as the detector sees it.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaHealth {
    /// Latency samples inside the lookback.
    pub samples: u64,
    /// Windowed p99 latency, seconds.
    pub p99_s: f64,
    /// Errors ÷ samples inside the lookback.
    pub error_rate: f64,
}

/// Per-replica latency/error/queue and per-tenant request series on the
/// virtual clock. Create once, attach via
/// [`crate::Dispatcher::set_health_plane`].
pub struct HealthPlane {
    cfg: HealthConfig,
    reg: RefCell<WindowedRegistry>,
    /// Tenants granted distinct `tenant.<t>.requests` series (capped at
    /// [`HealthConfig::max_tenants`]; overflow folds into
    /// `tenant.other.requests`).
    tenants: RefCell<BTreeSet<String>>,
    /// Replica → label key → value, rendered on the replica's
    /// `fleet_replica_<name>_*` series in the Prometheus exposition in key
    /// order (`site` before `version`). Fed by the fleet: `site` by
    /// [`crate::Fleet::attach_geo`] and at activation, `version` once a
    /// rollout target is set. Empty (the default) leaves the exposition
    /// byte-identical to the unlabeled format.
    labels: RefCell<BTreeMap<String, BTreeMap<&'static str, String>>>,
    /// Tenants granted distinct `fleet.tenant.<t>.*` QoS series (capped
    /// at [`HealthConfig::max_tenants`]; overflow folds into
    /// `fleet.tenant.other.*`). Only populated when the dispatcher's QoS
    /// stage is on — QoS-off runs emit no `tenant="..."`-labeled series
    /// and stay byte-identical.
    qos_tenants: RefCell<BTreeSet<String>>,
}

impl HealthPlane {
    /// New, empty plane.
    pub fn new(cfg: HealthConfig) -> Rc<HealthPlane> {
        assert!(
            cfg.eject_strikes > cfg.probation_strikes,
            "eject_strikes must exceed probation_strikes"
        );
        Rc::new(HealthPlane {
            reg: RefCell::new(WindowedRegistry::new(cfg.window, cfg.ring)),
            tenants: RefCell::new(BTreeSet::new()),
            labels: RefCell::new(BTreeMap::new()),
            qos_tenants: RefCell::new(BTreeSet::new()),
            cfg,
        })
    }

    /// Tag `replica`'s per-replica series with `key="value"`: every
    /// `fleet_replica_<name>_*` sample in the Prometheus exposition gains
    /// the label. Setting a key again replaces its value. The fleet uses
    /// `site` (geo placement) and `version` (served artifact version).
    pub fn set_label(&self, replica: &str, key: &'static str, value: &str) {
        self.labels
            .borrow_mut()
            .entry(replica.to_owned())
            .or_default()
            .insert(key, value.to_owned());
    }

    /// The value `replica` was tagged with under `key`, if any.
    pub fn label(&self, replica: &str, key: &str) -> Option<String> {
        self.labels.borrow().get(replica)?.get(key).cloned()
    }

    /// The active thresholds.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// One finished attempt on `replica`: its latency (and whether it was
    /// an error) lands in the replica's series and the fleet-wide series.
    pub fn record_attempt(&self, now: SimTime, replica: &str, latency: Duration, error: bool) {
        let micros = latency.ticks().max(1);
        let mut reg = self.reg.borrow_mut();
        let lat = reg.histogram(&format!("fleet.replica.{replica}.latency_us"));
        reg.record(lat, now, micros);
        let fleet_lat = reg.histogram("fleet.attempt_latency_us");
        reg.record(fleet_lat, now, micros);
        if error {
            let err = reg.counter(&format!("fleet.replica.{replica}.errors"));
            reg.record(err, now, 1);
        }
    }

    /// Outstanding-attempt depth on `replica` right after an attempt was
    /// routed to it.
    pub fn record_depth(&self, now: SimTime, replica: &str, depth: u64) {
        let mut reg = self.reg.borrow_mut();
        let id = reg.histogram(&format!("fleet.replica.{replica}.depth"));
        reg.record(id, now, depth);
    }

    /// One admitted front-door request: fleet-wide in-flight and queued
    /// depth, plus the requesting tenant (capped at
    /// [`HealthConfig::max_tenants`] distinct series; the overflow folds
    /// into `tenant.other.requests`).
    pub fn record_submit(&self, now: SimTime, in_flight: u64, queued: u64, tenant: Option<&str>) {
        let mut reg = self.reg.borrow_mut();
        let inf = reg.histogram("dispatcher.in_flight");
        reg.record(inf, now, in_flight);
        let q = reg.histogram("dispatcher.queue_depth");
        reg.record(q, now, queued);
        if let Some(t) = tenant {
            let key = capped(&mut self.tenants.borrow_mut(), self.cfg.max_tenants, t);
            let id = reg.counter(&format!("tenant.{key}.requests"));
            reg.record(id, now, 1);
        }
    }

    /// `replica`'s windowed health over the configured lookback; `None`
    /// when it has produced no latency sample in the lookback.
    pub fn replica_health(&self, now: SimTime, replica: &str) -> Option<ReplicaHealth> {
        let reg = self.reg.borrow();
        let lat = reg.series(&format!("fleet.replica.{replica}.latency_us"))?;
        let agg = lat.range(now, self.cfg.lookback);
        if agg.count() == 0 {
            return None;
        }
        let errors = reg
            .series(&format!("fleet.replica.{replica}.errors"))
            .map(|s| s.range(now, self.cfg.lookback).sum())
            .unwrap_or(0);
        Some(ReplicaHealth {
            samples: agg.count(),
            p99_s: agg.quantile(0.99) / 1e6,
            error_rate: errors as f64 / agg.count() as f64,
        })
    }

    /// Fleet-wide windowed p99 attempt latency (seconds) over the
    /// configured lookback; `None` before any attempt finished.
    pub fn fleet_p99(&self, now: SimTime) -> Option<f64> {
        let reg = self.reg.borrow();
        let s = reg.series("fleet.attempt_latency_us")?;
        let agg = s.range(now, self.cfg.lookback);
        (agg.count() > 0).then(|| agg.quantile(0.99) / 1e6)
    }

    /// Distinct tenant series seen (excluding the overflow series).
    pub fn tenant_series(&self) -> usize {
        self.tenants.borrow().len()
    }

    /// The series key a QoS tenant writes under (see [`capped`]).
    fn qos_key<'a>(&self, tenant: &'a str) -> &'a str {
        capped(&mut self.qos_tenants.borrow_mut(), self.cfg.max_tenants, tenant)
    }

    /// One request admitted past the QoS stage for `tenant`.
    pub fn record_tenant_accepted(&self, now: SimTime, tenant: &str) {
        let key = self.qos_key(tenant);
        let mut reg = self.reg.borrow_mut();
        let id = reg.counter(&format!("fleet.tenant.{key}.accepted"));
        reg.record(id, now, 1);
    }

    /// One request shed at the QoS stage (quota + queue full, or no
    /// replicas) for `tenant`.
    pub fn record_tenant_shed(&self, now: SimTime, tenant: &str) {
        let key = self.qos_key(tenant);
        let mut reg = self.reg.borrow_mut();
        let id = reg.counter(&format!("fleet.tenant.{key}.shed"));
        reg.record(id, now, 1);
    }

    /// `tenant`'s door-queue depth right after one of its requests was
    /// queued.
    pub fn record_tenant_queue_depth(&self, now: SimTime, tenant: &str, depth: u64) {
        let key = self.qos_key(tenant);
        let mut reg = self.reg.borrow_mut();
        let id = reg.histogram(&format!("fleet.tenant.{key}.queue_depth"));
        reg.record(id, now, depth);
    }

    /// One finished QoS-admitted request for `tenant`: door-to-answer
    /// latency (including any time spent queued at the door).
    pub fn record_tenant_latency(&self, now: SimTime, tenant: &str, latency: Duration, error: bool) {
        let key = self.qos_key(tenant);
        let mut reg = self.reg.borrow_mut();
        let id = reg.histogram(&format!("fleet.tenant.{key}.latency_us"));
        reg.record(id, now, latency.ticks().max(1));
        if error {
            let id = reg.counter(&format!("fleet.tenant.{key}.errors"));
            reg.record(id, now, 1);
        }
    }

    /// Prometheus text exposition of every series at `now`. Per-replica
    /// series carry the labels set with [`HealthPlane::set_label`], in key
    /// order; with no labels the output is byte-identical to the unlabeled
    /// format. QoS tenant series carry a `tenant` label.
    pub fn prometheus_text(&self, now: SimTime) -> String {
        let labels = self.labels.borrow();
        self.reg.borrow().prometheus_text_multi_labeled(now, |name| {
            if let Some(rest) = name.strip_prefix("fleet.tenant.") {
                // suffixes (accepted/shed/queue_depth/latency_us/errors)
                // carry no dot, so the last dot ends the tenant name
                let Some((tenant, _)) = rest.rsplit_once('.') else {
                    return Vec::new();
                };
                return vec![("tenant".to_owned(), tenant.to_owned())];
            }
            let Some(rest) = name.strip_prefix("fleet.replica.") else {
                return Vec::new();
            };
            let Some((replica, _)) = rest.split_once('.') else {
                return Vec::new();
            };
            labels.get(replica).map_or_else(Vec::new, |set| {
                set.iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect()
            })
        })
    }

    /// Full time-series CSV dump (one row per non-empty window).
    pub fn timeseries_csv(&self) -> String {
        self.reg.borrow().timeseries_csv()
    }
}

/// What the detector did about a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorAction {
    /// Sustained outlier: probation-weighted in the dispatcher.
    Probation,
    /// Back with the pack: probation lifted, strikes reset.
    Cleared,
    /// Outlier through `eject_strikes`: ejected like a crash.
    Ejected,
}

/// One timestamped detector decision, for tests and reports.
#[derive(Clone, Debug)]
pub struct DetectorEvent {
    /// When the decision was taken.
    pub at: SimTime,
    /// The replica acted on.
    pub replica: String,
    /// What was done.
    pub action: DetectorAction,
    /// The replica's windowed p99 (seconds) at decision time.
    pub p99_s: f64,
    /// The fleet median p99 (seconds) at decision time.
    pub median_p99_s: f64,
}

/// Peer-relative gray-failure detector; create with
/// [`GrayFailureDetector::install`].
pub struct GrayFailureDetector {
    fleet: Rc<Fleet>,
    plane: Rc<HealthPlane>,
    /// Consecutive outlier ticks per replica (BTreeMap: deterministic
    /// iteration, though decisions are driven by the fleet's name order).
    strikes: RefCell<BTreeMap<String, u32>>,
    events: RefCell<Vec<DetectorEvent>>,
    stopped: Cell<bool>,
}

impl GrayFailureDetector {
    /// Start scoring every `plane.config().interval` until `until`
    /// (virtual time). The plane should already be attached to the
    /// fleet's dispatcher, or there will be nothing to score.
    pub fn install(
        sim: &mut Sim,
        fleet: &Rc<Fleet>,
        plane: &Rc<HealthPlane>,
        until: SimTime,
    ) -> Rc<GrayFailureDetector> {
        let det = Rc::new(GrayFailureDetector {
            fleet: Rc::clone(fleet),
            plane: Rc::clone(plane),
            strikes: RefCell::new(BTreeMap::new()),
            events: RefCell::new(Vec::new()),
            stopped: Cell::new(false),
        });
        GrayFailureDetector::arm(sim, Rc::clone(&det), until);
        det
    }

    /// Stop the loop (takes effect at the next tick).
    pub fn stop(&self) {
        self.stopped.set(true);
    }

    /// Every decision taken so far, in order.
    pub fn events(&self) -> Vec<DetectorEvent> {
        self.events.borrow().clone()
    }

    /// Probation decisions so far.
    pub fn probations(&self) -> usize {
        self.count(DetectorAction::Probation)
    }

    /// Ejection decisions so far.
    pub fn ejections(&self) -> usize {
        self.count(DetectorAction::Ejected)
    }

    fn count(&self, action: DetectorAction) -> usize {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.action == action)
            .count()
    }

    fn arm(sim: &mut Sim, det: Rc<GrayFailureDetector>, until: SimTime) {
        let interval = det.plane.cfg.interval;
        if sim.now() + interval > until {
            return;
        }
        sim.schedule(interval, move |sim| {
            if det.stopped.get() {
                return;
            }
            det.tick(sim);
            GrayFailureDetector::arm(sim, Rc::clone(&det), until);
        });
    }

    fn tick(self: &Rc<Self>, sim: &mut Sim) {
        let cfg = self.plane.cfg;
        let now = sim.now();
        let names = self.fleet.active_replica_names();
        // score only replicas with enough recent traffic
        let stats: Vec<(String, ReplicaHealth)> = names
            .iter()
            .filter_map(|n| {
                self.plane
                    .replica_health(now, n)
                    .filter(|h| h.samples >= cfg.min_samples)
                    .map(|h| (n.clone(), h))
            })
            .collect();
        // forget strikes for replicas that left the fleet (crashed,
        // drained, or already ejected by us)
        self.strikes
            .borrow_mut()
            .retain(|name, _| names.iter().any(|n| n == name));
        let mut decisions: Vec<DetectorEvent> = Vec::new();
        // Unanswered probes: a replica already on probation that cannot
        // even produce `min_samples` completions in the lookback is worse
        // than a slow outlier — its probe traffic is going in and nothing
        // is coming out. That earns a strike without peer stats (a replica
        // so degraded it answers slower than the lookback would otherwise
        // stall on probation forever).
        {
            let mut strikes = self.strikes.borrow_mut();
            for name in &names {
                if stats.iter().any(|(n, _)| n == name) {
                    continue;
                }
                let Some(s) = strikes.get_mut(name) else {
                    continue;
                };
                if *s >= cfg.probation_strikes {
                    *s += 1;
                    if *s == cfg.eject_strikes {
                        decisions.push(DetectorEvent {
                            at: now,
                            replica: name.clone(),
                            action: DetectorAction::Ejected,
                            p99_s: f64::INFINITY, // no completion to measure
                            median_p99_s: 0.0,
                        });
                    }
                }
            }
        }
        if stats.len() < 2 {
            // peer-relative scoring needs peers; apply what we have
            self.apply(sim, decisions);
            return;
        }
        // lower medians: with half the fleet degraded the reference still
        // sits on a healthy replica
        let median_p99 = lower_median(stats.iter().map(|(_, h)| h.p99_s));
        let median_err = lower_median(stats.iter().map(|(_, h)| h.error_rate));
        {
            let mut strikes = self.strikes.borrow_mut();
            for (name, h) in &stats {
                let lat_outlier = median_p99 > 0.0 && h.p99_s >= cfg.latency_factor * median_p99;
                let err_outlier = h.error_rate >= cfg.error_floor
                    && h.error_rate >= cfg.error_factor * median_err.max(1e-9);
                let s = strikes.entry(name.clone()).or_insert(0);
                if !(lat_outlier || err_outlier) {
                    if *s >= cfg.probation_strikes {
                        decisions.push(DetectorEvent {
                            at: now,
                            replica: name.clone(),
                            action: DetectorAction::Cleared,
                            p99_s: h.p99_s,
                            median_p99_s: median_p99,
                        });
                    }
                    *s = 0;
                    continue;
                }
                *s += 1;
                let action = if *s == cfg.probation_strikes {
                    Some(DetectorAction::Probation)
                } else if *s == cfg.eject_strikes {
                    Some(DetectorAction::Ejected)
                } else {
                    None
                };
                if let Some(action) = action {
                    decisions.push(DetectorEvent {
                        at: now,
                        replica: name.clone(),
                        action,
                        p99_s: h.p99_s,
                        median_p99_s: median_p99,
                    });
                }
            }
        }
        self.apply(sim, decisions);
    }

    /// Carry out this tick's decisions (with no internal borrows held:
    /// ejection re-enters the dispatcher and the fleet).
    fn apply(self: &Rc<Self>, sim: &mut Sim, decisions: Vec<DetectorEvent>) {
        for d in &decisions {
            match d.action {
                DetectorAction::Probation => {
                    self.fleet.dispatcher().set_probation(&d.replica, true);
                    sim.counter_add("health.probation", 1);
                }
                DetectorAction::Cleared => {
                    self.fleet.dispatcher().set_probation(&d.replica, false);
                    sim.counter_add("health.cleared", 1);
                }
                DetectorAction::Ejected => {
                    sim.counter_add("health.ejected", 1);
                    self.fleet.crash_replica(sim, &d.replica);
                    self.strikes.borrow_mut().remove(&d.replica);
                }
            }
        }
        self.events.borrow_mut().extend(decisions);
    }
}

/// `tenant` itself while it already holds series or fewer than `cap`
/// tenants do (admitting it into `known`); `"other"` past the cap.
fn capped<'a>(known: &mut BTreeSet<String>, cap: usize, tenant: &'a str) -> &'a str {
    if known.contains(tenant) || (known.len() < cap && known.insert(tenant.to_owned())) {
        tenant
    } else {
        "other"
    }
}

/// The lower median: element at index `(n-1)/2` of the sorted values.
fn lower_median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("health stats are never NaN"));
    v[(v.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_median_prefers_the_healthy_side() {
        assert_eq!(lower_median([1.0, 10.0].into_iter()), 1.0);
        assert_eq!(lower_median([1.0, 2.0, 10.0].into_iter()), 2.0);
        assert_eq!(lower_median([5.0].into_iter()), 5.0);
    }

    #[test]
    fn plane_records_and_queries_replica_health() {
        let cfg = HealthConfig {
            min_samples: 5,
            ..HealthConfig::default()
        };
        let plane = HealthPlane::new(cfg);
        let mut t = SimTime::from_secs(0);
        for i in 0..20 {
            t = SimTime::from_secs_f64(0.1 * (i + 1) as f64);
            plane.record_attempt(t, "replica0", Duration::from_millis(10), false);
            plane.record_attempt(t, "replica1", Duration::from_millis(200), i % 2 == 0);
        }
        let h0 = plane.replica_health(t, "replica0").expect("has samples");
        let h1 = plane.replica_health(t, "replica1").expect("has samples");
        assert_eq!(h0.samples, 20);
        assert_eq!(h0.error_rate, 0.0);
        assert!(h0.p99_s < h1.p99_s, "slow replica has the higher p99");
        assert!(h1.p99_s >= 0.128 && h1.p99_s < 0.256, "p99 in the 200ms bucket");
        assert!((h1.error_rate - 0.5).abs() < 1e-9);
        assert!(plane.replica_health(t, "ghost").is_none());
        let fleet = plane.fleet_p99(t).expect("fleet series exists");
        assert!(fleet > h0.p99_s / 2.0, "fleet p99 dominated by the slow half");
    }

    #[test]
    fn tenant_series_cap_folds_into_other() {
        let cfg = HealthConfig {
            max_tenants: 2,
            ..HealthConfig::default()
        };
        let plane = HealthPlane::new(cfg);
        let t = SimTime::from_secs(1);
        for tenant in ["alice", "bob", "carol", "dave", "alice"] {
            plane.record_submit(t, 1, 1, Some(tenant));
        }
        assert_eq!(plane.tenant_series(), 2);
        // the QoS series keep their own cap, past which tenants fold into
        // `fleet.tenant.other.*`
        for tenant in ["erin", "frank", "grace", "erin"] {
            plane.record_tenant_accepted(t, tenant);
            plane.record_tenant_latency(t, tenant, Duration::from_millis(5), false);
        }
        let csv = plane.timeseries_csv();
        assert!(csv.contains("tenant.alice.requests"));
        assert!(csv.contains("tenant.bob.requests"));
        assert!(!csv.contains("tenant.carol.requests"));
        assert!(csv.contains("tenant.other.requests"));
        for kept in ["erin", "frank"] {
            assert!(csv.contains(&format!("fleet.tenant.{kept}.accepted,")), "{csv}");
            assert!(csv.contains(&format!("fleet.tenant.{kept}.latency_us,")), "{csv}");
        }
        assert!(csv.contains("fleet.tenant.other.accepted,0,1,1,1,"), "{csv}");
        assert!(csv.contains("fleet.tenant.other.latency_us,"), "{csv}");
        assert!(!csv.contains("fleet.tenant.grace."), "{csv}");
        let text = plane.prometheus_text(t);
        assert!(text.contains(r#"fleet_tenant_other_accepted{tenant="other"} 1"#), "{text}");
        assert!(!text.contains("grace"), "{text}");
    }

    #[test]
    fn tenant_label_values_are_escaped() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(1);
        let principal = "ev\"il\\ten\nant";
        plane.record_tenant_accepted(t, principal);
        plane.record_tenant_latency(t, principal, Duration::from_millis(5), true);
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("escaped tenant label parses strictly");
        assert!(
            text.contains(r#"fleet_tenant_ev_il_ten_ant_accepted{tenant="ev\"il\\ten\nant"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(
                r#"fleet_tenant_ev_il_ten_ant_latency_us{quantile="0.5",tenant="ev\"il\\ten\nant"}"#
            ),
            "{text}"
        );
    }

    #[test]
    fn exposition_snapshot_is_strictly_valid() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        plane.record_attempt(t, "replica0", Duration::from_millis(7), false);
        plane.record_attempt(t, "replica0", Duration::from_millis(9), true);
        plane.record_submit(t, 2, 3, Some("alice"));
        let text = plane.prometheus_text(t);
        let (families, samples) =
            simkit::validate_prometheus_text(&text).expect("snapshot parses strictly");
        assert!(families >= 5, "got {families} families:\n{text}");
        assert!(samples > families, "summaries expose multiple samples");
    }

    #[test]
    fn site_labels_tag_per_replica_series_and_still_validate() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        plane.record_attempt(t, "replica0", Duration::from_millis(7), false);
        plane.record_attempt(t, "replica0", Duration::from_millis(9), true);
        plane.record_attempt(t, "replica1", Duration::from_millis(5), false);
        plane.record_submit(t, 2, 3, Some("alice"));
        let untagged = plane.prometheus_text(t);
        assert!(
            !untagged.contains("site="),
            "no tags, no labels:\n{untagged}"
        );

        plane.set_label("replica0", "site", "east");
        assert_eq!(plane.label("replica0", "site").as_deref(), Some("east"));
        assert_eq!(plane.label("replica0", "version"), None);
        assert_eq!(plane.label("replica1", "site"), None);
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("labeled snapshot parses strictly");
        assert!(
            text.contains(r#"fleet_replica_replica0_latency_us{quantile="0.5",site="east"}"#),
            "quantile series carry the site label:\n{text}"
        );
        assert!(
            text.contains(r#"fleet_replica_replica0_latency_us_sum{site="east"}"#),
            "summary _sum carries the site label:\n{text}"
        );
        assert!(
            text.contains(r#"fleet_replica_replica0_errors{site="east"}"#),
            "counters carry the site label:\n{text}"
        );
        // replicas with no placement and fleet-wide series stay label-free
        assert!(text.contains(r#"fleet_replica_replica1_latency_us{quantile="0.5"}"#));
        assert!(!text.contains(r#"fleet_attempt_latency_us{quantile="0.5",site="#));
    }

    #[test]
    fn version_labels_compose_with_site_labels() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        plane.record_attempt(t, "replica0", Duration::from_millis(7), false);
        plane.record_attempt(t, "replica1", Duration::from_millis(5), false);
        plane.record_attempt(t, "replica2", Duration::from_millis(6), false);
        plane.record_submit(t, 2, 3, Some("alice"));

        // version alone
        plane.set_label("replica1", "version", "v2");
        assert_eq!(plane.label("replica1", "version").as_deref(), Some("v2"));
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("version-labeled snapshot parses");
        assert!(
            text.contains(r#"fleet_replica_replica1_latency_us{quantile="0.5",version="v2"}"#),
            "quantile series carry the version label:\n{text}"
        );

        // site + version together, in site-then-version order whichever
        // was tagged first
        plane.set_label("replica0", "site", "east");
        plane.set_label("replica0", "version", "v1");
        plane.set_label("replica2", "version", "v1");
        plane.set_label("replica2", "site", "east");
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("two-label snapshot parses");
        assert!(
            text.contains(
                r#"fleet_replica_replica0_latency_us{quantile="0.5",site="east",version="v1"}"#
            ),
            "both labels render on one series:\n{text}"
        );
        assert!(
            text.contains(
                r#"fleet_replica_replica2_latency_us{quantile="0.5",site="east",version="v1"}"#
            ),
            "version tagged before site still renders site first:\n{text}"
        );
        assert!(
            text.contains(r#"fleet_replica_replica0_latency_us_sum{site="east",version="v1"}"#),
            "summary _sum carries both labels:\n{text}"
        );
        // fleet-wide series never pick up per-replica labels
        assert!(!text.contains(r#"fleet_attempt_latency_us{quantile="0.5",version="#));
    }
}
