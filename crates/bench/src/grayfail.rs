//! The gray-failure experiment: tail latency under a pinned slow-replica
//! schedule, with the health-plane detector on vs off.
//!
//! A three-replica fleet serves steadily paced invocations (~15.5 s end
//! to end each through upload-fetch + grid execution) while a seeded
//! [`ChaosMonkey`] degrades one replica to 10× its service latency at a
//! pinned instant. The replica keeps answering, so crash detection never
//! fires — only the windowed health plane can see it:
//!
//! * detector **off** — round-robin keeps handing the victim a third of
//!   the traffic; its queue grows without bound and the fleet-wide p99
//!   is pinned to the degraded path for the rest of the run.
//! * detector **on** — the peer-relative detector sees the victim's
//!   windowed p99 sustain ≥ 3× the fleet median, probation-weights it in
//!   the dispatcher, and after continued strikes ejects it like a crash;
//!   the replacement-only autoscaler boots a fresh replica and the fleet
//!   p99 recovers toward the healthy baseline.
//!
//! Both rows attach the [`HealthPlane`] (it is measurement either way —
//! attachment is result-neutral); only the `on` row installs the
//! [`GrayFailureDetector`]. The golden test pins the CSV byte-for-byte
//! and asserts the detector row flags the victim within bounded virtual
//! time and lands a strictly better fleet p99 than the control row.
//!
//! [`Grayfail`] declares the experiment for the bench harness
//! ([`crate::scenario`]); the `grayfail` binary and the golden test both
//! run that one declaration.

use std::rc::Rc;

use fleet::{
    Autoscaler, ChaosMonkey, DetectorAction, FleetSpec, GrayFailureDetector, HealthConfig,
    HealthPlane, Policy,
};
use simkit::fault::FaultPlan;
use simkit::{Duration, Sim, SimTime, KB};

use crate::scenario::{self, on_off, Scenario};

/// Seed shared by both rows — the slow-strike victim and every arrival
/// must be identical so the detector is the only variable.
pub const SEED: u64 = 0x6772_6179;

/// Replicas booted before load starts.
pub const REPLICAS: usize = 3;

/// Deterministic arrival spacing, fleet-wide. One request per 6 s
/// against three replicas that each take ~15.5 s per request keeps the
/// healthy pair comfortably under capacity even while it carries the
/// probationer's share.
pub fn arrival_gap() -> Duration {
    Duration::from_secs(6)
}

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(1200)
}

/// Offset of the pinned slow strike from the start of load.
pub fn degrade_offset() -> Duration {
    Duration::from_secs(120)
}

/// Latency multiplier the strike applies to the victim.
pub const SLOW_FACTOR: f64 = 10.0;

/// Windowing tuned to the appliance's real invoke latency: with the
/// victim at 10× (~155 s per answer) the lookback must still hold its
/// completions, or the detector would only ever see the healthy pack.
pub fn health_config() -> HealthConfig {
    HealthConfig {
        window: Duration::from_secs(30),
        ring: 16,
        lookback: Duration::from_secs(240),
        interval: Duration::from_secs(30),
        latency_factor: 3.0,
        min_samples: 2,
        probation_strikes: 2,
        eject_strikes: 6,
        ..HealthConfig::default()
    }
}

/// One measured row.
pub struct GrayfailPoint {
    /// Whether the gray-failure detector was installed.
    pub detector: bool,
    /// Requests issued by the pacer.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// Probation events the detector raised.
    pub probations: u64,
    /// Ejections the detector escalated to.
    pub ejections: u64,
    /// Replacement replicas the autoscaler booted.
    pub replaced: u64,
    /// Seconds from the degrade to the first probation (-1 if never).
    pub first_probation_s: f64,
    /// Seconds from the degrade to the ejection (-1 if never).
    pub first_eject_s: f64,
    /// Fleet-wide windowed p99 over the final lookback, seconds.
    pub fleet_p99_s: f64,
    /// Prometheus text exposition captured at the end of the run.
    pub prom: String,
    /// Windowed time-series CSV captured at the end of the run.
    pub timeseries: String,
}

fn fleet_spec() -> FleetSpec {
    let mut spec = scenario::fleet_spec(REPLICAS);
    spec.dispatcher.policy = Policy::RoundRobin;
    // the victim's backlog must queue, not shed: the control row pins
    // hundreds of requests behind the degraded replica
    spec.dispatcher.max_in_flight = 1024;
    spec
}

/// Two rows, gray-failure detector on and off.
pub struct Grayfail;

impl Scenario for Grayfail {
    type Row = bool;
    type Point = GrayfailPoint;
    const NAME: &'static str = "grayfail";
    const ROWS: &'static [bool] = &[true, false];
    const COLUMNS: &'static str =
        "detector,issued,completed,faulted,probations,ejections,replaced,first_probation_s,first_eject_s,fleet_p99_s";

    /// Boot, provision, attach the plane, unleash the slow strike, offer
    /// paced load, read the plane at the end.
    fn run(&detector: &bool) -> GrayfailPoint {
        let mut sim = Sim::new(SEED);
        let lasting = Duration::from_millis(200);
        let fleet = scenario::boot(&mut sim, fleet_spec(), lasting, 16.0 * KB);
        let plane = HealthPlane::new(health_config());
        fleet.dispatcher().set_health_plane(Rc::clone(&plane));
        let t0 = sim.now();
        let until = t0 + horizon();
        // capacity changes come from the detector; the autoscaler only
        // replaces what it ejects
        let scale = scenario::replacement_only(REPLICAS, REPLICAS + 2);
        let _scaler = Autoscaler::install(&mut sim, &fleet, scale, until);
        let monkey = ChaosMonkey::unleash(
            &mut sim,
            &fleet,
            &FaultPlan::new(SEED).slow_at(degrade_offset(), SLOW_FACTOR),
        );
        let sentry =
            detector.then(|| GrayFailureDetector::install(&mut sim, &fleet, &plane, until));
        let paced = scenario::pace(&mut sim, &fleet, arrival_gap(), until, |_, n| {
            scenario::tenant_of_three(n)
        });
        sim.run_until(until);
        let end = sim.now();
        assert_eq!(monkey.slowed(), 1, "the pinned slow strike landed");
        let degrade_at = t0 + degrade_offset();
        let since = |at: Option<SimTime>| at.map_or(-1.0, |t| (t - degrade_at).as_secs_f64());
        let events = sentry.as_ref().map_or(Vec::new(), |s| s.events());
        let first =
            |action: DetectorAction| events.iter().find(|e| e.action == action).map(|e| e.at);
        GrayfailPoint {
            detector,
            issued: paced.issued.get(),
            completed: paced.ok.get(),
            faulted: paced.bad.get(),
            probations: sentry.as_ref().map_or(0, |s| s.probations() as u64),
            ejections: sentry.as_ref().map_or(0, |s| s.ejections() as u64),
            replaced: fleet.booted_total() - REPLICAS as u64,
            first_probation_s: since(first(DetectorAction::Probation)),
            first_eject_s: since(first(DetectorAction::Ejected)),
            fleet_p99_s: plane.fleet_p99(end).unwrap_or(-1.0),
            prom: plane.prometheus_text(end),
            timeseries: plane.timeseries_csv(),
        }
    }

    fn cells(p: &GrayfailPoint) -> Vec<String> {
        vec![
            on_off(p.detector),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.probations.to_string(),
            p.ejections.to_string(),
            p.replaced.to_string(),
            format!("{:.1}", p.first_probation_s),
            format!("{:.1}", p.first_eject_s),
            format!("{:.4}", p.fleet_p99_s),
        ]
    }

    /// The detector row's exposition and windowed time series.
    fn snapshots(points: &[GrayfailPoint]) -> Vec<(&'static str, String)> {
        let on = points.iter().find(|p| p.detector).expect("detector-on row");
        vec![
            ("grayfail.prom", on.prom.clone()),
            ("grayfail_timeseries.csv", on.timeseries.clone()),
        ]
    }

    fn summary(points: &[GrayfailPoint]) -> String {
        let on = points.iter().find(|p| p.detector).expect("detector-on row");
        let off = points
            .iter()
            .find(|p| !p.detector)
            .expect("detector-off row");
        format!(
            "detector cuts the final-window fleet p99 {:.1}x (from {:.1} s to {:.1} s)",
            off.fleet_p99_s / on.fleet_p99_s,
            off.fleet_p99_s,
            on.fleet_p99_s
        )
    }

    /// The detector row flags the degraded replica within bounded virtual
    /// time and lands a strictly better fleet p99 than the control.
    fn check(points: &[GrayfailPoint]) {
        let row = |d: bool| points.iter().find(|p| p.detector == d).expect("row");
        let (on, off) = (row(true), row(false));
        assert_eq!(on.issued, off.issued, "same seed must offer the same load");
        assert!(on.probations >= 1, "the victim must reach probation");
        assert_eq!(on.ejections, 1, "continued degradation must eject");
        assert!(
            on.first_probation_s >= 0.0 && on.first_probation_s <= 300.0,
            "probation within ten detector ticks of the degrade, got +{} s",
            on.first_probation_s
        );
        assert!(
            on.first_eject_s > on.first_probation_s && on.first_eject_s <= 480.0,
            "bounded escalation to ejection, got +{} s",
            on.first_eject_s
        );
        assert!(
            on.replaced >= 1,
            "the autoscaler must replace the ejected replica"
        );
        assert_eq!(
            off.probations + off.ejections,
            0,
            "control row takes no action"
        );
        assert!(
            on.fleet_p99_s < 0.5 * off.fleet_p99_s,
            "detector must recover the fleet p99 ({} s) well below the control ({} s)",
            on.fleet_p99_s,
            off.fleet_p99_s
        );
        // the captured exposition snapshot must satisfy the strict parser
        scenario::check_exposition(&on.prom);
        assert!(
            on.timeseries
                .starts_with("series,t_s,count,sum,max,p50,p95,p99\n"),
            "time-series CSV header drifted"
        );
    }
}
