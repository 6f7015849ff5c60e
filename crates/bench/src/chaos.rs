//! The chaos experiment: goodput under a pinned crash schedule, with
//! front-door retry on vs off.
//!
//! A two-replica fleet serves long (200 s) invocations while a seeded
//! [`ChaosMonkey`] hard-kills a replica at three pinned instants; the
//! autoscaler replaces each loss (and nothing else — its load thresholds
//! are parked at infinity so `Replace` is the only decision it can make).
//! Because the service time is twice the inter-crash gap, roughly the
//! whole offered load is in flight whenever a crash lands, so each kill
//! puts about half the outstanding work on the dead replica:
//!
//! * retry **off** — every in-flight request on the victim comes back as
//!   a SOAP fault; over three crashes that is most of the run's traffic.
//! * retry **on** — the dispatcher resolves the same losses as
//!   `BackendLost`, backs off, and re-runs each request on the surviving
//!   replica; only the duplicate service time is paid.
//!
//! The goodput gap between the two rows is the point of the tentpole:
//! the golden test pins the ratio at ≥ 2x.
//!
//! [`Chaos`] declares the experiment for the bench harness
//! ([`crate::scenario`]); the `chaos` binary and the golden test both run
//! that one declaration.

use fleet::{
    start_open_loop, ArrivalProcess, Autoscaler, ChaosMonkey, FleetSpec, Mix, Policy, RetryConfig,
};
use simkit::fault::FaultPlan;
use simkit::{Duration, Sim, KB};

use crate::scenario::{self, on_off, Scenario};

/// Open-loop offered load, requests/second.
pub const OFFERED_RPS: f64 = 0.5;

/// Seed shared by both rows — the schedule, victims and arrivals must be
/// identical so retry is the only variable.
pub const SEED: u64 = 0xc4a05;

/// Service time of the published executable.
pub fn service_time() -> Duration {
    Duration::from_secs(200)
}

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(500)
}

/// The pinned crash schedule, offsets from the start of load. 100 s
/// between kills leaves room for the ~80 s replacement (autoscaler tick +
/// appliance boot) so the fleet is back to two replicas before the next
/// strike.
pub fn crash_offsets() -> Vec<Duration> {
    vec![
        Duration::from_secs(200),
        Duration::from_secs(300),
        Duration::from_secs(400),
    ]
}

/// One measured row.
pub struct ChaosPoint {
    /// Whether front-door retry was enabled.
    pub retry: bool,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// Requests shed at the front door.
    pub shed: u64,
    /// Retry attempts the dispatcher made.
    pub retried: u64,
    /// Replicas lost to the chaos schedule.
    pub lost: u64,
    /// Replacement replicas the autoscaler booted.
    pub replaced: u64,
    /// Completions per second over the measurement window.
    pub goodput_rps: f64,
}

fn fleet_spec(retry: bool) -> FleetSpec {
    let mut spec = scenario::fleet_spec(2);
    spec.dispatcher.policy = Policy::RoundRobin;
    // the whole horizon's traffic can be in flight at once
    spec.dispatcher.max_in_flight = 512;
    spec.dispatcher.retry = retry.then(RetryConfig::default);
    spec
}

/// Two rows, front-door retry on and off.
pub struct Chaos;

impl Scenario for Chaos {
    type Row = bool;
    type Point = ChaosPoint;
    const NAME: &'static str = "chaos";
    const ROWS: &'static [bool] = &[true, false];
    const COLUMNS: &'static str =
        "retry,issued,completed,faulted,shed,retried,replicas_lost,replicas_replaced,goodput_rps";

    /// Boot, provision, unleash the schedule, offer load.
    fn run(&retry: &bool) -> ChaosPoint {
        let mut sim = Sim::new(SEED);
        let fleet = scenario::boot(&mut sim, fleet_spec(retry), service_time(), 64.0 * KB);
        let until = sim.now() + horizon();
        let _scaler =
            Autoscaler::install(&mut sim, &fleet, scenario::replacement_only(2, 6), until);
        let mut plan = FaultPlan::new(SEED);
        for t in crash_offsets() {
            plan = plan.crash_at(t);
        }
        let monkey = ChaosMonkey::unleash(&mut sim, &fleet, &plan);
        let stats = start_open_loop(
            &mut sim,
            ArrivalProcess::Poisson { rate: OFFERED_RPS },
            Mix::invoke_only(&["app"]),
            scenario::sink(&fleet),
            until,
        );
        sim.run(); // drain every outstanding request and retry
        let c = fleet.dispatcher().counters();
        assert_eq!(
            c.accepted,
            c.completed + c.faulted,
            "request conservation violated"
        );
        assert_eq!(monkey.landed(), fleet.lost_total());
        ChaosPoint {
            retry,
            issued: stats.issued(),
            completed: stats.completed(),
            faulted: stats.faulted(),
            shed: c.shed,
            retried: c.retried,
            lost: fleet.lost_total(),
            replaced: fleet.booted_total() - 2,
            goodput_rps: stats.completed() as f64 / horizon().as_secs_f64(),
        }
    }

    fn cells(p: &ChaosPoint) -> Vec<String> {
        vec![
            on_off(p.retry),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.shed.to_string(),
            p.retried.to_string(),
            p.lost.to_string(),
            p.replaced.to_string(),
            format!("{:.4}", p.goodput_rps),
        ]
    }

    fn summary(points: &[ChaosPoint]) -> String {
        let on = points.iter().find(|p| p.retry).expect("retry-on row");
        let off = points.iter().find(|p| !p.retry).expect("retry-off row");
        format!(
            "retry recovers {:.1}x the goodput of fail-fast under the same crashes",
            on.goodput_rps / off.goodput_rps
        )
    }

    /// Front-door retry recovers at least twice the goodput lost to
    /// replica crashes.
    fn check(points: &[ChaosPoint]) {
        let row = |retry: bool| points.iter().find(|p| p.retry == retry).expect("row");
        let (on, off) = (row(true), row(false));
        assert_eq!(on.issued, off.issued, "same seed must offer the same load");
        assert_eq!(on.lost, 3, "all three pinned crashes must land");
        assert!(
            on.goodput_rps >= 2.0 * off.goodput_rps,
            "retry-on goodput ({}) must be ≥ 2x retry-off ({})",
            on.goodput_rps,
            off.goodput_rps
        );
        assert!(on.retried > 0, "retry-on must actually retry");
        assert_eq!(off.retried, 0, "retry-off must never retry");
    }
}
