//! The rollout experiment: the zero-downtime contract, measured.
//!
//! One three-replica fleet, one seed, one paced arrival schedule — and
//! four ways to move it from v1 to v2:
//!
//! * **restart** — the naive baseline: kill every replica, boot v2.
//!   Everything in flight faults and everything arriving during the
//!   boot window is refused; `dropped > 0` is the row's whole point.
//! * **rolling** — boot a v2 replica, wait until it serves, drain and
//!   retire one v1, repeat. Nothing is dropped, nothing faults.
//! * **canary-promote** — boot one v2 canary, shift half the affinity
//!   pins and half of first-sight traffic onto it, judge its windowed
//!   p99 against the v1 pack for four minutes, then promote into the
//!   rolling path. Nothing is dropped and the fleet ends on v2.
//! * **canary-rollback** — same schedule, but a seeded [`ChaosMonkey`]
//!   `slow_at` lemon degrades the canary to 10× mid-judgment. The judge
//!   fails it, the rollback drains the canary, restores every shifted
//!   pin, and reverts the target version; the fleet ends on v1 with its
//!   final-window p99 back at the healthy baseline.
//!
//! All four rows share [`SEED`] and the arrival schedule, so the
//! strategy is the only variable. The golden test pins the CSV
//! byte-for-byte and asserts the contract row by row.
//!
//! [`Rollout`] declares the experiment for the bench harness
//! ([`crate::scenario`]); the `rollout` binary and the golden test both
//! run that one declaration.

use std::cell::RefCell;
use std::rc::Rc;

use fleet::{
    AffinityConfig, CanaryConfig, ChaosMonkey, FleetSpec, HealthConfig, HealthPlane, Policy,
    RolloutConfig, RolloutController, RolloutOutcome, RolloutStrategy,
};
use simkit::fault::FaultPlan;
use simkit::{Duration, Sim, KB};

use crate::scenario::{self, Scenario};

/// Seed shared by all four rows — arrivals, boots, and pin placement
/// must be identical so the strategy is the only variable.
pub const SEED: u64 = 0x726f_6c6c; // "roll"

/// Fault-plan seed for the rollback row's lemon, probed so the uniform
/// `slow_at` draw among the four actives lands on the canary. The
/// runtime assert (`rollbacks == 1`) keeps it honest: a slowed *peer*
/// would make the canary look good and promote instead.
pub const LEMON_SEED: u64 = 0;

/// Replicas booted before load starts.
pub const REPLICAS: usize = 3;

/// Version every row rolls toward (the fleet starts at 1).
pub const TO_VERSION: u32 = 2;

/// Latency multiplier the rollback row's lemon applies to the canary.
pub const SLOW_FACTOR: f64 = 10.0;

/// Deterministic arrival spacing, fleet-wide — same pacing as the
/// gray-failure experiment: comfortably under capacity at three
/// replicas and ~15.5 s per answer.
pub fn arrival_gap() -> Duration {
    Duration::from_secs(6)
}

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(1200)
}

/// Offset of the rollout kickoff from the start of load.
pub fn roll_offset() -> Duration {
    Duration::from_secs(60)
}

/// Offset of the rollback row's slow strike — the canary is active and
/// under judgment by then (kickoff + ~75 s boot).
pub fn lemon_offset() -> Duration {
    Duration::from_secs(180)
}

/// Canary judgment knobs shared by both canary rows.
pub fn canary_config() -> CanaryConfig {
    CanaryConfig {
        pin_fraction: 0.5,
        first_sight_pct: 50,
        judgment: Duration::from_secs(240),
        p99_factor: 3.0,
        min_samples: 2,
    }
}

/// Windowing tuned to the appliance's ~15.5 s invoke latency, wide
/// enough to hold a 10×-degraded canary's completions.
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

/// The four upgrade strategies under measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutMode {
    /// Kill everything, boot v2 — the dropped-work baseline.
    Restart,
    /// Boot-then-retire, one replica at a time.
    Rolling,
    /// Canary judged healthy, promoted into the rolling path.
    CanaryPromote,
    /// Canary degraded by the lemon, auto-rolled back.
    CanaryRollback,
}

impl RolloutMode {
    /// Row label used in the CSV.
    pub fn label(&self) -> &'static str {
        match self {
            RolloutMode::Restart => "restart",
            RolloutMode::Rolling => "rolling",
            RolloutMode::CanaryPromote => "canary-promote",
            RolloutMode::CanaryRollback => "canary-rollback",
        }
    }
}

/// One measured row.
pub struct RolloutPoint {
    /// Strategy this row ran.
    pub mode: RolloutMode,
    /// Requests issued by the pacer.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that never got a good answer (refused or faulted).
    pub dropped: u64,
    /// Requests answered with a SOAP fault.
    pub failed: u64,
    /// Old-version replicas the controller retired and replaced.
    pub replaced: u64,
    /// Rollbacks the controller executed.
    pub rollbacks: u64,
    /// How the rollout ended.
    pub outcome: &'static str,
    /// Final `version:count` census, `|`-joined.
    pub versions: String,
    /// Fleet-wide windowed p99 over the final lookback, seconds.
    pub fleet_p99_s: f64,
    /// Prometheus text exposition captured at the end of the run.
    pub prom: String,
}

fn fleet_spec() -> FleetSpec {
    let mut spec = scenario::fleet_spec(REPLICAS);
    spec.dispatcher.policy = Policy::RoundRobin;
    spec.dispatcher.max_in_flight = 1024;
    // canary pin shifts ride the affinity plane
    spec.dispatcher.affinity = Some(AffinityConfig::default());
    spec.base.config.cache_grid_sessions = true;
    spec
}

/// Four rows, one per upgrade strategy.
pub struct Rollout;

impl Scenario for Rollout {
    type Row = RolloutMode;
    type Point = RolloutPoint;
    const NAME: &'static str = "rollout";
    const ROWS: &'static [RolloutMode] = &[
        RolloutMode::Restart,
        RolloutMode::Rolling,
        RolloutMode::CanaryPromote,
        RolloutMode::CanaryRollback,
    ];
    const COLUMNS: &'static str =
        "mode,issued,completed,dropped,failed,replaced,rollbacks,outcome,versions,fleet_p99_s";

    /// Run one row under the pinned [`LEMON_SEED`] (only the rollback row
    /// arms the lemon), asserting the outcome the row exists to
    /// demonstrate.
    fn run(&mode: &RolloutMode) -> RolloutPoint {
        let mut sim = Sim::new(SEED);
        let lasting = Duration::from_millis(200);
        let fleet = scenario::boot(&mut sim, fleet_spec(), lasting, 16.0 * KB);
        let plane = HealthPlane::new(health_config());
        fleet.dispatcher().set_health_plane(Rc::clone(&plane));
        let until = sim.now() + horizon();
        let monkey = (mode == RolloutMode::CanaryRollback).then(|| {
            ChaosMonkey::unleash(
                &mut sim,
                &fleet,
                &FaultPlan::new(LEMON_SEED).slow_at(lemon_offset(), SLOW_FACTOR),
            )
        });
        let cfg = match mode {
            RolloutMode::Restart => RolloutConfig::restart(TO_VERSION),
            RolloutMode::Rolling => RolloutConfig {
                min_healthy: 2,
                ..RolloutConfig::rolling(TO_VERSION)
            },
            RolloutMode::CanaryPromote | RolloutMode::CanaryRollback => RolloutConfig {
                strategy: RolloutStrategy::Canary(canary_config()),
                min_healthy: 2,
                ..RolloutConfig::rolling(TO_VERSION)
            },
        };
        let ctl: Rc<RefCell<Option<Rc<RolloutController>>>> = Rc::new(RefCell::new(None));
        let (f2, c2) = (Rc::clone(&fleet), Rc::clone(&ctl));
        sim.schedule(roll_offset(), move |sim| {
            *c2.borrow_mut() = Some(RolloutController::start(sim, &f2, cfg));
        });
        let paced = scenario::pace(&mut sim, &fleet, arrival_gap(), until, |_, n| {
            scenario::tenant_of_three(n)
        });
        sim.run_until(until);
        // the final-lookback p99 and the exposition, read before the drain
        let fleet_p99_s = plane.fleet_p99(sim.now()).unwrap_or(-1.0);
        let prom = plane.prometheus_text(sim.now());
        sim.run(); // drain everything still in flight
        if let Some(m) = &monkey {
            assert_eq!(m.slowed(), 1, "the pinned lemon strike landed");
        }
        let ctl = ctl.borrow().clone().expect("rollout started");
        let c = fleet.dispatcher().counters();
        let (issued, ok) = (paced.issued.get(), paced.ok.get());
        assert_eq!(c.accepted + c.shed, issued, "door ledger");
        assert_eq!(
            ok + paced.bad.get(),
            c.accepted + c.shed,
            "every request answered"
        );
        assert_eq!(fleet.dispatcher().in_flight(), 0, "drained");
        let versions = fleet
            .version_counts()
            .into_iter()
            .map(|(v, n)| format!("{v}:{n}"))
            .collect::<Vec<_>>()
            .join("|");
        let p = RolloutPoint {
            mode,
            issued,
            completed: ok,
            dropped: issued - ok,
            failed: c.faulted,
            replaced: ctl.replaced(),
            rollbacks: ctl.rollbacks(),
            outcome: match ctl.outcome() {
                None => "pending",
                Some(RolloutOutcome::Completed) => "completed",
                Some(RolloutOutcome::Promoted) => "promoted",
                Some(RolloutOutcome::RolledBack) => "rolled-back",
            },
            versions,
            fleet_p99_s,
            prom,
        };
        let want = match mode {
            RolloutMode::Restart | RolloutMode::Rolling => "completed",
            RolloutMode::CanaryPromote => "promoted",
            RolloutMode::CanaryRollback => "rolled-back",
        };
        assert_eq!(p.outcome, want, "{} rollout outcome", p.mode.label());
        if mode == RolloutMode::CanaryRollback {
            assert_eq!(p.rollbacks, 1, "exactly one rollback");
        }
        p
    }

    fn cells(p: &RolloutPoint) -> Vec<String> {
        vec![
            p.mode.label().to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.dropped.to_string(),
            p.failed.to_string(),
            p.replaced.to_string(),
            p.rollbacks.to_string(),
            p.outcome.to_string(),
            p.versions.clone(),
            format!("{:.4}", p.fleet_p99_s),
        ]
    }

    /// The promoted canary's exposition.
    fn snapshots(points: &[RolloutPoint]) -> Vec<(&'static str, String)> {
        let promote = points
            .iter()
            .find(|p| p.mode == RolloutMode::CanaryPromote)
            .expect("promote row");
        vec![("rollout.prom", promote.prom.clone())]
    }

    fn summary(points: &[RolloutPoint]) -> String {
        let row = |m: RolloutMode| points.iter().find(|p| p.mode == m).expect("row");
        let (restart, rolling) = (row(RolloutMode::Restart), row(RolloutMode::Rolling));
        format!(
            "restart drops {} of {} requests; rolling drops {} — same seed, same schedule",
            restart.dropped, restart.issued, rolling.dropped
        )
    }

    /// The zero-downtime contract, row by row: the naive restart drops
    /// work, rolling and canary drop nothing, the promoted canary
    /// completes the version shift, and the lemon-struck canary rolls
    /// back exactly once with the fleet p99 recovered.
    fn check(points: &[RolloutPoint]) {
        let row = |m: RolloutMode| points.iter().find(|p| p.mode == m).expect("row");
        let restart = row(RolloutMode::Restart);
        let rolling = row(RolloutMode::Rolling);
        let promote = row(RolloutMode::CanaryPromote);
        let rollback = row(RolloutMode::CanaryRollback);
        for p in points {
            assert_eq!(
                p.issued, restart.issued,
                "same seed must offer the same load"
            );
            assert_eq!(
                p.completed + p.dropped,
                p.issued,
                "conservation: every request settles"
            );
        }
        // the naive baseline loses real work: in-flight requests fault at
        // the kill and arrivals during the boot window are refused
        assert!(restart.dropped > 0, "restart must drop work");
        assert!(restart.failed > 0, "restart must fault what was in flight");
        // rolling drops nothing — retirement drains, boots precede retires
        assert_eq!(rolling.dropped, 0, "rolling drops nothing");
        assert_eq!(rolling.failed, 0, "rolling faults nothing");
        assert_eq!(rolling.replaced, 3, "rolling replaces every v1 replica");
        assert_eq!(
            rolling.versions,
            format!("{TO_VERSION}:3"),
            "rolling lands on v2"
        );
        // the healthy canary is promoted and the version shift completes
        assert_eq!(promote.dropped, 0, "canary promotion drops nothing");
        assert_eq!(promote.outcome, "promoted");
        assert_eq!(
            promote.versions,
            format!("{TO_VERSION}:3"),
            "promotion lands on v2"
        );
        // the lemon-struck canary rolls back exactly once, the fleet stays
        // on v1, and the final-window p99 is back at the rolling baseline
        assert_eq!(rollback.rollbacks, 1, "exactly one rollback");
        assert_eq!(rollback.outcome, "rolled-back");
        assert_eq!(
            rollback.versions, "1:3",
            "rollback reverts the census to v1"
        );
        assert_eq!(rollback.dropped, 0, "the drained canary loses nothing");
        assert!(
            rollback.fleet_p99_s > 0.0 && rollback.fleet_p99_s <= 1.5 * rolling.fleet_p99_s,
            "fleet p99 must recover after the rollback ({} s vs rolling {} s)",
            rollback.fleet_p99_s,
            rolling.fleet_p99_s
        );
        // the promoted fleet's exposition carries the new version label and
        // satisfies the strict parser
        scenario::check_exposition(&promote.prom);
        assert!(
            promote
                .prom
                .contains(&format!(r#"version="v{TO_VERSION}""#)),
            "per-replica series must carry the promoted version label"
        );
    }
}
