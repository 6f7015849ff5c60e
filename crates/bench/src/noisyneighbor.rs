//! The noisy-neighbor experiment: per-tenant QoS at the front door
//! under a single flooding tenant.
//!
//! A four-replica fleet serves 23 well-behaved tenants offering a light
//! aggregate load, plus one flooding tenant offering more than the whole
//! fleet's capacity. Three rows, same seed — the behaved arrival stream
//! is forked first so it is byte-identical whether or not the flood runs:
//!
//! * **base** — no flood: the behaved tenants' no-contention baseline.
//! * **off** — flood on, QoS off: the flooder grabs the entire global
//!   admission window, every admitted behaved request sits behind
//!   hundreds of flood requests, and behaved p99 collapses.
//! * **on** — flood on, QoS on: the behaved tenants are registered gold;
//!   the flooder arrives unregistered and rides the batch tier, so its
//!   admission quota is a sliver of the window, its backlog waits in its
//!   own bounded door queue (overflow shed, counted per tenant), and the
//!   behaved tenants' p99 holds at the baseline while the flooder's
//!   degrades.
//!
//! The golden test pins the fairness claim: `on` behaved p99 within 1.2×
//! of `base`, `off` behaved p99 at least 5× worse, flooder p99 under QoS
//! at least 5× the behaved p99 — same seed, byte-identical CSV and
//! Prometheus exposition (`tenant="..."` labels appear only in the QoS
//! row).
//!
//! [`NoisyNeighbor`] declares the experiment for the bench harness
//! ([`crate::scenario`]); the `noisyneighbor` binary and the golden test
//! both run that one declaration.

use std::rc::Rc;

use fleet::{
    start_open_loop, ArrivalProcess, FleetSpec, HealthConfig, HealthPlane, Mix, Policy, QosConfig,
    QosTier,
};
use simkit::{Duration, Sim, KB};

use crate::scenario::{self, Scenario};

/// Seed shared by all rows.
pub const SEED: u64 = 0x9019;

/// Well-behaved tenants (`user1` .. `user23`), registered gold under QoS.
pub const BEHAVED_TENANTS: usize = 23;

/// Aggregate behaved offered load, requests/second — far below capacity.
pub const BEHAVED_RPS: f64 = 0.4;

/// The flooding tenant's offered load, requests/second — alone above the
/// whole fleet's ~3.8 req/s capacity.
pub const FLOOD_RPS: f64 = 6.0;

/// The flooding tenant's principal. Deliberately *not* in the QoS tier
/// map: unknown tenants ride the configured default tier.
pub const FLOOD_TENANT: &str = "flood";

/// Replicas behind the dispatcher.
pub const REPLICAS: usize = 4;

/// Global admission window. Large enough that, QoS off, the flooder's
/// backlog queues deep inside the replicas instead of shedding at the
/// door — the collapse the QoS row prevents.
pub const MAX_IN_FLIGHT: usize = 320;

/// Per-tenant door-queue bound under QoS.
pub const QUEUE_DEPTH: usize = 64;

/// Measurement window after boot and provisioning.
pub fn horizon() -> Duration {
    Duration::from_secs(600)
}

/// The three experiment rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Behaved tenants only — the no-flood baseline.
    Base,
    /// Flood on, QoS off: one global window, first come first served.
    QosOff,
    /// Flood on, QoS on: quotas + weighted fair queueing.
    QosOn,
}

impl Mode {
    /// The CSV row label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Base => "base",
            Mode::QosOff => "off",
            Mode::QosOn => "on",
        }
    }
}

/// One measured row.
pub struct NoisyPoint {
    /// Which row this is.
    pub mode: Mode,
    /// Behaved requests issued (identical across rows by construction).
    pub behaved_issued: u64,
    /// Behaved requests answered successfully.
    pub behaved_ok: u64,
    /// Behaved requests answered with a fault (sheds included).
    pub behaved_shed: u64,
    /// Behaved p99 latency across all 23 tenants, seconds.
    pub behaved_p99_s: f64,
    /// The worst single behaved tenant's p99, seconds.
    pub worst_p99_s: f64,
    /// Flood requests issued (0 in the base row).
    pub flood_issued: u64,
    /// Flood requests answered successfully.
    pub flood_ok: u64,
    /// Flood requests answered with a fault (sheds included).
    pub flood_shed: u64,
    /// Flooder p99 latency, seconds (0 in the base row).
    pub flood_p99_s: f64,
    /// Requests that transited a QoS door queue.
    pub door_queued: u64,
    /// Requests shed by the QoS stage (queue overflow / dead fleet).
    pub door_shed: u64,
    /// Prometheus text exposition captured at the end of the run.
    pub prom: String,
}

fn fleet_spec() -> FleetSpec {
    let mut spec = scenario::fleet_spec(REPLICAS);
    spec.dispatcher.policy = Policy::RoundRobin;
    spec.dispatcher.max_in_flight = MAX_IN_FLIGHT;
    spec
}

/// The QoS plane the `on` row runs: behaved tenants registered gold,
/// unknown tenants (the flooder) defaulted to batch, no borrowing — the
/// flooder's quota is `max(1, 320·1/93) = 3` admission slots.
pub fn qos_config() -> QosConfig {
    QosConfig {
        default_tier: QosTier::Batch,
        tiers: (1..=BEHAVED_TENANTS)
            .map(|i| (format!("user{i}"), QosTier::Gold))
            .collect(),
        queue_depth: QUEUE_DEPTH,
        borrow: 0,
    }
}

/// Three rows: no flood, flood with QoS off, flood with QoS on.
pub struct NoisyNeighbor;

impl Scenario for NoisyNeighbor {
    type Row = Mode;
    type Point = NoisyPoint;
    const NAME: &'static str = "noisyneighbor";
    const ROWS: &'static [Mode] = &[Mode::Base, Mode::QosOff, Mode::QosOn];
    const COLUMNS: &'static str =
        "mode,behaved_issued,behaved_ok,behaved_shed,behaved_p99_s,worst_p99_s,flood_issued,flood_ok,flood_shed,flood_p99_s,door_queued,door_shed";

    /// Boot, publish, offer the behaved stream (plus the flood in
    /// non-base rows) and read the tenant-sliced stats at the end.
    fn run(&mode: &Mode) -> NoisyPoint {
        let mut sim = Sim::new(SEED);
        sim.enable_telemetry();
        let fleet = scenario::boot(&mut sim, fleet_spec(), Duration::from_secs(2), 16.0 * KB);
        let plane = HealthPlane::new(HealthConfig::default());
        fleet.dispatcher().set_health_plane(Rc::clone(&plane));
        if mode == Mode::QosOn {
            fleet.dispatcher().set_qos(qos_config());
        }
        let until = sim.now() + horizon();
        // the behaved generator forks its rng stream FIRST, so its arrival
        // schedule is bit-identical whether or not the flood starts
        let behaved_targets: Vec<(String, String)> = (1..=BEHAVED_TENANTS)
            .map(|i| ("app".to_owned(), format!("user{i}")))
            .collect();
        let behaved_refs: Vec<(&str, &str)> = behaved_targets
            .iter()
            .map(|(s, p)| (s.as_str(), p.as_str()))
            .collect();
        let behaved = start_open_loop(
            &mut sim,
            ArrivalProcess::Poisson { rate: BEHAVED_RPS },
            Mix::invoke_as(&behaved_refs),
            scenario::sink(&fleet),
            until,
        );
        behaved.track_tenants();
        let flood = (mode != Mode::Base).then(|| {
            start_open_loop(
                &mut sim,
                ArrivalProcess::Poisson { rate: FLOOD_RPS },
                Mix::invoke_as(&[("app", FLOOD_TENANT)]),
                scenario::sink(&fleet),
                until,
            )
        });
        sim.run(); // drain every outstanding request
        let end = sim.now();
        // conservation: the generators' ledgers close, and so does the door's
        assert_eq!(behaved.issued(), behaved.completed() + behaved.faulted());
        if let Some(f) = &flood {
            assert_eq!(f.issued(), f.completed() + f.faulted());
        }
        let c = fleet.dispatcher().counters();
        assert_eq!(c.accepted, c.completed + c.faulted, "outcome ledger");
        let offered = behaved.issued() + flood.as_ref().map_or(0, |f| f.issued());
        assert_eq!(c.accepted + c.shed, offered, "door ledger");
        if mode == Mode::QosOn {
            for (t, s) in fleet.dispatcher().qos_tenants() {
                assert_eq!(
                    s.issued,
                    s.accepted + s.shed,
                    "{t}: per-tenant conservation after drain"
                );
                assert_eq!(s.queued, 0, "{t}: door queue drained");
                assert_eq!(s.in_flight, 0, "{t}: per-tenant in-flight drained");
            }
        }
        let worst_p99_s = behaved
            .tenants()
            .iter()
            .map(|t| behaved.tenant_latency_percentile(t, 99.0))
            .fold(0.0, f64::max);
        let t = sim.telemetry().expect("telemetry on");
        NoisyPoint {
            mode,
            behaved_issued: behaved.issued(),
            behaved_ok: behaved.completed(),
            behaved_shed: behaved.faulted(),
            behaved_p99_s: behaved.latency_percentile(99.0),
            worst_p99_s,
            flood_issued: flood.as_ref().map_or(0, |f| f.issued()),
            flood_ok: flood.as_ref().map_or(0, |f| f.completed()),
            flood_shed: flood.as_ref().map_or(0, |f| f.faulted()),
            flood_p99_s: flood.as_ref().map_or(0.0, |f| f.latency_percentile(99.0)),
            door_queued: t.counter("dispatcher.qos_enqueued"),
            door_shed: t.counter("dispatcher.qos_shed"),
            prom: plane.prometheus_text(end),
        }
    }

    fn cells(p: &NoisyPoint) -> Vec<String> {
        vec![
            p.mode.label().to_string(),
            p.behaved_issued.to_string(),
            p.behaved_ok.to_string(),
            p.behaved_shed.to_string(),
            format!("{:.4}", p.behaved_p99_s),
            format!("{:.4}", p.worst_p99_s),
            p.flood_issued.to_string(),
            p.flood_ok.to_string(),
            p.flood_shed.to_string(),
            format!("{:.4}", p.flood_p99_s),
            p.door_queued.to_string(),
            p.door_shed.to_string(),
        ]
    }

    /// The QoS-on row's tenant-labelled exposition.
    fn snapshots(points: &[NoisyPoint]) -> Vec<(&'static str, String)> {
        let on = points.iter().find(|p| p.mode == Mode::QosOn).expect("on");
        vec![("noisyneighbor.prom", on.prom.clone())]
    }

    fn summary(points: &[NoisyPoint]) -> String {
        let row = |m: Mode| points.iter().find(|p| p.mode == m).expect("row");
        let (base, off, on) = (row(Mode::Base), row(Mode::QosOff), row(Mode::QosOn));
        format!(
            "QoS off lets the flooder inflate behaved p99 {:.1}x over baseline ({:.1} s -> {:.1} s);\n\
             QoS on holds it at {:.2}x baseline ({:.1} s) and pushes the backlog onto the flooder (p99 {:.0} s, {} shed)",
            off.behaved_p99_s / base.behaved_p99_s,
            base.behaved_p99_s,
            off.behaved_p99_s,
            on.behaved_p99_s / base.behaved_p99_s,
            on.behaved_p99_s,
            on.flood_p99_s,
            on.flood_shed
        )
    }

    /// The fairness contract, row by row: with QoS off one flooding
    /// tenant collapses the behaved tenants' p99 (at least 5x the no-flood
    /// baseline); with QoS on the behaved tenants hold within 1.2x of the
    /// baseline while the flooder's own p99 degrades and its backlog
    /// queues and sheds at the door. Tenant labels appear in the
    /// exposition only when the QoS plane is on.
    fn check(points: &[NoisyPoint]) {
        let row = |m: Mode| points.iter().find(|p| p.mode == m).expect("row");
        let (base, off, on) = (row(Mode::Base), row(Mode::QosOff), row(Mode::QosOn));
        for p in points {
            assert_eq!(
                p.behaved_issued, base.behaved_issued,
                "behaved stream is forked first: identical across rows"
            );
            assert_eq!(
                p.behaved_ok + p.behaved_shed,
                p.behaved_issued,
                "conservation: every behaved request settles"
            );
            assert_eq!(
                p.flood_ok + p.flood_shed,
                p.flood_issued,
                "conservation: every flood request settles"
            );
        }
        assert_eq!(base.flood_issued, 0, "no flood in the baseline row");
        assert_eq!(
            off.flood_issued, on.flood_issued,
            "same seed must offer the same flood"
        );
        // QoS off: the flooder fills the global window and the behaved
        // tenants' p99 collapses
        assert!(
            off.behaved_p99_s >= 5.0 * base.behaved_p99_s,
            "without QoS the flood must collapse behaved p99 ({} s vs baseline {} s)",
            off.behaved_p99_s,
            base.behaved_p99_s
        );
        assert_eq!(off.door_queued + off.door_shed, 0, "no QoS stage when off");
        // QoS on: every behaved tenant holds near the baseline — the worst
        // single tenant, not just the aggregate
        assert!(
            on.worst_p99_s <= 1.2 * base.behaved_p99_s,
            "with QoS the worst behaved tenant must stay within 1.2x baseline ({} s vs {} s)",
            on.worst_p99_s,
            base.behaved_p99_s
        );
        assert_eq!(on.behaved_shed, 0, "QoS must not shed behaved work");
        // ... while the flooder pays: degraded latency, door queueing, sheds
        assert!(
            on.flood_p99_s >= 5.0 * on.behaved_p99_s,
            "the flooder's p99 must degrade under QoS ({} s vs behaved {} s)",
            on.flood_p99_s,
            on.behaved_p99_s
        );
        assert!(
            on.door_queued > 0,
            "the flooder's backlog must transit the door queue"
        );
        assert!(on.flood_shed > 0, "the flooder's overflow must shed");
        // the QoS-on exposition carries per-tenant series and satisfies the
        // strict parser; the QoS-off exposition carries none
        scenario::check_exposition(&on.prom);
        assert!(
            on.prom.contains(r#"tenant=""#),
            "QoS-on exposition must carry tenant labels"
        );
        assert!(
            !off.prom.contains(r#"tenant=""#),
            "QoS-off exposition must stay tenant-label free"
        );
    }
}
