//! The session-affinity experiment: credential work and latency with
//! sticky routing on vs off.
//!
//! A four-replica fleet hosts one service per tenant, each published under
//! its own grid identity, with the per-replica session cache enabled. A
//! closed-loop population invokes the services carrying the owning tenant
//! as the request principal:
//!
//! * affinity **off** — round-robin scatters every tenant over all four
//!   replicas, so each replica ends up authenticating each tenant once:
//!   ~`tenants × replicas` MyProxy exchanges, and the tail of first-touch
//!   requests pays the credential latency.
//! * affinity **on** — each tenant is pinned to one replica on first
//!   sight, so the fleet authenticates each tenant exactly once and every
//!   later request rides that replica's cached session.
//!
//! The golden test pins the gap: fewer `agent.authenticate` spans and a
//! lower mean latency for the affinity row, same seed, byte-identical CSV.
//!
//! [`Affinity`] declares the experiment for the bench harness
//! ([`crate::scenario`]); the `affinity` binary and the golden test both
//! run that one declaration.

use fleet::{start_open_loop, AffinityConfig, ArrivalProcess, Fleet, FleetSpec, Mix, Policy};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Sim, KB};

use crate::scenario::{self, on_off, Scenario};

/// Seed shared by both rows — arrivals and think times must be identical
/// so sticky routing is the only variable.
pub const SEED: u64 = 0xaff1;

/// Distinct grid identities, one service each.
pub const TENANTS: usize = 24;

/// Open-loop offered load, requests/second. Low enough that the replicas
/// rarely queue — the rows then differ by credential work, not contention.
pub const OFFERED_RPS: f64 = 0.6;

/// Replicas behind the dispatcher.
pub const REPLICAS: usize = 4;

/// Measurement window after boot and provisioning.
pub fn horizon() -> Duration {
    Duration::from_secs(600)
}

/// One measured row.
pub struct AffinityPoint {
    /// Whether sticky routing was enabled.
    pub affinity: bool,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// `agent.authenticate` spans across the whole fleet — the credential
    /// exchanges the run actually paid for.
    pub auth_spans: u64,
    /// Cached-session reuses across all replicas.
    pub session_hits: u64,
    /// Requests routed to their pinned replica.
    pub affinity_hits: u64,
    /// First-sight pins (base-policy picks).
    pub affinity_misses: u64,
    /// Mean request latency, seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_latency_s: f64,
}

fn fleet_spec(affinity: bool) -> FleetSpec {
    let mut spec = scenario::fleet_spec(REPLICAS);
    spec.dispatcher.policy = Policy::RoundRobin;
    spec.dispatcher.max_in_flight = 256;
    spec.dispatcher.affinity = affinity.then(AffinityConfig::default);
    // both rows cache sessions and staged executables — affinity decides
    // how often a request lands where the session and the staging already
    // are, instead of paying the first-touch cost on another replica
    spec.base.config.cache_grid_sessions = true;
    spec.base.config.reuse_staged_files = true;
    spec
}

/// Two rows, sticky routing on and off.
pub struct Affinity;

impl Scenario for Affinity {
    type Row = bool;
    type Point = AffinityPoint;
    const NAME: &'static str = "affinity";
    const ROWS: &'static [bool] = &[true, false];
    const COLUMNS: &'static str =
        "affinity,issued,completed,faulted,auth_spans,session_hits,affinity_hits,affinity_misses,mean_latency_s,p95_latency_s";

    /// Boot, publish one service per tenant, offer the same Poisson
    /// arrival schedule with the owning tenant as each request's
    /// principal.
    fn run(&affinity: &bool) -> AffinityPoint {
        let mut sim = Sim::new(SEED);
        sim.enable_telemetry();
        let fleet = Fleet::new(&mut sim, fleet_spec(affinity));
        sim.run(); // cold-start the replicas
        let names: Vec<(String, String)> = (0..TENANTS)
            .map(|i| (format!("app{i}"), format!("user{i}")))
            .collect();
        for (app, user) in &names {
            fleet.publish_as(
                &mut sim,
                &format!("{app}.exe"),
                64 * 1024,
                ExecutionProfile::quick()
                    .lasting(Duration::from_secs(1))
                    .producing(16.0 * KB),
                Some((user, "pw")),
                |_| {},
            );
        }
        sim.run();
        let until = sim.now() + horizon();
        let targets: Vec<(&str, &str)> = names
            .iter()
            .map(|(app, user)| (app.as_str(), user.as_str()))
            .collect();
        let stats = start_open_loop(
            &mut sim,
            ArrivalProcess::Poisson { rate: OFFERED_RPS },
            Mix::invoke_as(&targets),
            scenario::sink(&fleet),
            until,
        );
        sim.run(); // drain every outstanding request
        let c = fleet.dispatcher().counters();
        assert_eq!(
            c.accepted,
            c.completed + c.faulted,
            "request conservation violated"
        );
        let t = sim.telemetry().expect("telemetry on");
        AffinityPoint {
            affinity,
            issued: stats.issued(),
            completed: stats.completed(),
            faulted: stats.faulted(),
            auth_spans: t.spans_named("agent.authenticate").len() as u64,
            session_hits: t.counter("onserve.session_cache_hit"),
            affinity_hits: c.affinity_hits,
            affinity_misses: c.affinity_misses,
            mean_latency_s: stats.latency_mean(),
            p95_latency_s: stats.latency_percentile(95.0),
        }
    }

    fn cells(p: &AffinityPoint) -> Vec<String> {
        vec![
            on_off(p.affinity),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.auth_spans.to_string(),
            p.session_hits.to_string(),
            p.affinity_hits.to_string(),
            p.affinity_misses.to_string(),
            format!("{:.4}", p.mean_latency_s),
            format!("{:.4}", p.p95_latency_s),
        ]
    }

    fn summary(points: &[AffinityPoint]) -> String {
        let on = points.iter().find(|p| p.affinity).expect("affinity-on row");
        let off = points
            .iter()
            .find(|p| !p.affinity)
            .expect("affinity-off row");
        format!(
            "sticky routing avoids {} credential exchanges ({} vs {}) and cuts mean latency {:.1}%",
            off.auth_spans - on.auth_spans,
            on.auth_spans,
            off.auth_spans,
            100.0 * (1.0 - on.mean_latency_s / off.mean_latency_s),
        )
    }

    /// Sticky routing cuts credential exchanges and mean latency at equal
    /// offered load.
    fn check(points: &[AffinityPoint]) {
        let row = |on: bool| points.iter().find(|p| p.affinity == on).expect("row");
        let (on, off) = (row(true), row(false));
        assert_eq!(on.issued, off.issued, "same seed must offer the same load");
        assert!(
            on.auth_spans < off.auth_spans,
            "affinity must avoid credential exchanges ({} vs {})",
            on.auth_spans,
            off.auth_spans
        );
        assert_eq!(
            on.auth_spans, TENANTS as u64,
            "sticky fleet authenticates each tenant exactly once"
        );
        assert!(
            on.mean_latency_s < off.mean_latency_s,
            "affinity must lower mean latency ({} vs {})",
            on.mean_latency_s,
            off.mean_latency_s
        );
        assert!(on.affinity_hits > 0 && off.affinity_hits == 0);
        assert_eq!(on.faulted + off.faulted, 0, "no faults in a quiet fleet");
    }
}
