//! The million-principal scale experiment: a fleet day at population
//! scale, driven end to end through the timer-wheel kernel.
//!
//! The ROADMAP's north star is "millions of users"; the paper's §VIII
//! discussion targets production grids serving large populations. This
//! experiment is the repo's proof that the simulation kernel now carries
//! that scale: an eight-replica fleet behind the sticky dispatcher serves
//! two simulated days of open-loop diurnal traffic whose requests carry
//! principals drawn uniformly from a two-million-user population —
//! ≥ 1M *distinct* principals at full scale, on the order of 10⁸ kernel
//! events.
//!
//! The principal here is purely the dispatcher's session-affinity routing
//! key (services authenticate as their owner, not the caller), so the
//! population costs no per-user grid enrolment — which is exactly how the
//! fleet tier's sticky routing is meant to absorb a large user base.
//!
//! Everything reported in the CSV is virtual-time state — counts and
//! latencies — so a same-seed double run is byte-identical; wall-clock
//! throughput (the kernel events/second the host actually sustained) is
//! returned separately and asserted against a floor by the binary, never
//! written to the golden file.
//!
//! [`MillionUser`] declares the experiment for the bench harness
//! ([`crate::scenario`]): the golden test runs its CI row, and the
//! `millionuser` binary runs either scale through that one declaration.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fleet::{
    start_open_loop, AffinityConfig, ArrivalProcess, FleetSpec, Mix, Policy, Request, SubmitFn,
};
use simkit::{Duration, Sim, KB};

use crate::scenario::{self, Scenario};

/// Seed for the whole run — boot, arrivals, and principal draws.
pub const SEED: u64 = 0x1_000_000;

/// Replicas behind the dispatcher.
pub const REPLICAS: usize = 8;

/// Session-affinity pin-table capacity. Far below the population on
/// purpose: at million-principal scale the LRU *must* churn, and the run
/// proves routing stays cheap while it does.
pub const AFFINITY_CAPACITY: usize = 1 << 16;

/// One scale of the experiment: the full million-principal day, or the
/// CI-sized shrink of the same shape.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Row label in the CSV.
    pub label: &'static str,
    /// Principal population the requests draw from, uniformly.
    pub population: u64,
    /// Trough of the diurnal arrival curve, requests/second.
    pub base_rps: f64,
    /// Crest of the diurnal arrival curve, requests/second.
    pub peak_rps: f64,
    /// Diurnal period (a simulated "day").
    pub period_secs: u64,
    /// Measurement horizon — a whole number of diurnal cycles.
    pub horizon_secs: u64,
}

/// The full experiment: two simulated days at a 24 req/s mean against a
/// 2M-user population. Expected yield: ~4.1M requests, ~1.75M distinct
/// principals (2M × (1 − e^(−n/p)) for n ≈ 4.1M draws), on the order of
/// 10⁸ kernel events.
pub const FULL: Scale = Scale {
    label: "full",
    population: 2_000_000,
    base_rps: 8.0,
    peak_rps: 40.0,
    period_secs: 86_400,
    horizon_secs: 2 * 86_400,
};

/// The same shape shrunk for CI: ~0.5% of the requests against 1% of
/// the population (~10⁶ kernel events), one full (compressed) cycle.
pub const CI: Scale = Scale {
    label: "ci",
    population: 20_000,
    base_rps: 8.0,
    peak_rps: 40.0,
    period_secs: 864,
    horizon_secs: 864,
};

/// One measured row.
pub struct MillionUserPoint {
    /// Which scale produced the row.
    pub label: &'static str,
    /// Principal population requests drew from.
    pub population: u64,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// Distinct principals observed at the front door.
    pub distinct_principals: u64,
    /// Kernel events executed over the whole run (boot included).
    pub events: u64,
    /// Requests routed to their pinned replica.
    pub affinity_hits: u64,
    /// First-sight pins (base-policy picks).
    pub affinity_misses: u64,
    /// Mean request latency, seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_latency_s: f64,
    /// Host-side kernel throughput of the measured window; never a cell.
    pub host: HostThroughput,
}

/// Wall-clock kernel throughput of one run — never part of the CSV.
pub struct HostThroughput {
    /// Kernel events per host second over the measured window.
    pub events_per_sec: f64,
    /// Host seconds the window took.
    pub wall_secs: f64,
}

/// Tracks which members of a `u{k}` population have been seen, as a flat
/// bitmap — 2M principals cost 250 KB, and observing one is two loads.
struct DistinctPrincipals {
    bits: RefCell<Vec<u64>>,
    count: Cell<u64>,
}

impl DistinctPrincipals {
    fn new(population: u64) -> DistinctPrincipals {
        DistinctPrincipals {
            bits: RefCell::new(vec![0u64; population.div_ceil(64) as usize]),
            count: Cell::new(0),
        }
    }

    fn observe(&self, principal: &str) {
        let Some(k) = principal
            .strip_prefix('u')
            .and_then(|s| s.parse::<u64>().ok())
        else {
            return;
        };
        let mut bits = self.bits.borrow_mut();
        let (word, bit) = ((k / 64) as usize, k % 64);
        if bits[word] & (1 << bit) == 0 {
            bits[word] |= 1 << bit;
            self.count.set(self.count.get() + 1);
        }
    }
}

fn fleet_spec() -> FleetSpec {
    let mut spec = scenario::fleet_spec(REPLICAS);
    spec.dispatcher.policy = Policy::RoundRobin;
    spec.dispatcher.max_in_flight = 4096;
    spec.dispatcher.affinity = Some(AffinityConfig {
        capacity: AFFINITY_CAPACITY,
    });
    spec.base.config.cache_grid_sessions = true;
    spec.base.config.reuse_staged_files = true;
    spec
}

/// One row per scale: the CI shrink by default, the full day when the
/// binary asks for it. The CSV holds virtual-time state only, so
/// same-seed runs are byte-identical.
pub struct MillionUser;

impl Scenario for MillionUser {
    type Row = Scale;
    type Point = MillionUserPoint;
    const NAME: &'static str = "millionuser";
    const ROWS: &'static [Scale] = &[CI];
    const COLUMNS: &'static str =
        "scale,population,issued,completed,faulted,distinct_principals,events,affinity_hits,affinity_misses,mean_latency_s,p95_latency_s";

    /// Boot the fleet, publish one service, offer the scale's diurnal
    /// population-keyed traffic, and drain, timing the measured window on
    /// the host.
    fn run(&scale: &Scale) -> MillionUserPoint {
        let mut sim = Sim::new(SEED);
        let lasting = Duration::from_millis(500);
        let fleet = scenario::boot(&mut sim, fleet_spec(), lasting, 16.0 * KB);

        let until = sim.now() + Duration::from_secs(scale.horizon_secs);
        let distinct = Rc::new(DistinctPrincipals::new(scale.population));
        let dispatch = scenario::sink(&fleet);
        let d2 = Rc::clone(&distinct);
        let sink: Rc<SubmitFn> = Rc::new(move |sim, req, done| {
            if let Request::Invoke {
                principal: Some(p), ..
            } = &req
            {
                d2.observe(p);
            }
            dispatch(sim, req, done)
        });
        let stats = start_open_loop(
            &mut sim,
            ArrivalProcess::Diurnal {
                base_rate: scale.base_rps,
                peak_rate: scale.peak_rps,
                period: Duration::from_secs(scale.period_secs),
            },
            Mix::invoke_population(&["app"], scale.population),
            sink,
            until,
        );

        let events_before = sim.events_executed();
        let t0 = std::time::Instant::now();
        sim.run(); // the measured window: the diurnal cycles plus drain
        let wall_secs = t0.elapsed().as_secs_f64();
        let events = sim.events_executed();

        let c = fleet.dispatcher().counters();
        assert_eq!(
            c.accepted,
            c.completed + c.faulted,
            "request conservation violated"
        );
        MillionUserPoint {
            label: scale.label,
            population: scale.population,
            issued: stats.issued(),
            completed: stats.completed(),
            faulted: stats.faulted(),
            distinct_principals: distinct.count.get(),
            events,
            affinity_hits: c.affinity_hits,
            affinity_misses: c.affinity_misses,
            mean_latency_s: stats.latency_mean(),
            p95_latency_s: stats.latency_percentile(95.0),
            host: HostThroughput {
                events_per_sec: (events - events_before) as f64 / wall_secs.max(1e-9),
                wall_secs,
            },
        }
    }

    fn cells(p: &MillionUserPoint) -> Vec<String> {
        vec![
            p.label.to_string(),
            p.population.to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.distinct_principals.to_string(),
            p.events.to_string(),
            p.affinity_hits.to_string(),
            p.affinity_misses.to_string(),
            format!("{:.4}", p.mean_latency_s),
            format!("{:.4}", p.p95_latency_s),
        ]
    }

    fn summary(points: &[MillionUserPoint]) -> String {
        let line = |p: &MillionUserPoint| {
            format!(
                "issued {} (completed {}, faulted {}) from {} distinct principals\n\
                 affinity: {} sticky hits, {} pins (pin table capacity {})\n\
                 latency: mean {:.3} s, p95 {:.3} s\n\
                 kernel: {} events in {:.1} s wall — {:.2}M events/sec",
                p.issued,
                p.completed,
                p.faulted,
                p.distinct_principals,
                p.affinity_hits,
                p.affinity_misses,
                AFFINITY_CAPACITY,
                p.mean_latency_s,
                p.p95_latency_s,
                p.events,
                p.host.wall_secs,
                p.host.events_per_sec / 1e6
            )
        };
        points.iter().map(line).collect::<Vec<_>>().join("\n")
    }

    /// The shape the CI shrink shares with the full run: a churning pin
    /// table (population ≫ capacity is only true at full scale, but even
    /// here every distinct principal pins once), conservation at the front
    /// door, and a population actually sampled broadly.
    fn check(points: &[MillionUserPoint]) {
        let point = &points[0];
        assert_eq!(
            point.issued,
            point.completed + point.faulted,
            "every issued request must settle"
        );
        assert_eq!(point.faulted, 0, "no faults in a quiet fleet");
        assert_eq!(
            point.affinity_misses, point.distinct_principals,
            "each distinct principal pins exactly once below pin-table capacity"
        );
        assert!(
            point.affinity_hits > 0,
            "repeat principals must ride their pins"
        );
        // With n draws from a population p, distinct ≈ p(1 − e^(−n/p)); at the
        // CI scale that is well over half the population.
        assert!(
            point.distinct_principals * 2 > point.population,
            "CI run must sample most of its population ({} of {})",
            point.distinct_principals,
            point.population
        );
        assert!(
            point.events > 500_000,
            "CI run must be kernel-heavy, saw {} events",
            point.events
        );
    }
}
