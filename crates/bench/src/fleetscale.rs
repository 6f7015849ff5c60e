//! The fleet-scaling experiment: throughput and latency vs replica count
//! under both storage topologies.
//!
//! §VIII-D ends with the observation that a single appliance saturates on
//! I/O and the remedy is more appliances. This sweep quantifies the
//! remedy's fine print: replicas only buy throughput when the executable
//! database replicates with them. Every point boots a [`fleet::Fleet`] of
//! N appliances, publishes one service, then offers the same open-loop
//! Poisson load through the front-end dispatcher and measures completion
//! throughput plus latency percentiles.
//!
//! The scenario is shaped so the contended resources are cheap to
//! simulate: a small (64 KB) executable — the blob store is byte-accurate,
//! so big executables cost real wall-clock time — combined with a fat
//! (2 MB) result over a thin (2 MB/s) per-replica WAN. One replica
//! therefore completes ~1 request/s end to end. Under
//! [`StorageTopology::Shared`] every invocation's database load also
//! queues on one thin NAS, which caps the whole fleet near the same
//! ~1 request/s no matter how many replicas join; under
//! [`StorageTopology::Replicated`] each appliance carries its own store
//! and throughput grows with N until the offered load is absorbed.
//!
//! [`FleetScale`] declares the sweep for the bench harness
//! ([`crate::scenario`]); the `fleetscale` binary and the golden test both
//! run that one declaration.

use fleet::{start_open_loop, ArrivalProcess, FleetSpec, Mix, StorageTopology};
use simkit::{Duration, HostSpec, Sim, KB, MB};

use crate::scenario::{self, Scenario};

/// Open-loop offered load, requests/second.
pub const OFFERED_RPS: f64 = 5.0;

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(120)
}

/// One measured sweep point.
pub struct FleetPoint {
    /// Replica count.
    pub replicas: usize,
    /// Storage topology label (`shared` / `replicated`).
    pub topology: StorageTopology,
    /// Completions per second over the measurement window.
    pub throughput_rps: f64,
    /// Median latency of successful requests, seconds.
    pub p50_s: f64,
    /// 95th percentile latency, seconds.
    pub p95_s: f64,
    /// 99th percentile latency, seconds.
    pub p99_s: f64,
    /// Requests shed at the front door (admission limit).
    pub shed: u64,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Replicas that reached the rotation.
    pub booted: u64,
}

/// The sweep's fleet configuration for one point.
pub fn fleet_spec(topology: StorageTopology, replicas: usize) -> FleetSpec {
    let mut spec = scenario::fleet_spec(replicas);
    spec.topology = topology;
    // thin per-replica WAN: the 2 MB result serializes for ~1 s per
    // request, making one replica good for ~1 request/s
    spec.base.wan_bandwidth_override = Some(2.0 * MB);
    // the shared store is a thin NAS: a 64 KB executable load occupies its
    // write channel for ~1 s, so the whole fleet shares ~1 request/s of
    // database bandwidth
    spec.shared_storage_spec = HostSpec {
        name: "blobstore".into(),
        cpu_cores: 2.0,
        disk_read_bps: 96.0 * KB,
        disk_write_bps: 64.0 * KB,
    };
    spec
}

/// Run one sweep point: boot, provision, offer load, measure. Returns the
/// drained simulator beside the point; the `--trace` path of the binary
/// runs one point with `telemetry` on and exports its span tree.
pub fn run_point(
    topology: StorageTopology,
    replicas: usize,
    seed: u64,
    telemetry: bool,
) -> (Sim, FleetPoint) {
    let mut sim = Sim::new(seed);
    if telemetry {
        sim.enable_telemetry();
    }
    let spec = fleet_spec(topology, replicas);
    let fleet = scenario::boot(&mut sim, spec, Duration::from_secs(2), 2.0 * MB);
    let until = sim.now() + horizon();
    let stats = start_open_loop(
        &mut sim,
        ArrivalProcess::Poisson { rate: OFFERED_RPS },
        Mix::invoke_only(&["app"]),
        scenario::sink(&fleet),
        until,
    );
    sim.run();
    let point = FleetPoint {
        replicas,
        topology,
        throughput_rps: stats.throughput(horizon()),
        p50_s: stats.latency_percentile(50.0),
        p95_s: stats.latency_percentile(95.0),
        p99_s: stats.latency_percentile(99.0),
        shed: fleet.dispatcher().counters().shed,
        issued: stats.issued(),
        booted: fleet.booted_total(),
    };
    (sim, point)
}

/// Both topologies over 1, 2 and 4 replicas, each point with its own
/// fixed seed.
pub struct FleetScale;

impl Scenario for FleetScale {
    type Row = (StorageTopology, usize, u64);
    type Point = FleetPoint;
    const NAME: &'static str = "fleetscale";
    const ROWS: &'static [Self::Row] = &[
        (StorageTopology::Shared, 1, 0xf1ee7),
        (StorageTopology::Shared, 2, 0xf1ee8),
        (StorageTopology::Shared, 4, 0xf1ee9),
        (StorageTopology::Replicated, 1, 0xf1eea),
        (StorageTopology::Replicated, 2, 0xf1eeb),
        (StorageTopology::Replicated, 4, 0xf1eec),
    ];
    const COLUMNS: &'static str =
        "replicas,topology,throughput_rps,p50_s,p95_s,p99_s,shed,issued,booted";

    fn run(&(topology, replicas, seed): &Self::Row) -> FleetPoint {
        run_point(topology, replicas, seed, false).1
    }

    fn cells(p: &FleetPoint) -> Vec<String> {
        vec![
            p.replicas.to_string(),
            p.topology.label().to_string(),
            format!("{:.4}", p.throughput_rps),
            format!("{:.3}", p.p50_s),
            format!("{:.3}", p.p95_s),
            format!("{:.3}", p.p99_s),
            p.shed.to_string(),
            p.issued.to_string(),
            p.booted.to_string(),
        ]
    }

    fn summary(points: &[FleetPoint]) -> String {
        let span = |topology: &str| {
            let tp: Vec<&FleetPoint> = points
                .iter()
                .filter(|p| p.topology.label() == topology)
                .collect();
            let (first, last) = (tp[0], tp[tp.len() - 1]);
            let (a, b) = (first.throughput_rps, last.throughput_rps);
            format!(
                "{}→{} replicas: {a:.2} → {b:.2} req/s ({:.1}x)",
                first.replicas,
                last.replicas,
                b / a
            )
        };
        format!(
            "replicated {}\nshared     {} — the NAS is the fleet",
            span("replicated"),
            span("shared")
        )
    }

    /// Replicas only scale when storage replicates with them.
    fn check(points: &[FleetPoint]) {
        let tp = |topology: &str, replicas: usize| {
            points
                .iter()
                .find(|p| p.topology.label() == topology && p.replicas == replicas)
                .expect("sweep point present")
                .throughput_rps
        };
        assert!(
            tp("replicated", 4) >= 2.0 * tp("replicated", 1),
            "replicated storage must scale ≥2x from 1 to 4 replicas"
        );
        assert!(
            tp("shared", 4) <= 1.3 * tp("shared", 1),
            "shared storage must stay ~flat as replicas are added"
        );
    }
}
