//! The three benchmark workloads, each an open loop in virtual time
//! driven through the fleet's public API.
//!
//! A workload is built in two phases so the host clock can separate
//! them: [`setup`] constructs the fleet, cold-starts its replicas and
//! publishes the services (reported as `setup_s`); [`start`] arms the
//! generators and fault plans at the start of the measured window, after
//! which the caller drains the simulation with `Sim::run` or `Sim::step`.
//! [`finish`] checks the request ledgers and condenses the virtual
//! results into an [`Outcome`] with a digest.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration as HostDuration, Instant};

use fleet::{
    start_open_loop, AffinityConfig, ArrivalProcess, Autoscaler, AutoscalerConfig, ChaosMonkey,
    DispatchCounters, Fleet, FleetSpec, GeoPlane, GrayFailureDetector, HealthConfig, HealthPlane,
    Mix, Policy, QosConfig, QosTier, Request, Responder, RetryConfig, SiteMap, StorageTopology,
    SubmitFn, WorkloadStats,
};
use gridsim::SiteSpec;
use onserve::profile::ExecutionProfile;
use simkit::fault::FaultPlan;
use simkit::{Duration, Sim, SimTime, KB, MB};
use vappliance::ApplianceImage;
use wsstack::{SoapFault, SoapValue};

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The million-principal read path at CI scale: diurnal load over a
    /// churning sticky pin table, 64 KB executable, no optional planes.
    Population,
    /// Multi-tenant front-door stress with every fleet control plane on
    /// and a 64-byte executable, so the blobstore drops out.
    Tenants,
    /// Portal uploads beside invocations that stage on every call.
    Publish,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Population, Workload::Tenants, Workload::Publish];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Population => "population",
            Workload::Tenants => "tenants",
            Workload::Publish => "publish",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Size of the executable behind the invoked services, bytes.
    pub fn exe_len(self) -> usize {
        match self {
            Workload::Population => POPULATION_EXE,
            Workload::Tenants => TENANTS_EXE,
            Workload::Publish => PUBLISH_POOL_EXE,
        }
    }

    /// Size of the executables this workload writes, bytes: the portal
    /// uploads on `publish`, otherwise the published executable itself.
    pub fn insert_len(self) -> usize {
        match self {
            Workload::Publish => PUBLISH_UPLOAD_LEN,
            w => w.exe_len(),
        }
    }

    /// Independent replications pooled into one run's virtual metrics:
    /// enough that the seed-to-seed spread of the latency tail stays
    /// small (`population` peaks near saturation), few enough that a
    /// 30 s run still repeats each replication for a steady host time.
    pub fn replications(self) -> usize {
        match self {
            Workload::Population => 4,
            Workload::Tenants => 2,
            Workload::Publish => 1,
        }
    }

    /// A service name the workload invokes.
    pub fn service(self) -> &'static str {
        match self {
            Workload::Publish => "svc0",
            _ => "app",
        }
    }
}

// -- population: the `millionuser --ci` shape -------------------------------

const POPULATION_REPLICAS: usize = 8;
const POPULATION_PRINCIPALS: u64 = 20_000;
const POPULATION_PIN_CAPACITY: usize = 1 << 16;
const POPULATION_EXE: usize = 64 * 1024;
const POPULATION_BASE_RPS: f64 = 8.0;
const POPULATION_PEAK_RPS: f64 = 40.0;
const POPULATION_PERIOD_S: u64 = 864;

// -- tenants: every control plane on -----------------------------------------
//
// Session affinity stays off here: with it on, the gray-failure strike
// sets off repin-driven ejection cascades whose reach differs from seed to
// seed (p99 43-300 s over six seeds), which no bound could hold. Pins are
// measured on `population`.

const TENANTS_REPLICAS: usize = 4;
const TENANTS_GOLD: usize = 16;
const TENANTS_GOLD_RPS: f64 = 12.0;
const TENANTS_FLOOD_RPS: f64 = 3.0;
const TENANTS_FLOOD: &str = "flood";
const TENANTS_EXE: usize = 64;
const TENANTS_HORIZON_S: u64 = 7200;
const TENANTS_MEAN_CRASH_GAP_S: u64 = 1800;
const TENANTS_SLOW_AT_S: u64 = 600;
const TENANTS_SLOW_FACTOR: f64 = 10.0;
const TENANTS_OUTAGE_AT_S: u64 = 1200;
const TENANTS_OUTAGE_S: u64 = 60;

// -- publish: writes beside reads --------------------------------------------

const PUBLISH_REPLICAS: usize = 4;
const PUBLISH_POOL: usize = 8;
const PUBLISH_POOL_EXE: usize = 16 * 1024;
const PUBLISH_UPLOAD_LEN: usize = 32 * 1024;
const PUBLISH_UPLOAD_FRACTION: f64 = 0.05;
const PUBLISH_RPS: f64 = 6.0;
const PUBLISH_HORIZON_S: u64 = 3600;

/// Seed of the `tenants` fault plan: one fixed crash, gray-failure and
/// outage schedule, so seeds vary the traffic, not the faults.
const FAULT_SEED: u64 = 0xfa17_5eed;

/// The appliance image every replica boots (the fleet benches' image).
fn image() -> ApplianceImage {
    ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    }
}

/// Request ledger kept at the generator side of the dispatcher: counts,
/// per-request latency from the virtual due time, and (when timed) the
/// host time spent inside `Dispatcher::submit`.
#[derive(Default)]
pub struct Ledger {
    issued: Cell<u64>,
    completed: Cell<u64>,
    faulted: Cell<u64>,
    /// Completed-request latencies in completion order, virtual ticks.
    latencies: RefCell<Vec<u64>>,
    submit_ns: RefCell<Vec<u64>>,
}

impl Ledger {
    /// Host nanoseconds of each timed `Dispatcher::submit` call.
    pub fn submit_ns(&self) -> Vec<u64> {
        self.submit_ns.borrow().clone()
    }

    fn record(&self, due: SimTime, now: SimTime, res: &Result<SoapValue, SoapFault>) {
        match res {
            Ok(_) => {
                self.completed.set(self.completed.get() + 1);
                self.latencies.borrow_mut().push(now.since(due).ticks());
            }
            Err(_) => self.faulted.set(self.faulted.get() + 1),
        }
    }
}

/// A built workload: the fleet after set-up, and what `start` armed.
pub struct Prepared {
    /// Which workload this is.
    pub workload: Workload,
    /// The simulator, positioned at the start of the measured window.
    pub sim: Sim,
    /// The fleet under test.
    pub fleet: Rc<Fleet>,
    /// The health plane, where the workload runs one.
    pub health: Option<Rc<HealthPlane>>,
    /// The generator-side request ledger.
    pub ledger: Rc<Ledger>,
    window_start: SimTime,
    horizon: Duration,
    events_before: u64,
    generators: Vec<Rc<WorkloadStats>>,
    monkey: Option<Rc<ChaosMonkey>>,
    detector: Option<Rc<GrayFailureDetector>>,
    scaler: Option<Rc<Autoscaler>>,
}

impl Prepared {
    /// Virtual instant the measured window opened.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// Kernel events executed since the window opened.
    pub fn window_events(&self) -> u64 {
        self.sim.events_executed() - self.events_before
    }
}

/// Build `workload` for `seed` up to the start of its measured window:
/// fleet construction, replica cold start and service publication.
/// `telemetry` turns on `Sim` telemetry before anything is scheduled.
pub fn setup(workload: Workload, seed: u64, telemetry: bool) -> Prepared {
    let mut sim = Sim::new(seed);
    if telemetry {
        sim.enable_telemetry();
    }
    let mut spec = FleetSpec::with_image(image());
    spec.topology = StorageTopology::Replicated;
    spec.dispatcher.policy = Policy::RoundRobin;
    let mut health = None;
    let fleet = match workload {
        Workload::Population => {
            spec.initial_replicas = POPULATION_REPLICAS;
            spec.dispatcher.max_in_flight = 4096;
            spec.dispatcher.affinity = Some(AffinityConfig {
                capacity: POPULATION_PIN_CAPACITY,
            });
            spec.base.config.cache_grid_sessions = true;
            spec.base.config.reuse_staged_files = true;
            let fleet = Fleet::new(&mut sim, spec);
            sim.run();
            let profile = ExecutionProfile::quick()
                .lasting(Duration::from_millis(500))
                .producing(16.0 * KB);
            fleet.publish(&mut sim, "app.exe", POPULATION_EXE, profile, |_| {});
            fleet
        }
        Workload::Tenants => {
            spec.initial_replicas = TENANTS_REPLICAS;
            spec.dispatcher.max_in_flight = 256;
            spec.dispatcher.retry = Some(RetryConfig::default());
            spec.dispatcher.request_timeout = Some(Duration::from_secs(120));
            spec.base.config.cache_grid_sessions = true;
            spec.base.config.reuse_staged_files = true;
            let fleet = Fleet::new(&mut sim, spec);
            let plane = HealthPlane::new(tenants_health());
            fleet.dispatcher().set_health_plane(Rc::clone(&plane));
            let geo = GeoPlane::new(SiteMap::from_specs(&geo_sites()));
            geo.set_payload_bytes(4.0 * KB);
            geo.set_spill_threshold(1);
            geo.set_federation(true);
            fleet.attach_geo(Rc::clone(&geo));
            fleet.dispatcher().set_geo(geo);
            sim.run();
            let profile = ExecutionProfile::quick()
                .lasting(Duration::from_secs(1))
                .producing(4.0 * KB);
            fleet.publish(&mut sim, "app.exe", TENANTS_EXE, profile, |_| {});
            health = Some(plane);
            fleet
        }
        Workload::Publish => {
            spec.initial_replicas = PUBLISH_REPLICAS;
            spec.dispatcher.max_in_flight = 1024;
            spec.base.config.cache_grid_sessions = true;
            spec.base.config.reuse_staged_files = false;
            let fleet = Fleet::new(&mut sim, spec);
            sim.run();
            let profile = ExecutionProfile::quick()
                .lasting(Duration::from_millis(500))
                .producing(16.0 * KB);
            for i in 0..PUBLISH_POOL {
                let name = format!("svc{i}.exe");
                fleet.publish(&mut sim, &name, PUBLISH_POOL_EXE, profile, |_| {});
            }
            fleet
        }
    };
    sim.run();
    let horizon = Duration::from_secs(match workload {
        Workload::Population => POPULATION_PERIOD_S,
        Workload::Tenants => TENANTS_HORIZON_S,
        Workload::Publish => PUBLISH_HORIZON_S,
    });
    Prepared {
        workload,
        window_start: sim.now(),
        events_before: sim.events_executed(),
        sim,
        fleet,
        health,
        ledger: Rc::new(Ledger::default()),
        horizon,
        generators: Vec::new(),
        monkey: None,
        detector: None,
        scaler: None,
    }
}

/// The health plane and detector thresholds `tenants` runs: the
/// gray-failure bench's windows, ejecting after eight strikes, not six.
fn tenants_health() -> HealthConfig {
    HealthConfig {
        window: Duration::from_secs(30),
        ring: 16,
        lookback: Duration::from_secs(240),
        interval: Duration::from_secs(30),
        latency_factor: 3.0,
        min_samples: 2,
        probation_strikes: 2,
        eject_strikes: 8,
        ..HealthConfig::default()
    }
}

/// The geo bench's three sites.
fn geo_sites() -> Vec<SiteSpec> {
    let mut east = SiteSpec::teragrid_like("east", 64, 4);
    east.wan_latency = Duration::from_millis(30);
    east.wan_bandwidth_bps = 100.0 * KB;
    let central = SiteSpec::teragrid_like("central", 64, 4);
    let mut west = SiteSpec::teragrid_like("west", 64, 4);
    west.wan_latency = Duration::from_millis(55);
    west.wan_bandwidth_bps = 70.0 * KB;
    vec![east, central, west]
}

/// The generator sink: records each request in `ledger` (latency from
/// its virtual due time) and hands it to the dispatcher, timing the
/// `Dispatcher::submit` call when `timed`.
fn sink(p: &Prepared, timed: bool) -> Rc<SubmitFn> {
    let dispatcher = Rc::clone(p.fleet.dispatcher());
    let ledger = Rc::clone(&p.ledger);
    Rc::new(move |sim: &mut Sim, req: Request, done: Responder| {
        ledger.issued.set(ledger.issued.get() + 1);
        let due = sim.now();
        let l2 = Rc::clone(&ledger);
        let done: Responder = Box::new(move |sim, res| {
            l2.record(due, sim.now(), &res);
            done(sim, res)
        });
        if timed {
            let t = Instant::now();
            dispatcher.submit(sim, req, done);
            ledger
                .submit_ns
                .borrow_mut()
                .push(t.elapsed().as_nanos() as u64);
        } else {
            dispatcher.submit(sim, req, done);
        }
    })
}

/// Open the measured window: arm the generators (and, on `tenants`, the
/// fault plan and control loops). `timed_submit` wraps the sink with a
/// host timer around `Dispatcher::submit`.
pub fn start(p: &mut Prepared, timed_submit: bool) {
    let sink = sink(p, timed_submit);
    let until = p.window_start + p.horizon;
    let sim = &mut p.sim;
    match p.workload {
        Workload::Population => {
            let arrivals = ArrivalProcess::Diurnal {
                base_rate: POPULATION_BASE_RPS,
                peak_rate: POPULATION_PEAK_RPS,
                period: Duration::from_secs(POPULATION_PERIOD_S),
            };
            let mix = Mix::invoke_population(&["app"], POPULATION_PRINCIPALS);
            p.generators
                .push(start_open_loop(sim, arrivals, mix, sink, until));
        }
        Workload::Tenants => {
            let fleet = &p.fleet;
            let gold: Vec<String> = (1..=TENANTS_GOLD).map(|i| format!("gold{i}")).collect();
            fleet.dispatcher().set_qos(QosConfig {
                default_tier: QosTier::Batch,
                tiers: gold.iter().map(|t| (t.clone(), QosTier::Gold)).collect(),
                queue_depth: 64,
                borrow: 16,
            });
            let plan = FaultPlan::new(FAULT_SEED)
                .poisson_crashes(Duration::from_secs(TENANTS_MEAN_CRASH_GAP_S), p.horizon)
                .slow_at(Duration::from_secs(TENANTS_SLOW_AT_S), TENANTS_SLOW_FACTOR)
                .site_down(
                    Duration::from_secs(TENANTS_OUTAGE_AT_S),
                    Duration::from_secs(TENANTS_OUTAGE_S),
                );
            p.monkey = Some(ChaosMonkey::unleash(sim, fleet, &plan));
            let scaler = Autoscaler::install(
                sim,
                fleet,
                AutoscalerConfig {
                    interval: Duration::from_secs(15),
                    cooldown: Duration::from_secs(60),
                    scale_up_load: f64::INFINITY,
                    scale_down_load: 0.0,
                    min_replicas: TENANTS_REPLICAS,
                    max_replicas: TENANTS_REPLICAS + 2,
                    ..AutoscalerConfig::default()
                },
                until,
            );
            let plane = p.health.as_ref().expect("tenants runs a health plane");
            let detector = GrayFailureDetector::install(sim, fleet, plane, until);
            p.scaler = Some(scaler);
            p.detector = Some(detector);
            let targets: Vec<(&str, &str)> = gold.iter().map(|t| ("app", t.as_str())).collect();
            let behaved = start_open_loop(
                sim,
                ArrivalProcess::Poisson {
                    rate: TENANTS_GOLD_RPS,
                },
                Mix::invoke_as(&targets),
                Rc::clone(&sink),
                until,
            );
            let flood = start_open_loop(
                sim,
                ArrivalProcess::Poisson {
                    rate: TENANTS_FLOOD_RPS,
                },
                Mix::invoke_as(&[("app", TENANTS_FLOOD)]),
                sink,
                until,
            );
            p.generators.extend([behaved, flood]);
        }
        Workload::Publish => {
            let pool: Vec<String> = (0..PUBLISH_POOL).map(|i| format!("svc{i}")).collect();
            let refs: Vec<&str> = pool.iter().map(String::as_str).collect();
            let mut mix = Mix::invoke_only(&refs);
            mix.upload_fraction = PUBLISH_UPLOAD_FRACTION;
            mix.upload_len = PUBLISH_UPLOAD_LEN;
            mix.upload_profile = ExecutionProfile::quick()
                .lasting(Duration::from_millis(500))
                .producing(16.0 * KB);
            let arrivals = ArrivalProcess::Poisson { rate: PUBLISH_RPS };
            p.generators
                .push(start_open_loop(sim, arrivals, mix, sink, until));
        }
    }
}

/// The virtual results of one drained window.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Requests the generators offered.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a fault, door sheds included.
    pub failed: u64,
    /// The dispatcher's ledger.
    pub counters: DispatchCounters,
    /// Kernel events executed in the window (drain included).
    pub events: u64,
    /// Length of the arrival window, virtual seconds.
    pub horizon_s: f64,
    /// Completed-request latencies, ascending, virtual seconds.
    pub sorted_latency_s: Vec<f64>,
    /// FNV-1a digest of every virtual result above, latencies in
    /// completion order.
    pub digest: u64,
}

impl Outcome {
    /// Nearest-rank latency percentile, virtual seconds.
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&self.sorted_latency_s, p)
    }

    /// Completed requests per virtual second of the arrival window.
    pub fn goodput_rps(&self) -> f64 {
        self.completed as f64 / self.horizon_s
    }

    /// Share of offered requests answered successfully.
    pub fn ok_frac(&self) -> f64 {
        self.completed as f64 / self.issued as f64
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Seed of replication `i` of a run seeded `seed`: replication 0 runs
/// the seed itself, the others a splitmix64 step away from it.
pub fn replication_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pool the outcomes of a run's replications: counts and horizons add,
/// latencies merge, and the digest covers every replication's digest.
pub fn pool(parts: &[Outcome]) -> Outcome {
    let mut h = Fnv::default();
    let mut sorted: Vec<f64> = Vec::new();
    let mut c = DispatchCounters::default();
    for o in parts {
        h.u64(o.digest);
        sorted.extend_from_slice(&o.sorted_latency_s);
        let p = &o.counters;
        c.accepted += p.accepted;
        c.completed += p.completed;
        c.faulted += p.faulted;
        c.shed += p.shed;
        c.queued += p.queued;
        c.retried += p.retried;
        c.ejected += p.ejected;
        c.affinity_hits += p.affinity_hits;
        c.affinity_misses += p.affinity_misses;
        c.affinity_repins += p.affinity_repins;
        c.forwarded += p.forwarded;
    }
    sorted.sort_by(f64::total_cmp);
    Outcome {
        issued: parts.iter().map(|o| o.issued).sum(),
        completed: parts.iter().map(|o| o.completed).sum(),
        failed: parts.iter().map(|o| o.failed).sum(),
        counters: c,
        events: parts.iter().map(|o| o.events).sum(),
        horizon_s: parts.iter().map(|o| o.horizon_s).sum(),
        sorted_latency_s: sorted,
        digest: h.0,
    }
}

/// Check the request ledgers of a drained window and condense its
/// virtual results. Any broken conservation law is an error.
pub fn finish(p: &Prepared) -> Result<Outcome, String> {
    if p.sim.pending() != 0 {
        return Err(format!(
            "{} events still pending after drain",
            p.sim.pending()
        ));
    }
    let l = &p.ledger;
    let (issued, completed, failed) = (l.issued.get(), l.completed.get(), l.faulted.get());
    let c = p.fleet.dispatcher().counters();
    let gen_issued: u64 = p.generators.iter().map(|g| g.issued()).sum();
    let gen_completed: u64 = p.generators.iter().map(|g| g.completed()).sum();
    let checks = [
        ("issued = completed + failed", issued, completed + failed),
        ("generators agree on issued", gen_issued, issued),
        ("generators agree on completed", gen_completed, completed),
        (
            "accepted = completed + faulted",
            c.accepted,
            c.completed + c.faulted,
        ),
        ("accepted + shed = offered", c.accepted + c.shed, issued),
        ("door and ledger agree on completed", c.completed, completed),
    ];
    for (law, lhs, rhs) in checks {
        if lhs != rhs {
            return Err(format!(
                "{}: conservation broken: {law} ({lhs} != {rhs})",
                p.workload.name()
            ));
        }
    }
    for (tenant, q) in p.fleet.dispatcher().qos_tenants() {
        if q.issued != q.accepted + q.shed || q.queued != 0 || q.in_flight != 0 {
            return Err(format!(
                "tenant {tenant}: per-tenant ledger open after drain: {q:?}"
            ));
        }
    }
    if issued == 0 {
        return Err("the workload offered no requests".into());
    }
    let latencies = l.latencies.borrow();
    let mut h = Fnv::default();
    for v in [issued, completed, failed, p.window_events()] {
        h.u64(v);
    }
    for v in [
        c.accepted,
        c.completed,
        c.faulted,
        c.shed,
        c.queued,
        c.retried,
        c.ejected,
        c.affinity_hits,
        c.affinity_misses,
        c.affinity_repins,
        c.forwarded,
    ] {
        h.u64(v);
    }
    for v in plane_counts(p) {
        h.u64(v);
    }
    for &t in latencies.iter() {
        h.u64(t);
    }
    let tps = Duration::from_secs(1).ticks() as f64;
    let mut sorted: Vec<f64> = latencies.iter().map(|&t| t as f64 / tps).collect();
    sorted.sort_by(f64::total_cmp);
    Ok(Outcome {
        issued,
        completed,
        failed,
        counters: c,
        events: p.window_events(),
        horizon_s: p.horizon.as_secs_f64(),
        sorted_latency_s: sorted,
        digest: h.0,
    })
}

/// What the fleet's control loops did: replicas booted and lost, and on
/// `tenants` the chaos strikes, detector actions and scaling decisions.
fn plane_counts(p: &Prepared) -> Vec<u64> {
    let mut v = vec![
        p.fleet.booted_total(),
        p.fleet.lost_total(),
        p.fleet.retired_total(),
    ];
    if let Some(m) = &p.monkey {
        v.extend([m.landed(), m.skipped(), m.slowed(), m.site_outages()]);
    }
    if let Some(d) = &p.detector {
        v.extend([d.probations() as u64, d.ejections() as u64]);
    }
    if let Some(s) = &p.scaler {
        v.push(s.actions().len() as u64);
    }
    v
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One untraced pass: set up, then drain the measured window with
/// `Sim::run`. Returns the host set-up and window times with the result.
pub fn run_untraced(workload: Workload, seed: u64) -> Result<Timed, String> {
    let t0 = Instant::now();
    let mut p = setup(workload, seed, false);
    let setup = t0.elapsed();
    let t1 = Instant::now();
    start(&mut p, false);
    p.sim.run();
    let window = t1.elapsed();
    let outcome = finish(&p)?;
    Ok(Timed {
        setup,
        window,
        outcome,
    })
}

/// Host timings of one untraced pass with its virtual result.
pub struct Timed {
    /// Host time of [`setup`].
    pub setup: HostDuration,
    /// Host time of the measured window.
    pub window: HostDuration,
    /// What the window produced.
    pub outcome: Outcome,
}
