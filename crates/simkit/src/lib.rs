#![warn(missing_docs)]

//! # simkit — discrete-event simulation kernel
//!
//! Foundation crate for the Cyberaide onServe reproduction. Every substrate
//! (the production-grid simulator, the web-service stack, the blob store,
//! the appliance layer) executes on top of this kernel so that the whole
//! system runs in *virtual time*: a 60-second file upload at 85 KB/s costs
//! microseconds of host CPU and is bit-for-bit deterministic given a seed.
//!
//! The kernel provides:
//!
//! * [`Sim`] — the event loop: a virtual clock plus a stable-ordered event
//!   queue of boxed closures ([`engine`]), backed by an O(1)-amortized
//!   hierarchical timer wheel ([`wheel`]) with same-tick batch draining.
//! * [`PsServer`] / [`FifoServer`] — queuing resources ([`server`]). A
//!   processor-sharing server models fair-shared capacity (TCP-like flows on
//!   a network link, timeslicing on a CPU); a FIFO server models serial
//!   devices (a disk arm). Both integrate busy time and throughput into the
//!   metric recorder.
//! * [`Host`] — a bundle of CPU, disk (read/write) and NIC (in/out)
//!   resources with a shared metric prefix ([`host`]), the unit of
//!   measurement for the paper's Figures 6–8.
//! * [`Recorder`] / [`Series`] — bucketed time-series accumulation
//!   ([`metrics`]); the paper samples at 3-second intervals and so do we.
//!   [`WindowAgg`] is the one log₂ histogram: windowed series in a
//!   [`WindowedRegistry`] and telemetry span durations both record into it.
//! * [`Rng`] — a seedable xoshiro256++ generator with the handful of
//!   distributions the workloads need ([`rng`]).
//! * [`fault`] — seeded, replayable chaos: crash schedules plus
//!   probabilistic link-drop/jitter and storage-write-failure injection
//!   ([`FaultPlan`], [`FaultInjector`]).
//! * [`telemetry`] — structured, zero-overhead-when-disabled tracing:
//!   causal spans on the virtual clock, counters, per-stage span-duration
//!   histograms, kernel self-profiling, and Chrome-trace / span-tree
//!   exporters.
//! * [`stats`] and [`report`] — summary statistics and plain-text
//!   chart/table rendering used by the benchmark harness.
//!
//! ## Example
//!
//! ```
//! use simkit::{Sim, Duration};
//!
//! let mut sim = Sim::new(42);
//! sim.schedule(Duration::from_secs(3), |sim| {
//!     assert_eq!(sim.now().as_secs_f64(), 3.0);
//! });
//! sim.run();
//! assert_eq!(sim.now(), simkit::SimTime::from_secs(3));
//! ```

pub mod engine;
pub mod fault;
pub mod host;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod server;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod wheel;

pub use engine::Sim;
pub use fault::{CrashSchedule, FaultConfig, FaultCounts, FaultInjector, FaultPlan};
pub use host::{Duplex, Host, HostSpec, Link, GBIT_PER_S, KB, MB};
pub use metrics::{
    sanitize_metric_name, validate_prometheus_text, MetricId, Recorder, Series, WindowAgg,
    WindowedId, WindowedRegistry, WindowedSeries, LOG2_BUCKETS,
};
pub use rng::Rng;
pub use server::{FifoServer, FlowId, PsServer, ServerConfig, Share};
pub use telemetry::{AttrValue, KernelProfile, ServerBusy, SpanId, SpanRecord, Telemetry};
pub use time::{Duration, SimTime};
