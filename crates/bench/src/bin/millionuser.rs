//! Million-principal fleet days: two diurnal cycles of open-loop traffic
//! whose requests draw their principal from a 2M-user population, driven
//! through the timer-wheel kernel at ~10⁸ events.
//!
//! Run with: `cargo run --release -p onserve-bench --bin millionuser`
//!
//! `--ci` runs the ~100×-shrunk CI scale (~10⁶ events) instead — same
//! shape, same seed discipline, byte-identical CSV per run; this is the
//! variant `scripts/ci.sh` double-runs and compares.
//!
//! The binary asserts a wall-clock kernel-throughput floor (override with
//! `MILLIONUSER_MIN_EPS=<events/sec>`; set it to 0 on a machine too slow
//! or too noisy to judge) and, at full scale, the experiment's two
//! structural claims: ≥ 1M distinct principals and ≥ 5×10⁷ kernel events.

use onserve_bench::millionuser::{self, MillionUser, Scale, CI, FULL};
use onserve_bench::scenario;

/// Default wall-clock floor, kernel events per host second. Deliberately
/// conservative: a release build sustains ~10⁵ fleet-tier events/sec on
/// a single commodity core (each event drags the full SOAP/grid stack
/// with it, cf. the ~171 µs/request fig6 baseline); the floor only
/// catches the kernel falling off an algorithmic cliff, not
/// machine-to-machine variance.
const DEFAULT_MIN_EPS: f64 = 30_000.0;

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");
    let scale: Scale = if ci { CI } else { FULL };
    println!(
        "==== millionuser [{}]: population {}, diurnal {}→{} req/s over {} replicas, {} s horizon ====\n",
        scale.label,
        scale.population,
        scale.base_rps,
        scale.peak_rps,
        millionuser::REPLICAS,
        scale.horizon_secs,
    );
    let point = &scenario::run_rows::<MillionUser>(&[scale])[0];

    let min_eps = std::env::var("MILLIONUSER_MIN_EPS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_MIN_EPS);
    assert!(
        point.host.events_per_sec >= min_eps,
        "kernel throughput floor violated: {:.0} events/sec < {:.0}",
        point.host.events_per_sec,
        min_eps
    );
    if !ci {
        assert!(
            point.distinct_principals >= 1_000_000,
            "full scale must exercise >= 1M distinct principals, saw {}",
            point.distinct_principals
        );
        assert!(
            point.events >= 50_000_000,
            "full scale must execute on the order of 10^8 events, saw {}",
            point.events
        );
    }
}
