//! Fleet scaling — throughput and latency vs replica count under shared
//! vs replicated storage (the §VIII-D "deploy more appliances" remedy,
//! quantified).
//!
//! Run with: `cargo run --release -p onserve-bench --bin fleetscale`
//! Add `--trace fleet.json` to export a Chrome trace of one representative
//! point (4 replicas, replicated).

use onserve_bench::fleetscale::{self, FleetScale, OFFERED_RPS};
use onserve_bench::{scenario, trace_arg, write_trace};

fn main() {
    let trace = trace_arg();
    println!(
        "==== fleet scaling: {} req/s offered for {:.0} s ====\n",
        OFFERED_RPS,
        fleetscale::horizon().as_secs_f64()
    );
    scenario::run::<FleetScale>();

    if let Some(path) = trace {
        // re-run one representative point with telemetry on; the sweep
        // itself stays untraced so its numbers match the golden fixture
        eprintln!("\ntracing 4-replica replicated point...");
        let (sim, _) =
            fleetscale::run_point(fleet::StorageTopology::Replicated, 4, 0xf1ee7 + 5, true);
        write_trace(&sim, &path).expect("write trace");
    }
}
