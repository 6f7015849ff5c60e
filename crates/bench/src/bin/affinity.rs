//! Session affinity — credential exchanges and latency with sticky
//! routing on vs off, per-replica session cache enabled in both rows.
//!
//! Run with: `cargo run --release -p onserve-bench --bin affinity`

use onserve_bench::affinity::{self, Affinity, OFFERED_RPS, REPLICAS, TENANTS};
use onserve_bench::scenario;

fn main() {
    println!(
        "==== affinity: {} tenants, {} req/s for {:.0} s over {} replicas ====\n",
        TENANTS,
        OFFERED_RPS,
        affinity::horizon().as_secs_f64(),
        REPLICAS,
    );
    scenario::run::<Affinity>();
}
