//! Noisy neighbor — one flooding tenant vs 23 behaved tenants, with the
//! per-tenant QoS plane on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin noisyneighbor`

use onserve_bench::noisyneighbor::{
    self, NoisyNeighbor, BEHAVED_RPS, BEHAVED_TENANTS, FLOOD_RPS, REPLICAS,
};
use onserve_bench::scenario;

fn main() {
    println!(
        "==== noisyneighbor: {} behaved tenants @ {:.1} rps aggregate vs 1 flooder @ {:.1} rps, {} replicas, {:.0} s ====\n",
        BEHAVED_TENANTS,
        BEHAVED_RPS,
        FLOOD_RPS,
        REPLICAS,
        noisyneighbor::horizon().as_secs_f64(),
    );
    scenario::run::<NoisyNeighbor>();
}
