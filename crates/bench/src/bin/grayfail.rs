//! Gray failure — fleet tail latency under a pinned slow-replica strike,
//! with the health-plane detector on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin grayfail`

use onserve_bench::grayfail::{self, Grayfail, SLOW_FACTOR};
use onserve_bench::scenario;

fn main() {
    println!(
        "==== grayfail: one request per {:.0} s for {:.0} s, {}x slow strike at +{:.0} s ====\n",
        grayfail::arrival_gap().as_secs_f64(),
        grayfail::horizon().as_secs_f64(),
        SLOW_FACTOR,
        grayfail::degrade_offset().as_secs_f64(),
    );
    scenario::run::<Grayfail>();
}
