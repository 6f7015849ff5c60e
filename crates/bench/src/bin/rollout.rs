//! Zero-downtime rollouts — restart vs rolling vs canary (promote and
//! auto-rollback), one seed, one schedule.
//!
//! Run with: `cargo run --release -p onserve-bench --bin rollout`

use onserve_bench::rollout::{self, Rollout, SLOW_FACTOR};
use onserve_bench::scenario;

fn main() {
    println!(
        "==== rollout: one request per {:.0} s for {:.0} s, roll at +{:.0} s, {}x lemon at +{:.0} s ====\n",
        rollout::arrival_gap().as_secs_f64(),
        rollout::horizon().as_secs_f64(),
        rollout::roll_offset().as_secs_f64(),
        SLOW_FACTOR,
        rollout::lemon_offset().as_secs_f64(),
    );
    scenario::run::<Rollout>();
}
