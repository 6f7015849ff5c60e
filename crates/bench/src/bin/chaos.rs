//! Chaos tolerance — goodput under a pinned replica-crash schedule, with
//! front-door retry on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin chaos`

use onserve_bench::chaos::{self, Chaos, OFFERED_RPS};
use onserve_bench::scenario;

fn main() {
    println!(
        "==== chaos: {} req/s offered for {:.0} s, crashes at {:?} s ====\n",
        OFFERED_RPS,
        chaos::horizon().as_secs_f64(),
        chaos::crash_offsets()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect::<Vec<_>>()
    );
    scenario::run::<Chaos>();
}
