//! Geo-distributed fleet — multi-site placement, latency-aware routing,
//! and federation under a pinned mid-run site outage.
//!
//! Run with: `cargo run --release -p onserve-bench --bin geo`

use onserve_bench::geo::{self, Geo};
use onserve_bench::scenario;

fn main() {
    println!(
        "==== geo: {} sites, {} replicas, one request per {:.0} s for {:.0} s; outage +{:.0} s for {:.0} s ====\n",
        geo::sites().len(),
        geo::REPLICAS,
        geo::arrival_gap().as_secs_f64(),
        geo::horizon().as_secs_f64(),
        geo::outage_offset().as_secs_f64(),
        geo::outage_duration().as_secs_f64(),
    );
    scenario::run::<Geo>();
}
