//! Golden determinism: the figure pipelines and every fleet tier must
//! produce byte-identical CSV output across runs and across kernel
//! optimisations, and each tier's headline claims must hold, not just its
//! bytes.
//!
//! The fixtures under `tests/golden/` were captured before the fast-path
//! work (interned metric IDs, zero-alloc fair-share); every optimisation
//! must keep them byte-for-byte stable. Regenerate deliberately by running
//! the fig and tier binaries and copying `target/experiments/*.csv` here —
//! and say so in the change description.

use onserve_bench::scenario::{self, Scenario};
use onserve_bench::{
    affinity, chaos, fleetscale, geo, grayfail, millionuser, noisyneighbor, rollout,
};
use onserve_bench::{curves_csv, figure_curves, FIG6_SERIES, FIG7_SERIES, FIG8_SERIES, KB};
use simkit::{Duration, SimTime, MB};

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Run every row of `S`, compare its CSV with `tests/golden/<NAME>.csv`,
/// then run the tier's semantic asserts.
fn check_golden<S: Scenario>() {
    let points = scenario::sweep::<S>(S::ROWS);
    let want = golden(&format!("{}.csv", S::NAME));
    assert_eq!(scenario::csv::<S>(&points), want, "{} CSV drifted", S::NAME);
    S::check(&points);
}

/// The fig6 pipeline's CSV plus the number of telemetry spans recorded.
fn fig6_csv(telemetry: bool) -> (String, usize) {
    let run = onserve_bench::fig6_pipeline(telemetry);
    let curves = figure_curves(&run.r.sim, run.t0, &FIG6_SERIES, ("KB/s", KB));
    let spans = run.r.sim.telemetry().map_or(0, |t| t.spans().len());
    (curves_csv(&curves), spans)
}

#[test]
fn fig6_curves_match_golden() {
    let (csv, _) = fig6_csv(false);
    assert_eq!(csv, golden("fig6.csv"), "fig6 CSV drifted");
}

/// Result-neutrality: running the exact same pipeline with the full span/
/// counter machinery turned on must not move a single byte of the golden
/// CSV — telemetry observes the schedule, it never participates in it.
#[test]
fn fig6_curves_unchanged_with_telemetry_enabled() {
    let (csv, spans) = fig6_csv(true);
    assert_eq!(csv, golden("fig6.csv"), "telemetry perturbed the fig6 CSV");
    assert!(
        spans > 10,
        "expected a populated span tree, got {spans} spans"
    );
}

#[test]
fn fig7_curves_match_golden() {
    let run = onserve_bench::fig7_pipeline(false);
    let curves = figure_curves(&run.r.sim, run.t0, &FIG7_SERIES, ("KB/s", KB));
    assert_eq!(curves_csv(&curves), golden("fig7.csv"), "fig7 CSV drifted");
}

#[test]
fn fig8_curves_match_golden_at_both_sampling_rates() {
    let csv = |interval: Duration| {
        let r = onserve_bench::fig8_pipeline(interval, false);
        curves_csv(&figure_curves(
            &r.sim,
            SimTime::ZERO,
            &FIG8_SERIES,
            ("MB/s", MB),
        ))
    };
    let fine = csv(Duration::from_millis(200));
    assert_eq!(fine, golden("fig8-200ms.csv"), "fig8 200 ms CSV drifted");
    let coarse = csv(Duration::from_secs(3));
    assert_eq!(coarse, golden("fig8-3000ms.csv"), "fig8 3 s CSV drifted");
}

#[test]
fn fleetscale_sweep_matches_golden() {
    check_golden::<fleetscale::FleetScale>();
}

#[test]
fn chaos_sweep_matches_golden() {
    check_golden::<chaos::Chaos>();
}

#[test]
fn millionuser_ci_matches_golden() {
    check_golden::<millionuser::MillionUser>();
}

#[test]
fn geo_sweep_matches_golden() {
    check_golden::<geo::Geo>();
}

#[test]
fn affinity_sweep_matches_golden() {
    check_golden::<affinity::Affinity>();
}

#[test]
fn grayfail_sweep_matches_golden() {
    check_golden::<grayfail::Grayfail>();
}

#[test]
fn rollout_sweep_matches_golden() {
    check_golden::<rollout::Rollout>();
}

#[test]
fn noisyneighbor_sweep_matches_golden() {
    check_golden::<noisyneighbor::NoisyNeighbor>();
}
