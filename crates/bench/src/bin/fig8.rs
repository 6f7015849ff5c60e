//! Figure 8 — "Upload file and generate Web service: CPU utilization,
//! network and hard disk I/O (3 seconds interval)".
//!
//! The portal scenario on the 1000 Mbit/s LAN. The paper's observations to
//! reproduce:
//! * a tall network-input peak as the file arrives at LAN speed;
//! * very high CPU from request handling, service build and storage;
//! * **two** disk-write activity peaks — "the file is written two times.
//!   The problem is, that the file is first stored temporarily and then in
//!   the database."
//!
//! The paper samples at 3 s; the two write passes are sub-second apart on
//! modern sampling, so the main run uses a 200 ms interval to make both
//! passes visible (the 3 s view is also printed for fidelity).
//!
//! Run with: `cargo run -p onserve-bench --bin fig8`
//!
//! Pass `--trace fig8.trace.json` to dump the fine-sampled run's causal
//! span tree as Chrome trace-event JSON (the double-write shows up as
//! two `db.*_write` child spans under `db.store`).

use onserve_bench::{figure_curves, render_figure, FIG8_SERIES, KB};
use simkit::{Duration, SimTime, MB};

fn run(interval: Duration, title: &str, trace: Option<&std::path::Path>) -> (String, f64, usize) {
    let r = onserve_bench::fig8_pipeline(interval, trace.is_some());
    if let Some(path) = trace {
        onserve_bench::write_trace(&r.sim, path).expect("write trace");
    }
    let curves = figure_curves(&r.sim, SimTime::ZERO, &FIG8_SERIES, ("MB/s", MB));
    let csv_name = format!("fig8-{}ms", interval.as_secs_f64() * 1000.0);
    let path = onserve_bench::save_curves(&csv_name, &curves).expect("write the curves CSV");
    eprintln!("(curves saved to {})", path.display());
    let rendered = render_figure(
        title,
        "paper: tall network-in peak (1000 Mbit/s LAN); high CPU from\n\
         tomcat + service build; TWO disk write peaks (temp file, then DB)",
        &curves,
    );
    // count distinct disk-write passes
    let rec = r.sim.recorder_ref();
    let disk = rec.series("appliance.disk.write.bytes").expect("disk");
    let mut passes = 0;
    let mut in_pass = false;
    for &b in disk.buckets() {
        if b > 16.0 * KB {
            if !in_pass {
                passes += 1;
                in_pass = true;
            }
        } else {
            in_pass = false;
        }
    }
    (rendered, disk.total(), passes)
}

fn main() {
    let trace = onserve_bench::trace_arg();
    let (fine, disk_total, passes) = run(
        Duration::from_millis(200),
        "Figure 8 — upload + generate Web service (200 ms sampling)",
        trace.as_deref(),
    );
    println!("{fine}");
    println!("summary:");
    println!(
        "  total disk writes         {:.1} MB for a 5.0 MB upload (double write)",
        disk_total / MB
    );
    println!("  distinct write passes     {passes} (paper: 2 peaks)");

    let (coarse, _, _) = run(
        Duration::from_secs(3),
        "Same run at the paper's 3 s sampling (passes merge into one bucket)",
        None,
    );
    println!("{coarse}");
}
