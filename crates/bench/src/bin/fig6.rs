//! Figure 6 — "Web service execution: CPU utilization, network and hard
//! disk I/O (3 seconds interval)".
//!
//! A very small executable (some bytes) is invoked as a Web service and
//! executed on a Grid node. The paper's observations to reproduce:
//! * hard-disk utilization very low, little data sent to the Grid;
//! * a relatively large part of the traffic is the security credential
//!   request and its answer;
//! * CPU peaks while loading+decompressing the file from the database and
//!   again while the job is created and submitted;
//! * periodic hard-disk write peaks from the tentative output requests.
//!
//! Run with: `cargo run -p onserve-bench --bin fig6`
//!
//! Pass `--trace fig6.trace.json` to record the run's causal span tree
//! and dump it as Chrome trace-event JSON (open in Perfetto).

use onserve_bench::{figure_curves, render_figure, Invoked, FIG6_SERIES, KB};
use wsstack::SoapValue;

fn main() {
    let trace = onserve_bench::trace_arg();
    let Invoked {
        r,
        t0,
        output,
        done_at,
    } = onserve_bench::fig6_pipeline(trace.is_some());
    let bytes = match output {
        SoapValue::Binary { bytes, .. } => bytes,
        other => panic!("unexpected {other:?}"),
    };

    let curves = figure_curves(&r.sim, t0, &FIG6_SERIES, ("KB/s", KB));
    let path = onserve_bench::save_curves("fig6", &curves).expect("write the curves CSV");
    eprintln!("(curves saved to {})", path.display());
    println!(
        "{}",
        render_figure(
            "Figure 6 — Web service execution, small file (3 s sampling)",
            "paper: low disk util; credential exchange dominates traffic;\n\
             CPU peaks at DB load/decompress and job submit; periodic disk\n\
             writes from tentative output polling",
            &curves
        )
    );

    // quantitative footer for EXPERIMENTS.md
    let rec = r.sim.recorder_ref();
    let wall = (done_at - t0).as_secs_f64();
    let cred = rec.total("mp.fwd.bytes") + rec.total("mp.rev.bytes");
    let wan: f64 = r
        .d
        .grid
        .sites()
        .iter()
        .map(|s| {
            rec.total(&format!("wan.{}.up.bytes", s.name()))
                + rec.total(&format!("wan.{}.down.bytes", s.name()))
        })
        .sum();
    let disk_busy = rec.total("appliance.disk.write.busy") + rec.total("appliance.disk.read.busy");
    println!("summary:");
    println!("  invocation wall time      {wall:.1} s (job runtime 60 s)");
    println!("  output delivered          {:.0} KB", bytes / KB);
    println!("  credential exchange       {:.1} KB", cred / KB);
    println!("  total grid-side traffic   {:.1} KB", wan / KB);
    println!(
        "  credential share of WAN   {:.0}%",
        100.0 * cred / (cred + wan)
    );
    println!("  disk busy                 {disk_busy:.2} s over {wall:.0} s (very low)");
    println!(
        "  tentative output polls    {}",
        r.d.agent.polls_issued()
    );

    if let Some(path) = trace {
        onserve_bench::write_trace(&r.sim, &path).expect("write trace");
    }
}
