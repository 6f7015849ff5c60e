//! Experiment D-1 — the §VIII-D1 scalability discussion.
//!
//! "It is quite obvious that the solution's scalability is limited either
//! by the system's hard disk I/O-performance or its network connection's
//! performance. The solution doesn't need a lot of CPU time nor a lot of
//! memory, even with multiple simultaneously requests."
//!
//! Sweep the number of simultaneous portal uploads (LAN side) and the
//! number of simultaneous service invocations (WAN side), and report which
//! resource saturates. Points run in parallel on host threads (one
//! independent simulation each).
//!
//! Run with: `cargo run -p onserve-bench --bin scalability`
//! Add `--trace d1.json` to export a Chrome trace of the 8-invocation
//! point (the sweep itself stays untraced).

use onserve::deployment::DeploymentSpec;
use onserve::profile::ExecutionProfile;
use onserve_bench::{par_sweep, trace_arg, write_trace, Runner, KB};
use simkit::report::TextTable;
use simkit::{Duration, MB};

struct UploadPoint {
    n: u32,
    makespan: f64,
    cpu_busy: f64,
    disk_busy: f64,
    lan_busy: f64,
}

fn upload_point(n: u32) -> UploadPoint {
    let mut r = Runner::new(100 + n as u64, &DeploymentSpec::default());
    let makespan = r.upload_burst("u", n, 10 * 1024 * 1024, ExecutionProfile::quick());
    let rec = r.sim.recorder_ref();
    UploadPoint {
        n,
        makespan,
        cpu_busy: rec.total("appliance.cpu.busy"),
        disk_busy: rec.total("appliance.disk.write.busy") + rec.total("appliance.disk.read.busy"),
        lan_busy: rec.total("lan.fwd.busy"),
    }
}

struct InvokePoint {
    n: u32,
    makespan: f64,
    wan_busy_max: f64,
    disk_busy: f64,
    cpu_busy: f64,
}

fn invoke_point(n: u32, telemetry: bool) -> (InvokePoint, Runner) {
    let spec = DeploymentSpec {
        config: onserve::OnServeConfig {
            // pin one site so the WAN contention is visible
            broker: gridsim::BrokerPolicy::Fixed("tacc".into()),
            ..onserve::OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let mut r = Runner::new(200 + n as u64, &spec);
    if telemetry {
        r.sim.enable_telemetry();
    }
    r.publish(
        "tool.exe",
        2 * 1024 * 1024,
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(60))
            .producing(16.0 * KB),
        &[],
    );
    let makespan = r.invoke_burst("tool", n);
    let rec = r.sim.recorder_ref();
    let point = InvokePoint {
        n,
        makespan,
        wan_busy_max: rec.total("wan.tacc.up.busy"),
        disk_busy: rec.total("appliance.disk.write.busy") + rec.total("appliance.disk.read.busy"),
        cpu_busy: rec.total("appliance.cpu.busy"),
    };
    (point, r)
}

fn main() {
    let trace = trace_arg();
    let counts: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64];

    // run sweep points on parallel host threads — each owns its world
    let points = par_sweep(&counts, |_, &n| (upload_point(n), invoke_point(n, false).0));
    let (up, inv): (Vec<UploadPoint>, Vec<InvokePoint>) = points.into_iter().unzip();

    println!("==== D-1 scalability: simultaneous portal uploads (10 MB each, 1 Gbit/s LAN) ====\n");
    let mut t = TextTable::new(vec![
        "uploads", "makespan", "MB/s", "cpu busy", "disk busy", "lan busy", "bottleneck",
    ]);
    for p in &up {
        let total_mb = p.n as f64 * 10.0;
        let busiest = [
            (p.disk_busy, "disk"),
            (p.cpu_busy, "cpu"),
            (p.lan_busy, "network"),
        ]
        .into_iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .unwrap()
        .1;
        t.row(vec![
            p.n.to_string(),
            format!("{:.1} s", p.makespan),
            format!("{:.0}", total_mb / p.makespan),
            format!("{:.1} s", p.cpu_busy),
            format!("{:.1} s", p.disk_busy),
            format!("{:.1} s", p.lan_busy),
            busiest.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper claim: \"limited either by the system's hard disk I/O-performance\n\
         or its network connection's performance. The solution doesn't need a\n\
         lot of CPU time\" — the bottleneck column should never say 'cpu'.\n"
    );

    println!("==== D-1 scalability: simultaneous service invocations (2 MB staging over one ~85 KB/s WAN) ====\n");
    let mut t = TextTable::new(vec![
        "invocations", "makespan", "wan busy", "disk busy", "cpu busy",
    ]);
    for p in &inv {
        t.row(vec![
            p.n.to_string(),
            format!("{:.0} s", p.makespan),
            format!("{:.0} s", p.wan_busy_max),
            format!("{:.1} s", p.disk_busy),
            format!("{:.1} s", p.cpu_busy),
        ]);
    }
    println!("{}", t.render());
    println!(
        "the WAN uplink saturates (busy ≈ makespan) while appliance CPU/disk\n\
         stay nearly idle: the network is the scaling wall on the Grid side."
    );
    let _ = MB;

    if let Some(path) = trace {
        // re-run one representative point with telemetry on; the sweep
        // itself stays untraced so its numbers are unperturbed
        eprintln!("\ntracing the 8-invocation point...");
        let (_, r) = invoke_point(8, true);
        write_trace(&r.sim, &path).expect("write trace");
    }
}
