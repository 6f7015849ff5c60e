#![warn(missing_docs)]

//! Shared experiment drivers for the benchmark harness.
//!
//! Every figure-regeneration binary (`fig6`, `fig7`, `fig8`,
//! `scalability`, `netsweep`, `diskio`, `overhead`) and the criterion
//! benches build on the same blocking [`Runner`] around a
//! [`Deployment`], plus the figure pipelines and rendering helpers here.
//! The fig6/7/8 binaries, the golden test, the trace test and the perf
//! baselines run the same [`fig6_pipeline`], [`fig7_pipeline`] and
//! [`fig8_pipeline`] and plot the same series lists. Binaries print the
//! same series the paper plots (ASCII charts + row tables) so
//! EXPERIMENTS.md can quote exact numbers.
//!
//! The fleet tiers (`fleetscale`, `chaos`, `affinity`, `grayfail`, `geo`,
//! `millionuser`, `rollout`, `noisyneighbor`) are each declared once as a
//! [`scenario::Scenario`]; their binaries, golden tests and CI tier rows
//! all run that declaration.

pub mod affinity;
pub mod chaos;
pub mod fleetscale;
pub mod geo;
pub mod grayfail;
pub mod millionuser;
pub mod noisyneighbor;
pub mod rollout;
pub mod scenario;

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use onserve::deployment::{Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use onserve::PublishedService;
use simkit::metrics::Series;
use simkit::report::{ascii_chart_rows, series_table};
use simkit::{Duration, Sim, SimTime};
use wsstack::{SoapFault, SoapValue};

/// A deployment plus its simulator, with blocking-style verbs.
pub struct Runner {
    /// The virtual world.
    pub sim: Sim,
    /// The system under test.
    pub d: Deployment,
}

impl Runner {
    /// Fresh system with the paper's 3-second sampling.
    pub fn new(seed: u64, spec: &DeploymentSpec) -> Runner {
        let mut sim = Sim::new(seed);
        let d = Deployment::build(&mut sim, spec);
        Runner { sim, d }
    }

    /// Fresh system with a custom sampling interval.
    pub fn with_sampling(seed: u64, spec: &DeploymentSpec, interval: simkit::Duration) -> Runner {
        let mut sim = Sim::with_sample_interval(seed, interval);
        let d = Deployment::build(&mut sim, spec);
        Runner { sim, d }
    }

    /// Upload + publish, draining the simulation.
    pub fn publish(
        &mut self,
        name: &str,
        len: usize,
        profile: ExecutionProfile,
        params: &[(&str, &str)],
    ) -> PublishedService {
        let req = self.d.upload_request(name, len, profile, params);
        let out: Rc<RefCell<Option<PublishedService>>> = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&out);
        self.d.portal.upload(&mut self.sim, req, move |_, r| {
            *o2.borrow_mut() = Some(r.expect("publish"));
        });
        self.sim.run();
        let svc = out.borrow_mut().take().expect("published");
        svc
    }

    /// Fire `n` concurrent portal uploads (`{prefix}{i}.exe`, `len` bytes
    /// each, all sharing `profile`), drain the simulation, and return the
    /// batch makespan in seconds. Panics if any upload fails or goes
    /// unanswered — sweep points measure saturation, not error paths.
    pub fn upload_burst(&mut self, prefix: &str, n: u32, len: usize, profile: ExecutionProfile) -> f64 {
        let t0 = self.sim.now();
        let done = Rc::new(Cell::new(0u32));
        for i in 0..n {
            let req = self
                .d
                .upload_request(&format!("{prefix}{i}.exe"), len, profile, &[]);
            let c = done.clone();
            self.d.portal.upload(&mut self.sim, req, move |_, res| {
                res.expect("publish");
                c.set(c.get() + 1);
            });
        }
        self.sim.run();
        assert_eq!(done.get(), n, "upload burst lost requests");
        (self.sim.now() - t0).as_secs_f64()
    }

    /// Fire `n` concurrent no-argument invocations of `service`, drain,
    /// and return the batch makespan in seconds. Panics on any fault.
    pub fn invoke_burst(&mut self, service: &str, n: u32) -> f64 {
        let t0 = self.sim.now();
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..n {
            let c = done.clone();
            self.d.invoke(&mut self.sim, service, &[], move |_, res| {
                res.expect("invoke");
                c.set(c.get() + 1);
            });
        }
        self.sim.run();
        assert_eq!(done.get(), n, "invoke burst lost requests");
        (self.sim.now() - t0).as_secs_f64()
    }

    /// Invoke and drain; returns `(result, completion_instant)`.
    pub fn invoke_blocking(
        &mut self,
        service: &str,
        args: &[(&str, SoapValue)],
    ) -> (Result<SoapValue, SoapFault>, SimTime) {
        let out: Rc<RefCell<Option<Result<SoapValue, SoapFault>>>> = Rc::new(RefCell::new(None));
        let at = Rc::new(Cell::new(SimTime::ZERO));
        let (o2, a2) = (Rc::clone(&out), Rc::clone(&at));
        self.d.invoke(&mut self.sim, service, args, move |sim, r| {
            *o2.borrow_mut() = Some(r);
            a2.set(sim.now());
        });
        self.sim.run();
        let r = out.borrow_mut().take().expect("responded");
        (r, at.get())
    }
}

/// One published and once-invoked executable, drained.
pub struct Invoked {
    /// The drained system.
    pub r: Runner,
    /// When the invocation was issued.
    pub t0: SimTime,
    /// The invocation's answer.
    pub output: SoapValue,
    /// When the answer arrived.
    pub done_at: SimTime,
}

fn publish_and_invoke(
    seed: u64,
    telemetry: bool,
    exe: &str,
    len: usize,
    profile: ExecutionProfile,
) -> Invoked {
    let mut r = Runner::new(seed, &DeploymentSpec::default());
    if telemetry {
        r.sim.enable_telemetry();
    }
    r.publish(exe, len, profile, &[]);
    let t0 = r.sim.now();
    let (res, done_at) = r.invoke_blocking(exe.trim_end_matches(".exe"), &[]);
    let output = res.expect("invocation");
    Invoked {
        r,
        t0,
        output,
        done_at,
    }
}

/// The Figure 6 pipeline: seed 6, a very small (64 B) `small.exe` whose
/// job runs ~60 s and writes a 48 KB output the poller keeps re-fetching,
/// published and invoked once.
pub fn fig6_pipeline(telemetry: bool) -> Invoked {
    let profile = ExecutionProfile::quick()
        .lasting(Duration::from_secs(60))
        .producing(48.0 * KB);
    publish_and_invoke(6, telemetry, "small.exe", 64, profile)
}

/// The Figure 7 pipeline: seed 7, a ~5 MB `large.exe` (45 s, 32 KB
/// output), published and invoked once.
pub fn fig7_pipeline(telemetry: bool) -> Invoked {
    let profile = ExecutionProfile::quick()
        .lasting(Duration::from_secs(45))
        .producing(32.0 * KB);
    publish_and_invoke(7, telemetry, "large.exe", 5 * 1024 * 1024, profile)
}

/// The Figure 8 pipeline: seed 8, a 5 MB portal upload sampled every
/// `interval`.
pub fn fig8_pipeline(interval: Duration, telemetry: bool) -> Runner {
    let mut r = Runner::with_sampling(8, &DeploymentSpec::default(), interval);
    if telemetry {
        r.sim.enable_telemetry();
    }
    let len = 5 * 1024 * 1024;
    r.publish("upload5mb.exe", len, ExecutionProfile::quick(), &[]);
    r
}

const CPU: (&str, &str) = ("appliance.cpu.busy", "CPU utilization");
const NET_OUT: (&str, &str) = ("appliance.net.out.bytes", "network out");
const NET_IN: (&str, &str) = ("appliance.net.in.bytes", "network in");
const DISK_WRITE: (&str, &str) = ("appliance.disk.write.bytes", "hard disk write");
const DISK_READ: (&str, &str) = ("appliance.disk.read.bytes", "hard disk read");

/// `(recorder series, legend label)` of Figure 6's curves, in plot order.
pub const FIG6_SERIES: [(&str, &str); 5] = [CPU, NET_OUT, NET_IN, DISK_WRITE, DISK_READ];
/// Figure 7's curves.
pub const FIG7_SERIES: [(&str, &str); 4] = [NET_OUT, NET_IN, DISK_WRITE, DISK_READ];
/// Figure 8's curves.
pub const FIG8_SERIES: [(&str, &str); 4] = [CPU, NET_IN, DISK_WRITE, DISK_READ];

/// A figure's curves from `sim`'s recorder, rebased at `t0` and trimmed:
/// CPU busy time in %, byte counters per second in `rate`, a
/// `(unit, bytes per unit)` pair such as `("KB/s", KB)`.
pub fn figure_curves(
    sim: &Sim,
    t0: SimTime,
    series: &[(&str, &str)],
    rate: (&str, f64),
) -> Vec<Curve> {
    let rec = sim.recorder_ref();
    let iv = rec.interval().as_secs_f64();
    let mut curves: Vec<Curve> = series
        .iter()
        .map(|&(name, label)| {
            let (unit, scale) = if name == CPU.0 {
                ("%", 100.0 / iv)
            } else {
                (rate.0, 1.0 / (iv * rate.1))
            };
            curve_from(rec.series(name), t0, label, unit, scale)
        })
        .collect();
    trim_curves(&mut curves);
    curves
}

/// One plotted curve: label, y-axis unit, `(t, value)` rows.
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// Unit of the y values after scaling.
    pub unit: String,
    /// `(t_seconds, value)` rows.
    pub rows: Vec<(f64, f64)>,
}

/// Extract a curve from a recorded series, rebased so `t0` is zero and
/// values scaled by `scale` (e.g. `1/(interval·KB)` turns bytes-per-bucket
/// into KB/s).
pub fn curve_from(
    series: Option<&Series>,
    t0: SimTime,
    label: &str,
    unit: &str,
    scale: f64,
) -> Curve {
    let rows = match series {
        None => Vec::new(),
        Some(s) => {
            let start = (t0.ticks() / s.interval().ticks()) as usize;
            let iv = s.interval().as_secs_f64();
            s.buckets()
                .iter()
                .enumerate()
                .skip(start)
                .map(|(i, &v)| ((i - start) as f64 * iv, v * scale))
                .collect()
        }
    };
    Curve {
        label: label.to_owned(),
        unit: unit.to_owned(),
        rows,
    }
}

/// Trim trailing all-zero tail from a set of curves (keeps charts tight).
pub fn trim_curves(curves: &mut [Curve]) {
    let last_active = curves
        .iter()
        .flat_map(|c| {
            c.rows
                .iter()
                .enumerate()
                .filter(|(_, &(_, v))| v.abs() > 1e-9)
                .map(|(i, _)| i)
                .max()
        })
        .max()
        .unwrap_or(0);
    for c in curves.iter_mut() {
        c.rows.truncate(last_active + 2);
    }
}

/// Render a figure: header, one chart per curve, then the row tables.
pub fn render_figure(title: &str, note: &str, curves: &[Curve]) -> String {
    let mut out = String::new();
    out.push_str(&format!("==== {title} ====\n"));
    if !note.is_empty() {
        out.push_str(note);
        out.push('\n');
    }
    out.push('\n');
    for c in curves {
        out.push_str(&ascii_chart_rows(
            &format!("{} [{}]", c.label, c.unit),
            &c.unit,
            &c.rows,
            8,
        ));
        out.push('\n');
    }
    for c in curves {
        out.push_str(&format!("--- {} ({}) ---\n", c.label, c.unit));
        out.push_str(&series_table(&c.unit, &c.rows));
        out.push('\n');
    }
    out
}

/// The paper's KB (1024 bytes).
pub const KB: f64 = 1024.0;

/// Parse `--trace <path>` (or `--trace=<path>`) from `args`, the process
/// arguments after the program name; other arguments are skipped. A
/// `--trace` with no path after it, or with another flag where the path
/// belongs, is an error.
pub fn parse_trace_arg(mut args: impl Iterator<Item = String>) -> Result<Option<PathBuf>, String> {
    while let Some(a) = args.next() {
        let path = match a.strip_prefix("--trace=") {
            Some(p) => Some(p.to_owned()),
            None if a == "--trace" => args.next(),
            None => continue,
        };
        return match path {
            Some(p) if !p.is_empty() && !p.starts_with('-') => Ok(Some(PathBuf::from(p))),
            _ => Err("--trace needs an output path".to_owned()),
        };
    }
    Ok(None)
}

/// [`parse_trace_arg`] over the process arguments. Figure binaries use
/// this to opt into telemetry: when the flag is present they enable
/// tracing on the simulator and dump a Chrome trace-event file at exit. A
/// malformed flag prints the error and a usage line and exits with
/// status 2.
pub fn trace_arg() -> Option<PathBuf> {
    parse_trace_arg(std::env::args().skip(1)).unwrap_or_else(|e| {
        let bin = std::env::args().next().unwrap_or_default();
        eprintln!("error: {e}\nusage: {bin} [--trace <path>]");
        std::process::exit(2)
    })
}

/// Write the run's telemetry as Chrome trace-event JSON to `path`
/// (loadable in Perfetto / `chrome://tracing`; timestamps are virtual
/// microseconds) and print the span-tree summary plus kernel profile to
/// stderr.
pub fn write_trace(sim: &Sim, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, sim.export_chrome_trace())?;
    eprintln!(
        "(trace written to {}; load it at https://ui.perfetto.dev)",
        path.display()
    );
    eprint!("{}", sim.span_summary());
    eprint!("{}", sim.profile());
    Ok(())
}

/// Run `f(index, &item)` for every sweep point on its own host thread and
/// return the results in input order.
///
/// Every sweep binary shares this shape: each point owns an independent
/// simulation (seeded from `index`), so the only cross-thread state is the
/// per-point output slot each thread writes — no locking, no post-sort.
pub fn par_sweep<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    crossbeam::thread::scope(|scope| {
        for (i, (slot, item)) in out.iter_mut().zip(items).enumerate() {
            let f = &f;
            scope.spawn(move |_| *slot = Some(f(i, item)));
        }
    })
    .expect("sweep threads");
    out.into_iter()
        .map(|r| r.expect("sweep point completed"))
        .collect()
}

/// A figure's curves as CSV: a shared time column, then one
/// `label (unit)` column per curve.
pub fn curves_csv(curves: &[Curve]) -> String {
    let headers: Vec<String> = curves
        .iter()
        .map(|c| format!("{} ({})", c.label, c.unit))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<&[(f64, f64)]> = curves.iter().map(|c| c.rows.as_slice()).collect();
    simkit::report::curves_to_csv(&header_refs, &rows)
}

/// Write a figure's curves to `target/experiments/<name>.csv` so the data
/// behind every regenerated figure can be re-plotted with external tools.
/// Returns the path written.
pub fn save_curves(name: &str, curves: &[Curve]) -> std::io::Result<PathBuf> {
    let dir = Path::new(scenario::OUT_DIR);
    scenario::write_file(dir, &format!("{name}.csv"), &curves_csv(curves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Duration;

    #[test]
    fn runner_round_trip() {
        let mut r = Runner::new(5, &DeploymentSpec::default());
        let svc = r.publish("t.exe", 4096, ExecutionProfile::quick().producing(64.0), &[]);
        assert_eq!(svc.service_name, "t");
        let (res, at) = r.invoke_blocking("t", &[]);
        assert!(matches!(res, Ok(SoapValue::Binary { .. })));
        assert!(at > SimTime::ZERO);
    }

    #[test]
    fn curve_rebases_time() {
        let mut sim = Sim::with_sample_interval(1, Duration::from_secs(1));
        sim.recorder().add_point("x", SimTime::from_secs(5), 10.0);
        let c = curve_from(
            sim.recorder_ref().series("x"),
            SimTime::from_secs(4),
            "x",
            "u",
            0.5,
        );
        assert_eq!(c.rows, vec![(0.0, 0.0), (1.0, 5.0)]);
    }

    #[test]
    fn trim_removes_tail() {
        let mut curves = vec![Curve {
            label: "a".into(),
            unit: "u".into(),
            rows: vec![(0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)],
        }];
        trim_curves(&mut curves);
        assert_eq!(curves[0].rows.len(), 2);
    }

    #[test]
    fn save_curves_writes_csv() {
        let curves = vec![Curve {
            label: "net".into(),
            unit: "KB/s".into(),
            rows: vec![(0.0, 1.0), (3.0, 2.5)],
        }];
        let path = save_curves("unit-test-figure", &curves).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.starts_with("t_seconds,net (KB/s)"));
        assert!(text.contains("3,2.5"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_arg_needs_a_path() {
        let parse = |args: &[&str]| parse_trace_arg(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--ci"]), Ok(None));
        let want = Ok(Some(PathBuf::from("t.json")));
        assert_eq!(parse(&["--trace", "t.json"]), want);
        assert_eq!(parse(&["--ci", "--trace=t.json"]), want);
        assert!(parse(&["--trace"]).is_err(), "no path after --trace");
        assert!(parse(&["--trace", "--x"]).is_err(), "a flag is not a path");
        assert!(parse(&["--trace="]).is_err(), "an empty path is no path");
    }

    #[test]
    fn par_sweep_preserves_input_order() {
        let items: Vec<u64> = (0..32).collect();
        let out = par_sweep(&items, |i, &x| {
            // stagger completion so slow points cannot reorder results
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            (i, x * 2)
        });
        assert_eq!(out.len(), 32);
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(doubled, items[i] * 2);
        }
    }

    #[test]
    fn par_sweep_empty_input() {
        let out: Vec<u32> = par_sweep(&[] as &[u8], |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn figure_renders_all_sections() {
        let curves = vec![Curve {
            label: "net".into(),
            unit: "KB/s".into(),
            rows: vec![(0.0, 1.0), (3.0, 2.0)],
        }];
        let s = render_figure("Fig X", "a note", &curves);
        assert!(s.contains("Fig X"));
        assert!(s.contains("a note"));
        assert!(s.contains("net"));
        assert!(s.contains("KB/s"));
    }
}
