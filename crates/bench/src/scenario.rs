//! One way to declare a fleet bench tier.
//!
//! A tier implements [`Scenario`] once: its file stem, its rows, how to
//! run one row, one column list with the cells of each measured point,
//! the extra snapshot files it captures, its headline summary, and the
//! semantic asserts its golden test makes. From that declaration:
//!
//! * [`run`] is the whole of a tier binary after its title line: every
//!   row on its own host thread, the table of the CSV's columns, the
//!   headline summary, and every output file written by [`emit`] under
//!   [`OUT_DIR`];
//! * the golden test runs [`sweep`], compares [`csv`] with
//!   `tests/golden/<NAME>.csv`, then calls [`Scenario::check`];
//! * `scripts/ci.sh` double-runs each tier binary from one tier table and
//!   `cmp`s every file it writes.
//!
//! The pieces every tier shares live here too: the appliance image and
//! base fleet spec, boot and provisioning, the dispatcher sink for
//! open-loop generators, the replacement-only autoscaler, the
//! fixed-interval pacer, and the exposition check.

use std::cell::{Cell, RefCell};
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use fleet::{AutoscalerConfig, Fleet, FleetSpec, Request, SubmitFn};
use onserve::profile::ExecutionProfile;
use simkit::report::TextTable;
use simkit::{Duration, Sim, SimTime, MB};
use vappliance::ApplianceImage;

/// Directory every bench binary writes its files to, relative to the
/// working directory.
pub const OUT_DIR: &str = "target/experiments";

/// A bench tier, declared once.
pub trait Scenario {
    /// What differs between the tier's rows.
    type Row: Sync + 'static;
    /// One measured row.
    type Point: Send;
    /// Stem of the tier's CSV and golden file; also its binary's name.
    const NAME: &'static str;
    /// The rows a default run and the golden test measure, in CSV order.
    const ROWS: &'static [Self::Row];
    /// The CSV header: the column names, comma-separated, one per cell.
    /// The printed table is headed by the same names.
    const COLUMNS: &'static str;
    /// Run one row on a fresh simulator.
    fn run(row: &Self::Row) -> Self::Point;
    /// One point's cells, formatted exactly as the golden CSV pins them.
    fn cells(p: &Self::Point) -> Vec<String>;
    /// Extra files captured from the run, as `(file name, contents)`.
    fn snapshots(_points: &[Self::Point]) -> Vec<(&'static str, String)> {
        Vec::new()
    }
    /// The headline lines printed under the table.
    fn summary(points: &[Self::Point]) -> String;
    /// The tier's semantic asserts over a run of [`Scenario::ROWS`].
    fn check(points: &[Self::Point]);
}

/// Run `rows` of `S`, one host thread each, results in row order.
pub fn sweep<S: Scenario>(rows: &[S::Row]) -> Vec<S::Point> {
    crate::par_sweep(rows, |_, row| S::run(row))
}

/// [`run_rows`] over [`Scenario::ROWS`].
pub fn run<S: Scenario>() -> Vec<S::Point> {
    run_rows::<S>(S::ROWS)
}

/// Run `rows` of `S`, print the table and the headline summary, and
/// write every output file under [`OUT_DIR`].
pub fn run_rows<S: Scenario>(rows: &[S::Row]) -> Vec<S::Point> {
    let points = sweep::<S>(rows);
    println!("{}", table::<S>(&points));
    println!("{}", S::summary(&points));
    let paths = emit::<S>(Path::new(OUT_DIR), &points).expect("write experiment files");
    let paths: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    println!("\n(written: {})", paths.join(", "));
    points
}

/// Each point's cells, checked against the column list.
fn rows<S: Scenario>(points: &[S::Point]) -> impl Iterator<Item = Vec<String>> + '_ {
    let columns = S::COLUMNS.split(',').count();
    points.iter().map(move |p| {
        let cells = S::cells(p);
        let n = cells.len();
        assert_eq!(
            n,
            columns,
            "{}: a row has {n} cells for {columns} columns",
            S::NAME
        );
        cells
    })
}

/// The CSV committed under `tests/golden/`: [`Scenario::COLUMNS`], then
/// one line of cells per point.
pub fn csv<S: Scenario>(points: &[S::Point]) -> String {
    let mut out = format!("{}\n", S::COLUMNS);
    for cells in rows::<S>(points) {
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// The CSV's columns as an aligned text table.
fn table<S: Scenario>(points: &[S::Point]) -> String {
    let mut t = TextTable::new(S::COLUMNS.split(',').collect());
    for cells in rows::<S>(points) {
        t.row(cells);
    }
    t.render()
}

/// Write `S`'s CSV, then each snapshot, under `dir`; returns the paths in
/// that order.
pub fn emit<S: Scenario>(dir: &Path, points: &[S::Point]) -> io::Result<Vec<PathBuf>> {
    let csv_name = format!("{}.csv", S::NAME);
    let mut paths = vec![write_file(dir, &csv_name, &csv::<S>(points))?];
    for (name, body) in S::snapshots(points) {
        paths.push(write_file(dir, name, &body)?);
    }
    Ok(paths)
}

/// Write one output file under `dir`, creating the directory.
pub(crate) fn write_file(dir: &Path, name: &str, body: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, body)?;
    Ok(path)
}

/// `on` / `off`, the label of a row that toggles one feature.
pub(crate) fn on_off(on: bool) -> String {
    (if on { "on" } else { "off" }).to_owned()
}

/// The strict-parser check every captured exposition snapshot passes:
/// valid text, at least eight metric families, more samples than
/// families.
pub(crate) fn check_exposition(prom: &str) {
    let (families, samples) =
        simkit::validate_prometheus_text(prom).expect("exposition snapshot is valid");
    assert!(
        families >= 8 && samples > families,
        "expected a populated exposition, got {families} families / {samples} samples"
    );
}

/// The appliance image every replica boots from.
pub(crate) fn fleet_image() -> ApplianceImage {
    ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    }
}

/// A fleet of `replicas` booting [`fleet_image`], with the defaults of
/// [`FleetSpec::with_image`] (replicated storage) otherwise.
pub(crate) fn fleet_spec(replicas: usize) -> FleetSpec {
    let mut spec = FleetSpec::with_image(fleet_image());
    spec.initial_replicas = replicas;
    spec
}

/// Cold-start every appliance of `fleet`, publish the tier's one
/// `app.exe` (64 KB, running for `lasting` and producing `output` bytes),
/// and drain.
pub(crate) fn provision(sim: &mut Sim, fleet: &Rc<Fleet>, lasting: Duration, output: f64) {
    sim.run();
    let app = ExecutionProfile::quick().lasting(lasting).producing(output);
    fleet.publish(sim, "app.exe", 64 * 1024, app, |_| {});
    sim.run();
}

/// [`Fleet::new`] on `spec`, then [`provision`].
pub(crate) fn boot(sim: &mut Sim, spec: FleetSpec, lasting: Duration, output: f64) -> Rc<Fleet> {
    let fleet = Fleet::new(sim, spec);
    provision(sim, &fleet, lasting, output);
    fleet
}

/// `fleet`'s dispatcher as an open-loop generator's sink.
pub(crate) fn sink(fleet: &Fleet) -> Rc<SubmitFn> {
    let dispatcher = Rc::clone(fleet.dispatcher());
    Rc::new(move |sim, req, done| dispatcher.submit(sim, req, done))
}

/// An autoscaler whose load thresholds are parked, so replacing a lost
/// replica is the only decision it can make.
pub(crate) fn replacement_only(min_replicas: usize, max_replicas: usize) -> AutoscalerConfig {
    AutoscalerConfig {
        interval: Duration::from_secs(15),
        cooldown: Duration::from_secs(60),
        scale_up_load: f64::INFINITY,
        scale_down_load: 0.0,
        min_replicas,
        max_replicas,
        ..AutoscalerConfig::default()
    }
}

/// What a [`pace`]d load counted.
#[derive(Default)]
pub(crate) struct Paced {
    /// Requests submitted.
    pub issued: Cell<u64>,
    /// Requests answered successfully.
    pub ok: Cell<u64>,
    /// Requests answered with a fault.
    pub bad: Cell<u64>,
    /// End-to-end seconds of each successful request, in completion order.
    pub latencies: RefCell<Vec<f64>>,
}

/// Per-arrival hook of [`pace`]: runs at arrival `n` before its submit
/// and returns the request's principal.
type Arrive = Rc<dyn Fn(&mut Sim, u64) -> Option<String>>;

/// Submit one invocation of `app` to `fleet`'s dispatcher now, then every
/// `gap` while the clock is not past `until`. `arrive(sim, n)` runs at the
/// `n`th arrival, before its submit, and returns its principal.
pub(crate) fn pace(
    sim: &mut Sim,
    fleet: &Rc<Fleet>,
    gap: Duration,
    until: SimTime,
    arrive: impl Fn(&mut Sim, u64) -> Option<String> + 'static,
) -> Rc<Paced> {
    let paced = Rc::new(Paced::default());
    arrival(
        sim,
        Rc::clone(fleet),
        gap,
        until,
        0,
        Rc::new(arrive),
        Rc::clone(&paced),
    );
    paced
}

fn arrival(
    sim: &mut Sim,
    fleet: Rc<Fleet>,
    gap: Duration,
    until: SimTime,
    n: u64,
    arrive: Arrive,
    paced: Rc<Paced>,
) {
    if sim.now() > until {
        return;
    }
    let principal = arrive(sim, n);
    paced.issued.set(paced.issued.get() + 1);
    let (counts, sent) = (Rc::clone(&paced), sim.now());
    fleet.dispatcher().clone().submit(
        sim,
        Request::Invoke {
            service: "app".into(),
            args: Vec::new(),
            principal,
        },
        Box::new(move |sim, res| {
            if res.is_ok() {
                counts.ok.set(counts.ok.get() + 1);
                let secs = (sim.now() - sent).as_secs_f64();
                counts.latencies.borrow_mut().push(secs);
            } else {
                counts.bad.set(counts.bad.get() + 1);
            }
        }),
    );
    sim.schedule(gap, move |sim| {
        arrival(sim, fleet, gap, until, n + 1, arrive, paced)
    });
}

/// The principal of a paced tier's `n`th arrival: three tenants in turn.
pub(crate) fn tenant_of_three(n: u64) -> Option<String> {
    const TENANTS: [&str; 3] = ["alice", "bob", "carol"];
    Some(TENANTS[(n % 3) as usize].into())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Halves;

    impl Scenario for Halves {
        type Row = u32;
        type Point = (u32, f64);
        const NAME: &'static str = "halves";
        const ROWS: &'static [u32] = &[1, 2, 3];
        const COLUMNS: &'static str = "n,half";
        fn run(&n: &u32) -> (u32, f64) {
            (n, f64::from(n) / 2.0)
        }
        fn cells(p: &(u32, f64)) -> Vec<String> {
            vec![p.0.to_string(), format!("{:.2}", p.1)]
        }
        fn snapshots(points: &[(u32, f64)]) -> Vec<(&'static str, String)> {
            vec![("halves.prom", format!("# {} points\n", points.len()))]
        }
        fn summary(points: &[(u32, f64)]) -> String {
            format!("{} rows", points.len())
        }
        fn check(points: &[(u32, f64)]) {
            assert!(points.iter().all(|p| p.1 * 2.0 == f64::from(p.0)));
        }
    }

    /// Declares one more cell than columns.
    struct Ragged;

    impl Scenario for Ragged {
        type Row = u32;
        type Point = u32;
        const NAME: &'static str = "ragged";
        const ROWS: &'static [u32] = &[7];
        const COLUMNS: &'static str = "n";
        fn run(&n: &u32) -> u32 {
            n
        }
        fn cells(p: &u32) -> Vec<String> {
            vec![p.to_string(), "extra".into()]
        }
        fn summary(_: &[u32]) -> String {
            String::new()
        }
        fn check(_: &[u32]) {}
    }

    #[test]
    fn csv_and_table_render_the_one_column_list() {
        let points = sweep::<Halves>(Halves::ROWS);
        Halves::check(&points);
        assert_eq!(csv::<Halves>(&points), "n,half\n1,0.50\n2,1.00\n3,1.50\n");
        assert_eq!(
            table::<Halves>(&points),
            "n  half\n-------\n1  0.50\n2  1.00\n3  1.50\n"
        );
    }

    /// The CSV and the table render through the same cell-count check.
    #[test]
    #[should_panic(expected = "ragged: a row has 2 cells for 1 columns")]
    fn a_row_wider_than_the_columns_panics_at_render() {
        csv::<Ragged>(&sweep::<Ragged>(Ragged::ROWS));
    }

    #[test]
    fn emit_writes_the_csv_then_each_snapshot() {
        let dir = std::env::temp_dir().join(format!("onserve-emit-{}", std::process::id()));
        let points = sweep::<Halves>(&[4]);
        let paths = emit::<Halves>(&dir, &points).expect("emit");
        assert_eq!(paths, vec![dir.join("halves.csv"), dir.join("halves.prom")]);
        let read = |p: &PathBuf| std::fs::read_to_string(p).expect("read back");
        assert_eq!(read(&paths[0]), "n,half\n4,2.00\n");
        assert_eq!(read(&paths[1]), "# 1 points\n");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
