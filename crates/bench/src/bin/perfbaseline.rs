//! Tracked kernel performance baseline.
//!
//! Measures the simkit hot paths (event queue, processor-sharing server,
//! metric recorder), the blob database's read path (first and repeat
//! `BlobDb::load` of a 64 KB executable) and the end-to-end Figure-6
//! pipeline, and writes the results as machine-readable JSON to
//! `BENCH_kernel.json` at the repo root. CI and future optimisation PRs
//! diff this file to catch regressions.
//!
//! Run with: `cargo run --release -p onserve-bench --bin perfbaseline`
//!
//! With `--check`, the binary re-measures every scenario and compares
//! against the committed `BENCH_kernel.json` instead of overwriting it,
//! exiting non-zero if any scenario regressed by more than 25% — the
//! CI perf gate (`scripts/ci.sh`). The comparison is **min vs min**: on a
//! shared single-vCPU runner the sample mean swings ±50% run-to-run with
//! host preemption while the fastest sample — the preemption-free floor —
//! stays within a few percent, so the floor is what the gate trusts. A
//! scenario over tolerance is re-measured a few times before it is
//! flagged; real regressions from algorithmic changes survive retries and
//! are far larger than the margin anyway. When the runner itself is too
//! noisy to judge — median within-scenario sample spread over 1.35x —
//! over-tolerance scenarios are reported but the gate exits 0 (advisory):
//! a verdict from a machine that can't time a constant loop twice alike
//! is not a verdict.
//!
//! The criterion benches in `benches/kernel.rs` cover the kernel and
//! pipeline scenarios interactively; this binary exists because bins
//! cannot link dev-dependencies, and because a flat JSON file is easier to
//! track than criterion's output directory.

use std::time::{Duration as WallDuration, Instant};

use blobstore::BlobDb;
use onserve::deployment::synth_payload;
use simkit::wheel::TimerWheel;
use simkit::{Duration, PsServer, Recorder, ServerConfig, Sim};

/// One measured scenario.
struct Entry {
    name: &'static str,
    /// Mean nanoseconds per operation.
    mean_ns: f64,
    /// Fastest sample, ns per operation.
    min_ns: f64,
    /// Operations per second implied by the mean.
    ops_per_sec: f64,
    /// Slowest/fastest sample ratio — the scenario's own noise gauge. A
    /// quiet machine measures these loops within a few percent; host
    /// preemption on a shared runner shows up as spread well over 1.3.
    spread: f64,
}

/// Calibrate a batch to ~2 ms, then time `samples` batches of `routine`,
/// whose return value is the number of operations it performed.
fn measure(name: &'static str, samples: usize, mut routine: impl FnMut() -> u64) -> Entry {
    measure_with_setup(name, samples, |_| (), |_| routine())
}

/// [`measure`] with untimed per-batch state: `setup(batch)` builds what a
/// batch of `batch` routine calls consumes, and is dropped after timing.
fn measure_with_setup<S>(
    name: &'static str,
    samples: usize,
    mut setup: impl FnMut(u64) -> S,
    mut routine: impl FnMut(&mut S) -> u64,
) -> Entry {
    let target = WallDuration::from_millis(2);
    let mut batch: u64 = 1;
    loop {
        let mut state = setup(batch);
        let t0 = Instant::now();
        let mut ops = 0;
        for _ in 0..batch {
            ops += std::hint::black_box(routine(&mut state));
        }
        let el = t0.elapsed();
        std::hint::black_box(ops);
        if el >= target || batch >= 1 << 24 {
            if el > WallDuration::ZERO && el < target {
                let scale = target.as_secs_f64() / el.as_secs_f64();
                batch = ((batch as f64 * scale).ceil() as u64).max(batch);
            }
            break;
        }
        batch *= 2;
    }
    let mut total_ns = 0.0;
    let mut min_ns = f64::INFINITY;
    let mut max_ns: f64 = 0.0;
    for _ in 0..samples {
        let mut state = setup(batch);
        let t0 = Instant::now();
        let mut ops: u64 = 0;
        for _ in 0..batch {
            ops += std::hint::black_box(routine(&mut state));
        }
        let ns = t0.elapsed().as_nanos() as f64 / ops as f64;
        total_ns += ns;
        min_ns = min_ns.min(ns);
        max_ns = max_ns.max(ns);
    }
    let mean_ns = total_ns / samples as f64;
    Entry {
        name,
        mean_ns,
        min_ns,
        ops_per_sec: 1e9 / mean_ns,
        spread: max_ns / min_ns,
    }
}

/// Schedule-and-drain through the event queue; one op = one event.
fn bench_event_queue() -> Entry {
    const EVENTS: u64 = 1024;
    measure("engine.queue_push_pop", 20, || {
        let mut sim = Sim::new(1);
        for i in 0..EVENTS {
            sim.schedule(Duration::from_micros(i), |_| {});
        }
        sim.run();
        EVENTS
    })
}

/// The raw timer wheel, no boxed closures or kernel bookkeeping — the
/// structural cost `engine.queue_push_pop` pays on top of its event
/// dispatch. Same shape as that scenario: 1024 entries at distinct
/// ascending ticks, then a full drain. One op = one entry through.
fn bench_wheel_push_pop() -> Entry {
    const EVENTS: u64 = 1024;
    measure("engine.wheel_push_pop", 20, || {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for i in 0..EVENTS {
            w.push(i, i, 0);
        }
        while w.pop_next(u64::MAX, |_| true).is_some() {}
        EVENTS
    })
}

/// Worst-case wheel traffic: entries spread 65536 ticks apart land on
/// levels 2–4 and must cascade down level by level before level 0 can
/// stage them. One op = one entry pushed, cascaded, and popped.
fn bench_wheel_cascade() -> Entry {
    const EVENTS: u64 = 512;
    measure("engine.wheel_cascade", 20, || {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for i in 0..EVENTS {
            w.push(i * 65_536, i, 0);
        }
        while w.pop_next(u64::MAX, |_| true).is_some() {}
        EVENTS
    })
}

/// Same-tick batch execution through the full kernel: 64 events per tick
/// across 16 ticks, drained by `run`'s batched loop (one slot scan and
/// one clock update per tick instead of one queue pop per event). One op
/// = one executed event.
fn bench_same_tick_batch() -> Entry {
    const TICKS: u64 = 16;
    const PER_TICK: u64 = 64;
    measure("engine.same_tick_batch_64", 20, || {
        let mut sim = Sim::new(4);
        for t in 0..TICKS {
            for _ in 0..PER_TICK {
                sim.schedule(Duration::from_micros(t), |_| {});
            }
        }
        sim.run();
        TICKS * PER_TICK
    })
}

/// Metric-recording PS server under churn: submit `n` staggered flows,
/// run to completion. One op = one completed flow (each completion
/// triggers an advance + rate recompute + reschedule).
fn bench_ps_flows(name: &'static str, n: u64) -> Entry {
    measure(name, 20, move || {
        let mut sim = Sim::new(2);
        let srv = PsServer::new(ServerConfig::named("srv", 100.0));
        for i in 0..n {
            PsServer::submit(&srv, &mut sim, 1.0 + i as f64, |_| {});
        }
        sim.run();
        n
    })
}

/// Span accumulation into the bucketed recorder; one op = one add_span.
fn bench_recorder() -> Entry {
    const SPANS: u64 = 256;
    measure("metrics.add_span", 20, || {
        let mut rec = Recorder::new(Duration::from_secs(3));
        for i in 0..SPANS {
            let t0 = simkit::SimTime::from_secs_f64(i as f64 * 0.7);
            let t1 = simkit::SimTime::from_secs_f64(i as f64 * 0.7 + 0.9);
            rec.add_span("host.cpu.busy", t0, t1, 0.9);
        }
        SPANS
    })
}

/// The span API with telemetry off — the common case, which must cost no
/// more than a null check. One op = one begin/end pair.
fn bench_span_disabled() -> Entry {
    const PAIRS: u64 = 4096;
    measure("telemetry.span_disabled", 20, || {
        let mut sim = Sim::new(3);
        for _ in 0..PAIRS {
            let id = sim.span_begin("bench.span");
            sim.span_end(id);
        }
        std::hint::black_box(&mut sim);
        PAIRS
    })
}

/// The span API with telemetry on; one op = one recorded begin/end pair.
fn bench_span_enabled() -> Entry {
    const PAIRS: u64 = 4096;
    measure("telemetry.span_enabled", 20, || {
        let mut sim = Sim::new(3);
        sim.enable_telemetry();
        for _ in 0..PAIRS {
            let id = sim.span_begin("bench.span");
            sim.span_end(id);
        }
        std::hint::black_box(&mut sim);
        PAIRS
    })
}

/// Executable size of the blob read-path scenarios: the 64 KB app the
/// `millionuser` tier invokes.
const BLOB_LEN: usize = 64 * 1024;

/// A database holding one freshly inserted, never loaded `app.exe`.
fn blob_db() -> BlobDb {
    let mut db = BlobDb::new();
    let data = synth_payload(BLOB_LEN, 0x5eed ^ BLOB_LEN as u64);
    db.insert("app.exe", "bench", Vec::new(), &data)
        .expect("fresh database accepts the executable");
    db
}

/// First `BlobDb::load` of a row: decompress plus checksum. Each op loads
/// its own freshly inserted database, built before the batch is timed.
fn bench_blob_load_cold() -> Entry {
    measure_with_setup(
        "blobstore.load_cold_64k",
        20,
        |batch| ((0..batch).map(|_| blob_db()).collect::<Vec<_>>(), 0),
        |(dbs, next)| {
            std::hint::black_box(dbs[*next].load("app.exe").expect("executable loads"));
            *next += 1;
            1
        },
    )
}

/// Repeat `BlobDb::load` of a row already decoded and verified.
fn bench_blob_load_warm() -> Entry {
    measure_with_setup(
        "blobstore.load_warm_64k",
        20,
        |_| {
            let db = blob_db();
            db.load("app.exe").expect("executable loads");
            db
        },
        |db| {
            let data = db.load(std::hint::black_box("app.exe"));
            std::hint::black_box(data.expect("executable loads"));
            1
        },
    )
}

/// The full Figure-6 invocation pipeline; one op = one invocation.
fn bench_fig6_pipeline() -> Entry {
    measure("pipeline.fig6", 10, || {
        onserve_bench::fig6_pipeline(false);
        1
    })
}

/// Maximum tolerated min-ns ratio vs the committed baseline in `--check`.
const CHECK_TOLERANCE: f64 = 1.25;

/// Re-measurements granted to a scenario over tolerance before `--check`
/// flags it — absorbs a preemption spike landing on every sample of one
/// scenario's first pass.
const CHECK_RETRIES: usize = 3;

/// Pause before each `--check` retry. In CI the gate runs right after the
/// build and test steps; deferred kernel work (writeback, cache eviction)
/// keeps stealing the single vCPU for a while, so retrying back-to-back
/// just re-samples the same noise window.
const CHECK_SETTLE: WallDuration = WallDuration::from_millis(300);

/// Median per-scenario sample spread above which the runner is too noisy
/// for the gate's verdict to mean anything: regressions are still printed
/// but the exit code is 0 (advisory). A quiet machine stays well under
/// this; a shared vCPU being preempted mid-sample blows past it.
const NOISE_SPREAD_LIMIT: f64 = 1.35;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let scenarios: Vec<fn() -> Entry> = vec![
        bench_event_queue,
        bench_wheel_push_pop,
        bench_wheel_cascade,
        bench_same_tick_batch,
        || bench_ps_flows("server.ps_flows_2", 2),
        || bench_ps_flows("server.ps_flows_16", 16),
        || bench_ps_flows("server.ps_flows_64", 64),
        bench_recorder,
        bench_span_disabled,
        bench_span_enabled,
        bench_fig6_pipeline,
        bench_blob_load_cold,
        bench_blob_load_warm,
    ];
    let entries: Vec<Entry> = scenarios.iter().map(|f| f()).collect();

    for e in &entries {
        println!(
            "{:<24} {:>12.1} ns/op  (min {:>10.1})  {:>14.0} ops/s",
            e.name, e.mean_ns, e.min_ns, e.ops_per_sec
        );
    }

    // repo root = two levels above this crate's manifest
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf();
    let path = root.join("BENCH_kernel.json");

    if check {
        let committed = std::fs::read_to_string(&path).expect("read BENCH_kernel.json");
        let doc = simkit::telemetry::parse_json(&committed).expect("parse BENCH_kernel.json");
        let mut regressions = 0;
        for (i, e) in entries.iter().enumerate() {
            let base = doc
                .get(e.name)
                .and_then(|s| s.get("min_ns"))
                .and_then(|v| v.as_num());
            match base {
                None => eprintln!("  {:<24} no committed baseline (new scenario)", e.name),
                Some(base) => {
                    let mut floor = e.min_ns;
                    let mut attempts = 0;
                    while floor > base * CHECK_TOLERANCE && attempts < CHECK_RETRIES {
                        std::thread::sleep(CHECK_SETTLE);
                        floor = floor.min(scenarios[i]().min_ns);
                        attempts += 1;
                    }
                    if floor > base * CHECK_TOLERANCE {
                        eprintln!(
                            "REGRESSION {:<24} floor {:.1} ns/op vs baseline {:.1} (+{:.0}%)",
                            e.name,
                            floor,
                            base,
                            100.0 * (floor / base - 1.0)
                        );
                        regressions += 1;
                    }
                }
            }
        }
        let mut spreads: Vec<f64> = entries.iter().map(|e| e.spread).collect();
        spreads.sort_by(|a, b| a.total_cmp(b));
        let noise = spreads[spreads.len() / 2];
        if regressions > 0 {
            if noise > NOISE_SPREAD_LIMIT {
                eprintln!(
                    "perf check ADVISORY: {regressions} scenario(s) over tolerance, but the \
                     runner is too noisy to judge (median sample spread {noise:.2}x > \
                     {NOISE_SPREAD_LIMIT}x) — not failing; re-run on a quiet machine"
                );
                return;
            }
            eprintln!("perf check FAILED: {regressions} scenario(s) regressed");
            std::process::exit(1);
        }
        eprintln!("(perf check OK against {})", path.display());
        return;
    }

    let mut json = String::from("{\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "  \"{}\": {{ \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"ops_per_sec\": {:.0} }}{}\n",
            e.name, e.mean_ns, e.min_ns, e.ops_per_sec, comma
        ));
    }
    json.push_str("}\n");
    std::fs::write(&path, json).expect("write BENCH_kernel.json");
    eprintln!("(baseline written to {})", path.display());
}
