//! The repo benchmark: end-to-end and per-layer metrics of the onServe
//! fleet simulator on three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <population|tenants|publish> --seed <n|dev|heldout> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's independent replications untraced,
//! repeats them while another pass fits in `--seconds` of host time, and
//! reports the end-to-end metrics. `--trace 1` runs the seed's first
//! replication once untraced and once traced, checks that both produced
//! the same virtual results, and reports the per-layer metrics. Either
//! way the last line of standard output is one JSON object; a failed
//! check exits with code 1. `--digest` prints only the virtual-result
//! digest of each replication the seed runs (how `perfbench/digests.tsv`
//! is filled).

mod probes;
mod trace;
mod workload;

use std::time::{Duration as HostDuration, Instant};

use trace::{run_traced, TraceRun, SHARED_SPANS};
use workload::{pool, replication_seed, run_untraced, setup, Outcome, Timed, Workload};

/// The seed `--seed dev` names: the one to tune and develop against.
const DEV_SEED: u64 = 1;
/// The seed `--seed heldout` names: keep it out of development, and
/// recheck a claimed gain on it.
const HELDOUT_SEED: u64 = 1_000_003;
/// Set-ups timed after each pass, besides the pass's own; `setup_s` is
/// the median of all of them.
const SETUPS_PER_PASS: usize = 10;
/// Least share of the traced window's host time the per-step charges
/// must account for.
const MIN_ACCOUNTED: f64 = 0.95;
/// Spans whose virtual time is reported as a share of the completed
/// requests' total latency (`vshare.*`). Their p50 and p99 are printed
/// with sample counts but are not metrics: on some workloads every span
/// lasts the same (configured job runtime, uncontended staging).
const VIRTUAL_SPANS: [&str; 3] = ["agent.stage", "gram.job", "poller.poll_loop"];
/// Recorded virtual-result digests: `workload<TAB>seed<TAB>digest`.
const DIGESTS: &str = include_str!("../digests.tsv");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    digest_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEV_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut digest_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            digest_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = match value.as_str() {
                    "dev" => DEV_SEED,
                    "heldout" => HELDOUT_SEED,
                    n => n.parse().map_err(|_| format!("bad seed {n:?}"))?,
                }
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        digest_only,
    })
}

/// The digest recorded for `(workload, seed)`, if any.
fn recorded_digest(w: Workload, seed: u64) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split('\t');
            Some((f.next()?, f.next()?.parse::<u64>().ok()?, f.next()?))
        })
        .find(|&(name, s, _)| name == w.name() && s == seed)
        .and_then(|(_, _, d)| u64::from_str_radix(d.trim(), 16).ok())
}

/// Fail unless `o` matches the digest recorded for `(w, seed)`.
fn check_recorded(w: Workload, seed: u64, o: &Outcome) -> Result<(), String> {
    match recorded_digest(w, seed) {
        Some(d) if d != o.digest => Err(format!(
            "virtual results changed: digest {:016x}, recorded {d:016x}",
            o.digest
        )),
        Some(_) => {
            println!("digest {:016x} matches the recorded value", o.digest);
            Ok(())
        }
        None => {
            println!("digest {:016x} (no value recorded for this seed)", o.digest);
            Ok(())
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn describe(o: &Outcome) {
    let c = &o.counters;
    println!(
        "virtual: issued {} completed {} failed {} (shed {}) over {} s; {} events; \
         pooled latency p50 {:.6} s p99 {:.6} s over {} samples",
        o.issued,
        o.completed,
        o.failed,
        c.shed,
        o.horizon_s,
        o.events,
        o.latency(50.0),
        o.latency(99.0),
        o.sorted_latency_s.len()
    );
}

/// The workload's replications, then further passes over them while
/// they fit in `seconds` of host time; the end-to-end metrics. Host
/// throughput divides the replications' requests by the sum of each
/// replication's median window time over its passes. Latency
/// percentiles are the mean over replications of each one's percentile;
/// counts pool. Extra set-ups after every pass spread the `setup_s`
/// samples over the whole run.
fn end_to_end(a: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let w = a.workload;
    let reps = w.replications();
    let budget = HostDuration::from_secs(a.seconds);
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); reps];
    let mut parts: Vec<Outcome> = Vec::new();
    let mut passes = 0;
    let mut longest = HostDuration::ZERO;
    // Past the replications, start another pass only while the longest
    // one so far still fits in the budget.
    while passes < reps || t0.elapsed() + longest <= budget {
        let tp = Instant::now();
        let i = passes % reps;
        let seed = replication_seed(a.seed, i);
        let Timed {
            setup: s,
            window: dt,
            outcome,
        } = run_untraced(w, seed)?;
        passes += 1;
        setups.push(s.as_secs_f64());
        windows[i].push(dt.as_secs_f64());
        match parts.get(i) {
            None => {
                check_recorded(w, seed, &outcome)?;
                parts.push(outcome);
            }
            Some(o) if o.digest != outcome.digest => {
                return Err(format!("seed {seed}: same seed, different virtual results"))
            }
            Some(_) => {}
        }
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            drop(setup(w, seed, false));
            setups.push(t.elapsed().as_secs_f64());
        }
        longest = longest.max(tp.elapsed());
    }
    let o = pool(&parts);
    describe(&o);
    println!(
        "host: {passes} passes over {reps} replications, window seconds per pass {windows:.3?}; \
         {} set-ups",
        setups.len()
    );
    let window: f64 = windows.into_iter().map(median).sum();
    let mean_pct = |p: f64| parts.iter().map(|o| o.latency(p)).sum::<f64>() / reps as f64;
    let metrics = vec![
        metric("setup_s", median(setups), "s"),
        metric("req_per_host_s", o.issued as f64 / window, "req/s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric("lat_p50_s", mean_pct(50.0), "s"),
        metric("lat_p99_s", mean_pct(99.0), "s"),
        metric("goodput_rps", o.goodput_rps(), "req/s"),
        metric("ok_frac", o.ok_frac(), "ratio"),
    ];
    Ok((o, metrics))
}

/// One untraced and one traced pass, the result-neutrality checks, the
/// probes, and the per-layer metrics.
fn per_layer(a: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let w = a.workload;
    let base = run_untraced(w, a.seed)?;
    check_recorded(w, a.seed, &base.outcome)?;
    let run = run_traced(w, a.seed)?;
    if run.outcome != base.outcome {
        return Err(format!(
            "tracing changed the virtual results: digest {:016x} traced, {:016x} untraced",
            run.outcome.digest, base.outcome.digest
        ));
    }
    let traced_s = run.window.as_secs_f64();
    let untraced_s = base.window.as_secs_f64();
    let accounted = run.stepped_ns() as f64 / 1e9 / traced_s;
    describe(&run.outcome);
    println!(
        "tracing: window {traced_s:.3} s traced vs {untraced_s:.3} s untraced \
         (overhead {:.3} s); steps account for {:.1}% of the traced window",
        traced_s - untraced_s,
        accounted * 100.0
    );
    if !(MIN_ACCOUNTED..=1.0).contains(&accounted) {
        return Err(format!(
            "per-step charges account for {:.1}% of the traced window",
            accounted * 100.0
        ));
    }
    print_breakdown(&run);
    let o = &run.outcome;
    let c = &o.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let submit = run.prepared.ledger.submit_ns();
    let (enqueued, offered) = run
        .prepared
        .fleet
        .dispatcher()
        .qos_tenants()
        .values()
        .fold((0, 0), |(e, i), q| (e + q.enqueued, i + q.issued));
    println!("samples: {} submits", submit.len());
    for name in VIRTUAL_SPANS {
        println!(
            "virtual {name}: p50 {:.6} s p99 {:.6} s over {} spans",
            run.span_percentile(name, 50.0),
            run.span_percentile(name, 99.0),
            run.span_count(name)
        );
    }
    let latency_total: f64 = o.sorted_latency_s.iter().sum();
    let mut m = vec![
        metric("blobstore.load_us", probes::blob_load_us(w), "us"),
        metric("blobstore.insert_us", probes::blob_insert_us(w), "us"),
    ];
    for name in SHARED_SPANS {
        m.push(metric(
            &format!("host_share.{name}"),
            run.share(name),
            "ratio",
        ));
    }
    m.push(metric("host_share.other", run.other_share(), "ratio"));
    m.push(metric(
        "host_share.unattributed",
        ratio(run.unattributed_ns, run.stepped_ns()),
        "ratio",
    ));
    for name in VIRTUAL_SPANS {
        m.push(metric(
            &format!("vshare.{name}"),
            run.span_total(name) / latency_total,
            "ratio",
        ));
    }
    m.extend([
        metric("engine.events_per_req", ratio(o.events, o.issued), "count"),
        metric(
            "engine.ns_per_event",
            untraced_s * 1e9 / base.outcome.events as f64,
            "ns",
        ),
        metric(
            "engine.queue_high_water",
            run.prepared.sim.profile().queue_depth_high_water as f64,
            "count",
        ),
        metric("soap.wire_size_ns", probes::wire_size_ns(w), "ns"),
        metric("soap.roundtrip_us", probes::soap_roundtrip_us(w), "us"),
        metric("uddi.find_us", probes::uddi_find_us(&run), "us"),
        metric(
            "dispatcher.submit_us",
            submit.iter().sum::<u64>() as f64 / submit.len().max(1) as f64 / 1e3,
            "us",
        ),
        metric(
            "dispatcher.affinity_hit_ratio",
            ratio(
                c.affinity_hits,
                c.affinity_hits + c.affinity_misses + c.affinity_repins,
            ),
            "ratio",
        ),
        metric(
            "dispatcher.retry_ratio",
            ratio(c.retried, c.accepted),
            "ratio",
        ),
        metric(
            "dispatcher.shed_frac",
            ratio(c.shed, c.accepted + c.shed),
            "ratio",
        ),
        metric(
            "dispatcher.door_queued_frac",
            ratio(enqueued, offered),
            "ratio",
        ),
        metric("health.export_ms", probes::health_export_ms(&run), "ms"),
        metric(
            "agent.polls_per_req",
            ratio(run.counters["agent.polls"], o.completed),
            "count",
        ),
        metric(
            "session_cache_hit_ratio",
            ratio(
                run.counters["onserve.session_cache_hit"],
                run.counters["onserve.invocations"],
            ),
            "ratio",
        ),
        metric("trace.overhead_s", traced_s - untraced_s, "s"),
        metric("trace.accounted_ratio", accounted, "ratio"),
    ]);
    Ok((run.outcome.clone(), m))
}

/// Host time per first-opened span, largest first.
fn print_breakdown(run: &TraceRun) {
    let total = run.stepped_ns() as f64;
    let mut rows: Vec<(&str, u64)> = run.step_ns.iter().map(|(k, v)| (*k, *v)).collect();
    rows.push(("(unattributed)", run.unattributed_ns));
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, ns) in rows {
        println!(
            "  {name:<24} {:>9.3} s {:>6.2}%",
            ns as f64 / 1e9,
            ns as f64 / total * 100.0
        );
    }
}

fn json_line(correct: bool, o: Option<&Outcome>, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.map_or(0, |o| o.issued),
        o.map_or(0, |o| o.failed),
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.digest_only {
        for i in 0..args.workload.replications() {
            let seed = replication_seed(args.seed, i);
            match run_untraced(args.workload, seed) {
                Ok(t) => println!(
                    "{}\t{seed}\t{:016x}",
                    args.workload.name(),
                    t.outcome.digest
                ),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    println!(
        "perfbench: workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    }
    .and_then(|(o, m)| match m.iter().find(|m| !m.value.is_finite()) {
        Some(bad) => Err(format!("{} is not a finite number", bad.name)),
        None => Ok((o, m)),
    });
    match result {
        Ok((o, metrics)) => println!("{}", json_line(true, Some(&o), &metrics)),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", json_line(false, None, &[]));
            std::process::exit(1);
        }
    }
}
