//! Criterion benches for the simkit kernel hot paths — the same scenarios
//! `--bin perfbaseline` tracks in `BENCH_kernel.json`, exposed through the
//! criterion harness for interactive comparison runs.
//!
//! Run with: `cargo bench -p onserve-bench --bench kernel`

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use simkit::wheel::TimerWheel;
use simkit::{Duration, PsServer, Recorder, ServerConfig, Sim, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    const EVENTS: u64 = 1024;
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("queue_push_pop_1024", |b| {
        b.iter(|| {
            let mut sim = Sim::new(1);
            for i in 0..EVENTS {
                sim.schedule(Duration::from_micros(i), |_| {});
            }
            sim.run();
            black_box(sim.now())
        })
    });
    g.finish();
}

fn bench_wheel(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    const EVENTS: u64 = 1024;
    g.throughput(Throughput::Elements(EVENTS));
    g.bench_function("wheel_push_pop_1024", |b| {
        b.iter(|| {
            let mut w: TimerWheel<u32> = TimerWheel::new();
            for i in 0..EVENTS {
                w.push(i, i, 0);
            }
            while w.pop_next(u64::MAX, |_| true).is_some() {}
            black_box(w.cursor())
        })
    });
    const CASCADES: u64 = 512;
    g.throughput(Throughput::Elements(CASCADES));
    g.bench_function("wheel_cascade_512", |b| {
        b.iter(|| {
            let mut w: TimerWheel<u32> = TimerWheel::new();
            for i in 0..CASCADES {
                w.push(i * 65_536, i, 0);
            }
            while w.pop_next(u64::MAX, |_| true).is_some() {}
            black_box(w.cursor())
        })
    });
    const TICKS: u64 = 16;
    const PER_TICK: u64 = 64;
    g.throughput(Throughput::Elements(TICKS * PER_TICK));
    g.bench_function("same_tick_batch_64x16", |b| {
        b.iter(|| {
            let mut sim = Sim::new(4);
            for t in 0..TICKS {
                for _ in 0..PER_TICK {
                    sim.schedule(Duration::from_micros(t), |_| {});
                }
            }
            sim.run();
            black_box(sim.now())
        })
    });
    g.finish();
}

fn bench_ps_flows(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    for n in [2u64, 16, 64] {
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("ps_flows_{n}"), |b| {
            b.iter(|| {
                let mut sim = Sim::new(2);
                let srv = PsServer::new(ServerConfig::named("srv", 100.0));
                for i in 0..n {
                    PsServer::submit(&srv, &mut sim, 1.0 + i as f64, |_| {});
                }
                sim.run();
                black_box(sim.now())
            })
        });
    }
    g.finish();
}

fn bench_recorder(c: &mut Criterion) {
    const SPANS: u64 = 256;
    let mut g = c.benchmark_group("metrics");
    g.throughput(Throughput::Elements(SPANS));
    g.bench_function("add_span_256", |b| {
        b.iter(|| {
            let mut rec = Recorder::new(Duration::from_secs(3));
            for i in 0..SPANS {
                let t0 = SimTime::from_secs_f64(i as f64 * 0.7);
                let t1 = SimTime::from_secs_f64(i as f64 * 0.7 + 0.9);
                rec.add_span("host.cpu.busy", t0, t1, 0.9);
            }
            black_box(rec.total("host.cpu.busy"))
        })
    });
    g.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    const PAIRS: u64 = 4096;
    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(PAIRS));
    g.bench_function("span_disabled", |b| {
        b.iter(|| {
            let mut sim = Sim::new(3);
            for _ in 0..PAIRS {
                let id = sim.span_begin("bench.span");
                sim.span_end(id);
            }
            black_box(&mut sim);
        })
    });
    g.bench_function("span_enabled", |b| {
        b.iter(|| {
            let mut sim = Sim::new(3);
            sim.enable_telemetry();
            for _ in 0..PAIRS {
                let id = sim.span_begin("bench.span");
                sim.span_end(id);
            }
            black_box(&mut sim);
        })
    });
    g.finish();
}

fn bench_fig6_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.bench_function("fig6_invocation", |b| {
        b.iter(|| black_box(onserve_bench::fig6_pipeline(false).r.sim.now()))
    });
    g.finish();
}

criterion_group!(
    kernel,
    bench_event_queue,
    bench_wheel,
    bench_ps_flows,
    bench_recorder,
    bench_telemetry,
    bench_fig6_pipeline
);
criterion_main!(kernel);
