//! Per-layer probes: host timings of public calls made with inputs shaped
//! like the workload's own — its executable size, its invoke envelope,
//! its final UDDI registry and health plane.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use blobstore::BlobDb;
use fleet::{HealthConfig, HealthPlane};
use onserve::deployment::synth_payload;
use simkit::Duration;
use wsstack::soap::Envelope;
use wsstack::XmlNode;

use crate::trace::TraceRun;
use crate::workload::Workload;

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 31;
/// Host time one batch aims for.
const BATCH_NS: u128 = 2_000_000;

/// Median over [`BATCHES`] of the mean host nanoseconds of one call of
/// `call` on state made fresh for each batch by `fresh` (untimed).
fn per_call_ns<S>(mut fresh: impl FnMut(usize) -> S, mut call: impl FnMut(&mut S, usize)) -> f64 {
    let mut state = fresh(1);
    let t = Instant::now();
    call(&mut state, 0);
    let n = (BATCH_NS / t.elapsed().as_nanos().max(1)).clamp(1, 100_000) as usize;
    let mut per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = fresh(n);
            let t = Instant::now();
            for i in 0..n {
                call(&mut state, i);
            }
            let ns = t.elapsed().as_nanos() as f64 / n as f64;
            drop(black_box(state));
            ns
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[BATCHES / 2]
}

/// `BlobDb::load` of the workload's executable, microseconds.
pub fn blob_load_us(w: Workload) -> f64 {
    let data = synth_payload(w.exe_len(), 0x5eed ^ w.exe_len() as u64);
    let mut db = BlobDb::new();
    db.insert("app.exe", "probe", Vec::new(), &data)
        .expect("fresh database accepts the executable");
    per_call_ns(
        |_| (),
        |_, _| {
            black_box(
                db.load(black_box("app.exe"))
                    .expect("probe executable loads"),
            );
        },
    ) / 1e3
}

/// `BlobDb::insert` of an executable the size the workload writes,
/// microseconds (each batch fills a fresh database).
pub fn blob_insert_us(w: Workload) -> f64 {
    let data = synth_payload(w.insert_len(), 0x5eed ^ w.insert_len() as u64);
    per_call_ns(
        |n| {
            (
                BlobDb::new(),
                (0..n).map(|i| format!("wl{i}.exe")).collect::<Vec<_>>(),
            )
        },
        |(db, names), i| {
            black_box(
                db.insert(&names[i], "probe", Vec::new(), black_box(&data))
                    .expect("names are distinct"),
            );
        },
    ) / 1e3
}

fn invoke_envelope(w: Workload) -> Envelope {
    Envelope::request(w.service(), "execute")
}

/// `Envelope::wire_size` of the workload's invoke envelope, nanoseconds.
pub fn wire_size_ns(w: Workload) -> f64 {
    let env = invoke_envelope(w);
    per_call_ns(
        |_| (),
        |_, _| {
            black_box(black_box(&env).wire_size());
        },
    )
}

/// Serialize, re-parse and decode the workload's invoke envelope
/// (`to_xml` → `XmlNode::parse` → `Envelope::parse`), microseconds.
pub fn soap_roundtrip_us(w: Workload) -> f64 {
    let env = invoke_envelope(w);
    per_call_ns(
        |_| (),
        |_, _| {
            let text = black_box(&env).to_xml().to_xml();
            let doc = XmlNode::parse(&text).expect("own output parses");
            black_box(Envelope::parse(&doc).expect("own envelope decodes"));
        },
    ) / 1e3
}

/// `UddiRegistry::find` for the invoked service on the fleet's registry
/// as the run left it, microseconds.
pub fn uddi_find_us(run: &TraceRun) -> f64 {
    let registry = Rc::clone(run.prepared.fleet.registry());
    let service = run.prepared.workload.service();
    per_call_ns(
        |_| (),
        |_, _| {
            black_box(registry.borrow_mut().find(black_box(service)).len());
        },
    ) / 1e3
}

/// `HealthPlane::prometheus_text`, milliseconds: on the run's own plane
/// where the workload has one, otherwise on a plane fed the run's
/// completed-request latencies across its replicas.
pub fn health_export_ms(run: &TraceRun) -> f64 {
    let p = &run.prepared;
    let now = p.sim.now();
    let plane = p.health.clone().unwrap_or_else(|| {
        let plane = HealthPlane::new(HealthConfig::default());
        let names = p.fleet.active_replica_names();
        let lat = &run.outcome.sorted_latency_s;
        let span = now.since(p.window_start()).as_secs_f64();
        for (i, &l) in lat.iter().enumerate() {
            let at = p.window_start() + Duration::from_secs_f64(span * i as f64 / lat.len() as f64);
            let replica = &names[i % names.len()];
            plane.record_attempt(at, replica, Duration::from_secs_f64(l), false);
        }
        plane
    });
    per_call_ns(
        |_| (),
        |_, _| {
            black_box(plane.prometheus_text(black_box(now)));
        },
    ) / 1e6
}
