//! Failure injection across the stack: every layer's failure must surface
//! as a well-formed SOAP fault at the service consumer, with the
//! middleware's failure counter advancing — never a hang, never a lost
//! responder.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use gridsim::scheduler::ClusterScheduler;
use onserve::deployment::{Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use onserve::OnServeConfig;
use simkit::{Duration, Sim, KB};
use wsstack::{SoapFault, SoapValue};

fn publish(sim: &mut Sim, d: &Deployment, name: &str, profile: ExecutionProfile) {
    let req = d.upload_request(name, 16 * 1024, profile, &[]);
    d.portal.upload(sim, req, |_, r| {
        r.expect("publish");
    });
    sim.run();
}

fn invoke_expect_fault(sim: &mut Sim, d: &Deployment, service: &str) -> SoapFault {
    let fault: Rc<RefCell<Option<SoapFault>>> = Rc::new(RefCell::new(None));
    let f2 = fault.clone();
    d.invoke(sim, service, &[], move |_, r| {
        *f2.borrow_mut() = Some(r.expect_err("should fault"));
    });
    sim.run();
    let f = fault.borrow_mut().take().expect("fault delivered");
    f
}

#[test]
fn wrong_myproxy_passphrase_fails_authentication() {
    let mut sim = Sim::new(21);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    // publish with a *wrong* passphrase recorded in the service metadata;
    // the MyProxy exchange at invocation time must reject it
    let mut req = d.upload_request("app.exe", 8192, ExecutionProfile::quick(), &[]);
    req.grid_passphrase = "wrong".into();
    d.portal.upload(&mut sim, req, |_, r| {
        r.expect("publish");
    });
    sim.run();
    let fault = invoke_expect_fault(&mut sim, &d, "app");
    assert_eq!(fault.code, "soap:Server");
    assert!(fault.message.contains("passphrase"), "{fault}");
    assert_eq!(d.onserve.counters(), (1, 1));
}

#[test]
fn all_gatekeepers_down_surfaces_unavailable() {
    let mut sim = Sim::new(22);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    publish(&mut sim, &d, "app.exe", ExecutionProfile::quick());
    for site in d.grid.sites() {
        site.gatekeeper().borrow_mut().set_accepting(false);
    }
    let fault = invoke_expect_fault(&mut sim, &d, "app");
    assert_eq!(fault.code, "soap:Server");
    assert!(fault.message.contains("unavailable"), "{fault}");
}

#[test]
fn node_failure_mid_job_reports_job_failure() {
    let mut sim = Sim::new(23);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            broker: gridsim::BrokerPolicy::Fixed("lsu".into()),
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    publish(
        &mut sim,
        &d,
        "app.exe",
        ExecutionProfile::quick().lasting(Duration::from_secs(3600)),
    );
    let fault: Rc<RefCell<Option<SoapFault>>> = Rc::new(RefCell::new(None));
    let f2 = fault.clone();
    d.invoke(&mut sim, "app", &[], move |_, r| {
        *f2.borrow_mut() = Some(r.expect_err("should fault"));
    });
    // kill every node of the pinned site while the job runs
    let site = Rc::clone(d.grid.site("lsu").unwrap());
    let n_nodes = site.spec().nodes;
    let sched = Rc::clone(site.scheduler());
    sim.schedule(Duration::from_secs(120), move |sim| {
        for node in 0..n_nodes {
            ClusterScheduler::fail_node(&sched, sim, node);
        }
    });
    sim.run();
    let fault = fault.borrow_mut().take().expect("fault delivered");
    assert!(fault.message.contains("NodeFailure"), "{fault}");
}

#[test]
fn corrupt_database_blob_faults_before_grid_traffic() {
    let mut sim = Sim::new(24);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    publish(&mut sim, &d, "app.exe", ExecutionProfile::quick());
    d.onserve
        .db()
        .db()
        .borrow_mut()
        .corrupt_blob("app.exe")
        .unwrap();
    let fault = invoke_expect_fault(&mut sim, &d, "app");
    assert!(fault.message.contains("corrupt"), "{fault}");
}

#[test]
fn corrupting_a_warm_blob_faults_the_next_invoke_before_grid_traffic() {
    let mut sim = Sim::new(24);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    publish(&mut sim, &d, "app.exe", ExecutionProfile::quick());
    // a successful invoke decodes and keeps the payload
    let ok = Rc::new(Cell::new(false));
    let o2 = ok.clone();
    d.invoke(&mut sim, "app", &[], move |_, r| {
        r.expect("warm invoke");
        o2.set(true);
    });
    sim.run();
    assert!(ok.get());
    let grid_traffic = |d: &Deployment| {
        let submitted: u64 = d
            .grid
            .sites()
            .iter()
            .map(|s| s.gatekeeper().borrow().counters().0)
            .sum();
        (submitted, d.onserve.session_counters())
    };
    let before = grid_traffic(&d);
    d.onserve
        .db()
        .db()
        .borrow_mut()
        .corrupt_blob("app.exe")
        .unwrap();
    let fault = invoke_expect_fault(&mut sim, &d, "app");
    assert!(fault.message.contains("corrupt"), "{fault}");
    assert_eq!(grid_traffic(&d), before, "no authentication or submission");
    assert_eq!(d.onserve.counters(), (2, 1));
}

#[test]
fn watchdog_kills_runaway_invocation() {
    let mut sim = Sim::new(25);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            invocation_timeout: Duration::from_secs(120),
            poll_timeout: Duration::from_secs(12 * 3600),
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    publish(
        &mut sim,
        &d,
        "runaway.exe",
        ExecutionProfile::quick().lasting(Duration::from_secs(6 * 3600)),
    );
    let fault = invoke_expect_fault(&mut sim, &d, "runaway");
    assert!(fault.message.contains("watchdog"), "{fault}");
    // exactly one response despite the poller continuing/failing later
    assert_eq!(d.onserve.counters().1, 1);
}

#[test]
fn watchdog_timeout_marks_invocation_span_failed() {
    // same runaway scenario as above, but with telemetry on: the span
    // tree must show the invocation root failed with the watchdog's
    // timeout attributes, while the grid stages still nest under it
    let mut sim = Sim::new(25);
    sim.enable_telemetry();
    let spec = DeploymentSpec {
        config: OnServeConfig {
            invocation_timeout: Duration::from_secs(120),
            poll_timeout: Duration::from_secs(12 * 3600),
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    publish(
        &mut sim,
        &d,
        "runaway.exe",
        ExecutionProfile::quick().lasting(Duration::from_secs(6 * 3600)),
    );
    let fault = invoke_expect_fault(&mut sim, &d, "runaway");
    assert!(fault.message.contains("watchdog"), "{fault}");

    let t = sim.telemetry().expect("telemetry on");
    let root = *t
        .spans_named("onserve.invoke")
        .first()
        .expect("onserve.invoke span recorded");
    let rec = t.span(root).expect("root record");
    assert!(rec.failed, "invocation root must be marked failed");
    assert!(rec.end.is_some(), "invocation root must be closed");
    assert_eq!(
        rec.attr("error").map(ToString::to_string).as_deref(),
        Some("watchdog_timeout")
    );
    assert_eq!(
        rec.attr("timeout_secs").map(ToString::to_string).as_deref(),
        Some("120")
    );
    assert!(
        t.spans_named("agent.submit")
            .into_iter()
            .any(|id| t.is_descendant(id, root)),
        "grid stages must nest under the failed invocation root"
    );
}

#[test]
fn poll_timeout_reports_grid_error() {
    let mut sim = Sim::new(26);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            poll_timeout: Duration::from_secs(60),
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    publish(
        &mut sim,
        &d,
        "slow.exe",
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(3600))
            .producing(0.0),
    );
    let fault = invoke_expect_fault(&mut sim, &d, "slow");
    assert!(fault.message.contains("polling timed out"), "{fault}");
}

#[test]
fn walltime_exceeded_job_reports_failure_to_consumer() {
    let mut sim = Sim::new(27);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    // jitterless profile whose true runtime blows its own walltime:
    // walltime_factor < 1 means the estimate is too tight
    let profile = ExecutionProfile {
        runtime: Duration::from_secs(300),
        runtime_jitter: 0.0,
        cores: 1,
        output_bytes: 1.0 * KB,
        walltime_factor: 0.5,
    };
    publish(&mut sim, &d, "tight.exe", profile);
    let fault = invoke_expect_fault(&mut sim, &d, "tight");
    assert!(fault.message.contains("WalltimeExceeded"), "{fault}");
}

#[test]
fn failures_do_not_poison_subsequent_invocations() {
    let mut sim = Sim::new(28);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    publish(
        &mut sim,
        &d,
        "app.exe",
        ExecutionProfile::quick().producing(2.0 * KB),
    );
    // 1: fail via corrupt blob
    d.onserve
        .db()
        .db()
        .borrow_mut()
        .corrupt_blob("app.exe")
        .unwrap();
    let _ = invoke_expect_fault(&mut sim, &d, "app");
    // 2: repair by re-uploading under a new name and invoking successfully
    publish(
        &mut sim,
        &d,
        "app2.exe",
        ExecutionProfile::quick().producing(2.0 * KB),
    );
    let ok = Rc::new(Cell::new(false));
    let o2 = ok.clone();
    d.invoke(&mut sim, "app2", &[], move |_, r| {
        assert!(matches!(r, Ok(SoapValue::Binary { .. })));
        o2.set(true);
    });
    sim.run();
    assert!(ok.get());
    assert_eq!(d.onserve.counters(), (2, 1));
}

#[test]
fn retry_extension_survives_node_failure_by_moving_sites() {
    let mut sim = Sim::new(29);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            job_retries: 2,
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    publish(
        &mut sim,
        &d,
        "app.exe",
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(600))
            .producing(4.0 * KB),
    );
    let got: Rc<RefCell<Option<Result<SoapValue, SoapFault>>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    d.invoke(&mut sim, "app", &[], move |_, r| {
        *g.borrow_mut() = Some(r);
    });
    // after the job starts (staging ≈ 17 s for 16 KB + auth), find where it
    // runs and kill that whole site
    let grid = Rc::clone(&d.grid);
    sim.schedule(Duration::from_secs(120), move |sim| {
        for site in grid.sites() {
            if site.scheduler().borrow().running_count() > 0 {
                let n = site.spec().nodes;
                let sched = Rc::clone(site.scheduler());
                for node in 0..n {
                    ClusterScheduler::fail_node(&sched, sim, node);
                }
                break;
            }
        }
    });
    sim.run();
    let result = got.borrow_mut().take().expect("responded");
    assert!(
        matches!(result, Ok(SoapValue::Binary { .. })),
        "retry should succeed elsewhere: {result:?}"
    );
    assert_eq!(d.onserve.counters(), (1, 0));
    // two different sites did work
    let active_sites = d
        .grid
        .sites()
        .iter()
        .filter(|s| {
            sim.recorder_ref()
                .total(&format!("{}.core_seconds", s.name()))
                > 0.0
        })
        .count();
    assert!(active_sites >= 2, "job must have moved ({active_sites} sites active)");
}

#[test]
fn retry_extension_walks_past_unavailable_gatekeepers() {
    let mut sim = Sim::new(30);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            job_retries: 10,
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    publish(&mut sim, &d, "app.exe", ExecutionProfile::quick().producing(1.0 * KB));
    // all but one gatekeeper down
    for site in d.grid.sites() {
        if site.name() != "lsu" {
            site.gatekeeper().borrow_mut().set_accepting(false);
        }
    }
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    d.invoke(&mut sim, "app", &[], move |_, r| {
        o.set(r.is_ok());
    });
    sim.run();
    assert!(ok.get(), "should eventually land on the one live site");
    assert!(sim.recorder_ref().total("lsu.core_seconds") > 0.0);
}

#[test]
fn zero_retries_is_the_paper_behaviour() {
    // identical outage, default config: the first Unavailable is final
    let mut sim = Sim::new(31);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    publish(&mut sim, &d, "app.exe", ExecutionProfile::quick());
    for site in d.grid.sites() {
        if site.name() != "lsu" {
            site.gatekeeper().borrow_mut().set_accepting(false);
        }
    }
    // MostFreeCores picks the biggest (down) site first ⇒ fault
    let fault = invoke_expect_fault(&mut sim, &d, "app");
    assert!(fault.message.contains("unavailable"), "{fault}");
}
