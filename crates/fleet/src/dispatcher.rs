//! The fleet front end: one published endpoint fanning out to N replicas.
//!
//! The dispatcher owns the request path the paper never built: it holds the
//! published UDDI binding, admits requests under a bounded in-flight limit
//! (shedding overload as a SOAP `Server` fault, the way a SOAP intermediary
//! would), and routes each admitted invocation to one replica under a
//! pluggable [`Policy`]. Uploads are *broadcast* — every replica must hold
//! the executable before the generated service can be served from any of
//! them.
//!
//! Backends are abstract ([`Backend`]) so the routing and conservation
//! logic is testable without booting appliances; the production backend
//! wrapping a replica's [`onserve::Deployment`] lives in [`crate::fleet`].
//!
//! ## Structure
//!
//! [`Dispatcher`] is a thin `Sim`-facing shell over three plain-data
//! stages, none of which sees the `Sim` or holds a callback:
//!
//! * `Admission` — the global window, the optional per-tenant QoS stage
//!   and the conservation counters: one `offer` decides admit, queue or
//!   shed, and one `admit` path serves fresh, granted and upload requests.
//! * `Router` — slots, the affinity pin table, cursors and the canary
//!   share: candidate filters as passes over one buffer, then pickers
//!   tried in order.
//! * `OpLedger` — every dispatched attempt and its watchdog.
//!
//! The stages live in one `RefCell`, and the shell keeps one rule: borrow
//! the state, decide, drop the borrow, then call out (backends,
//! responders, hooks). Any of those may re-enter the dispatcher.
//!
//! ## Failure model
//!
//! Replicas can die without draining ([`Dispatcher::eject_backend`]). Every
//! dispatched attempt is registered in a central *op table*; ejecting a
//! backend resolves its outstanding ops as `backend lost`, and any response
//! the dead replica produces later finds its op gone and is dropped (no
//! zombie completions, no double-settle). Lost or suspect invocations are
//! retried on surviving replicas under [`RetryConfig`] — capped attempts,
//! exponential backoff with seeded jitter — and shed as a SOAP fault only
//! when retries are exhausted or no backend remains. Uploads are *not*
//! retried (at-most-once; see DESIGN.md §failure model). An optional
//! per-attempt timeout treats a silent backend as dead and ejects it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use onserve::profile::ExecutionProfile;
use simkit::{Duration, Sim, SimTime, SpanId};
use wsstack::{SoapFault, SoapValue};

use crate::geo::GeoPlane;
use crate::health::HealthPlane;

mod admission;
mod ledger;
mod router;

use admission::{Admission, Offer, QosTag, Release};
pub use admission::{QosConfig, QosTier, TenantQos};
use ledger::{Op, OpLedger};
use router::{Affinity, Env, Router};

/// One front-door request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Provision a new executable on every replica (portal upload).
    Upload {
        /// Executable file name (must be fleet-unique; replica databases
        /// reject duplicates).
        file_name: String,
        /// Synthetic payload size in bytes.
        len: usize,
        /// What the executable does when invoked.
        profile: ExecutionProfile,
    },
    /// Call a published service on one replica.
    Invoke {
        /// Service name (the executable's base name).
        service: String,
        /// SOAP arguments.
        args: Vec<(String, SoapValue)>,
        /// Stable identity of the authenticating principal — today the
        /// service owner's grid user. Session-affinity routing keys on it;
        /// `None` opts the request out of affinity.
        principal: Option<String>,
    },
}

impl Request {
    /// The invoking principal (uploads carry none).
    fn principal(&self) -> Option<&str> {
        match self {
            Request::Invoke { principal, .. } => principal.as_deref(),
            Request::Upload { .. } => None,
        }
    }
}

/// Completion callback: called exactly once per submitted request.
pub type Responder = Box<dyn FnOnce(&mut Sim, Result<SoapValue, SoapFault>)>;

/// Something that can serve front-door requests — a replica, or a test
/// double.
pub trait Backend {
    /// Stable replica name (the metric prefix of its appliance host).
    fn name(&self) -> &str;
    /// Serve one request, calling `done` exactly once (now or later).
    /// After the backend's owner has ejected it, `done` may also never
    /// fire — the dispatcher's op table absorbs both shapes.
    fn serve(&self, sim: &mut Sim, req: Request, done: Responder);
    /// Liveness hint. A backend that answers with a fault *while
    /// unhealthy* is treated as lost (fault-signal detection) rather than
    /// as an application error. Defaults to healthy.
    fn healthy(&self) -> bool {
        true
    }
}

/// Replica-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Cycle through live replicas in order.
    RoundRobin,
    /// Pick the replica with the fewest outstanding requests (first wins
    /// ties).
    LeastOutstanding,
    /// Pick the replica whose appliance CPU has accumulated the least busy
    /// time, read straight from the recorder's `<name>.cpu.busy` series
    /// (the same rollup [`Sim::profile`] reports; first wins ties).
    /// Spreads load by *measured* work, not request counts.
    UtilizationWeighted,
}

impl Policy {
    /// All policies, for sweeps and property tests.
    pub const ALL: [Policy; 3] = [
        Policy::RoundRobin,
        Policy::LeastOutstanding,
        Policy::UtilizationWeighted,
    ];

    /// Short label for tables and span attributes.
    pub fn label(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::LeastOutstanding => "least-outstanding",
            Policy::UtilizationWeighted => "utilization-weighted",
        }
    }
}

/// Front-door retry behaviour for invocations that lose their replica.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Retries per request on top of the first attempt.
    pub max_retries: u32,
    /// Backoff before retry *n* is `base * 2^(n-1)`, capped at `max`.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: the backoff is scaled by a seeded
    /// uniform draw from `[1-jitter, 1+jitter]` so synchronized losses
    /// don't retry in lock-step.
    pub jitter: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 3,
            base_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(5),
            jitter: 0.2,
        }
    }
}

impl RetryConfig {
    /// Backoff before retry `attempt` (1-based), jittered from the sim rng.
    fn backoff(&self, sim: &mut Sim, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
        let capped = exp.min(self.max_backoff);
        if self.jitter <= 0.0 {
            return capped;
        }
        let j = self.jitter.min(1.0);
        let scale = sim.rng().range_f64(1.0 - j, 1.0 + j);
        Duration::from_secs_f64(capped.as_secs_f64() * scale)
    }
}

/// Session-affinity (sticky-routing) behaviour.
///
/// With affinity on, each invocation carrying a [`Request::Invoke`]
/// `principal` is pinned to one replica, so that replica's per-`OnServe`
/// grid-session cache keeps hitting instead of every replica paying its
/// own MyProxy delegation for the same principal. Pins never outlive their
/// replica: eject/drain orphans them immediately, and an orphaned key is
/// reassigned by rendezvous hash over the live set — a pure function of
/// (key, live replica names), so same-seed runs replay byte-identically
/// no matter how the loss interleaved with traffic.
#[derive(Clone, Copy, Debug)]
pub struct AffinityConfig {
    /// Pinned keys kept at most; when full, the oldest pin is dropped and
    /// that key starts over as a fresh assignment.
    pub capacity: usize,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig { capacity: 1024 }
    }
}

/// Dispatcher parameters.
#[derive(Clone, Copy, Debug)]
pub struct DispatcherConfig {
    /// Replica-selection policy.
    pub policy: Policy,
    /// Admission limit: requests in flight across the whole fleet before
    /// new arrivals are shed.
    pub max_in_flight: usize,
    /// Retry invocations whose replica was lost mid-flight. `None`
    /// fail-fasts the loss to the client as a SOAP fault.
    pub retry: Option<RetryConfig>,
    /// Eject a backend that has not answered an attempt within this long
    /// (the timeout dead-backend signal). `None` disables the watchdog.
    pub request_timeout: Option<Duration>,
    /// Pin each principal to one replica. `None` routes every attempt by
    /// `policy` alone.
    pub affinity: Option<AffinityConfig>,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight: 64,
            retry: Some(RetryConfig::default()),
            request_timeout: None,
            affinity: None,
        }
    }
}

/// Conservation ledger: `accepted == completed + faulted` once the
/// simulation drains, and `accepted + shed` equals every request ever
/// submitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchCounters {
    /// Requests admitted past the in-flight limit.
    pub accepted: u64,
    /// Admitted requests that completed successfully.
    pub completed: u64,
    /// Admitted requests that came back as a SOAP fault.
    pub faulted: u64,
    /// Requests refused at the door (admission limit or no replicas).
    pub shed: u64,
    /// Admitted requests that had to wait behind another request already
    /// outstanding on their chosen replica.
    pub queued: u64,
    /// Retry attempts dispatched after a replica loss (does not change
    /// `accepted`: a retried request is still one admitted request).
    pub retried: u64,
    /// Backends thrown out of rotation without drain.
    pub ejected: u64,
    /// Attempts routed to the replica their principal was pinned to.
    pub affinity_hits: u64,
    /// Attempts whose principal had no pin yet (pinned by base policy).
    pub affinity_misses: u64,
    /// Attempts whose pin had been invalidated by a replica loss or drain
    /// (reassigned by rendezvous hash).
    pub affinity_repins: u64,
    /// Attempts whose pinned replica sat behind a severed site and were
    /// forwarded to a peer site with the pin preserved (federation); the
    /// principal comes home when the site reconnects.
    pub forwarded: u64,
}

/// Why a request with nowhere to go is refused.
const NO_REPLICAS: &str = "no replicas in rotation";

/// How one dispatched attempt ended.
enum OpOutcome {
    /// The backend answered (well-formed response or application fault).
    Answer(Result<SoapValue, SoapFault>),
    /// The named backend was ejected while the attempt was outstanding,
    /// or its watchdog fired.
    Lost(String),
}

/// One front-door request on its way in: admitted, parked at the door,
/// or shed.
struct Arrival {
    req: Request,
    done: Responder,
    span: SpanId,
}

/// One admitted invocation making its way through attempts.
struct Ticket {
    arrival: Arrival,
    retries: u32,
    /// Present iff the request was admitted through the QoS stage.
    qos: Option<QosTag>,
}

/// The join of one upload broadcast: answers once every branch has.
struct Join {
    span: SpanId,
    remaining: usize,
    first_fault: Option<SoapFault>,
    done: Option<Responder>,
}

/// What resolving an op continues.
enum Then {
    /// An invocation attempt: settle, or retry on loss.
    Attempt(Ticket),
    /// One branch of an upload broadcast.
    Branch(Rc<RefCell<Join>>),
}

/// A registered attempt: `(op id, backend, slot depth)`.
type Opened = (u64, Rc<dyn Backend>, usize);
type DrainHook = Rc<dyn Fn(&mut Sim, &str)>;
type UploadHook = Rc<dyn Fn(&mut Sim, &Request)>;

/// Everything mutable, behind the dispatcher's one cell.
struct State {
    admission: Admission<Arrival>,
    router: Router,
    ledger: OpLedger<Then>,
    /// Optional fleet health plane; when attached, every attempt feeds a
    /// per-replica latency/error sample and every admitted request feeds
    /// queue-depth and per-tenant series. Pure measurement — attaching it
    /// schedules nothing and draws no randomness.
    health: Option<Rc<HealthPlane>>,
    /// Optional geo plane; when attached, routing filters out replicas on
    /// severed sites, first-sight picks prefer the site nearest the
    /// request's origin (spilling outward when a site saturates), and —
    /// with federation on — pinned work whose home site is severed is
    /// forwarded to the nearest healthy peer without losing the pin.
    geo: Option<Rc<GeoPlane>>,
    /// Held as `Rc` and cloned out before each call, so a hook may
    /// re-enter the dispatcher — even drain another idle backend, whose
    /// retirement then fires the hook again.
    drain_hook: Option<DrainHook>,
    upload_hook: Option<UploadHook>,
}

/// The front-end request router.
pub struct Dispatcher {
    cfg: DispatcherConfig,
    state: RefCell<State>,
}

impl Dispatcher {
    /// New dispatcher with no backends yet.
    pub fn new(cfg: DispatcherConfig) -> Rc<Dispatcher> {
        Rc::new(Dispatcher {
            cfg,
            state: RefCell::new(State {
                admission: Admission::new(cfg.max_in_flight),
                router: Router::new(cfg.policy, cfg.affinity),
                ledger: OpLedger::default(),
                health: None,
                geo: None,
                drain_hook: None,
                upload_hook: None,
            }),
        })
    }

    /// Turn on the per-tenant QoS stage: invocations carrying a principal
    /// are admitted against per-tenant quotas, wait in weighted-fair door
    /// queues when at quota, and shed (with per-tenant accounting) when
    /// their queue overflows. Attach before traffic; anonymous requests
    /// and uploads keep the plain global gate.
    pub fn set_qos(&self, cfg: QosConfig) {
        self.state.borrow_mut().admission.set_qos(cfg);
    }

    /// Is the per-tenant QoS stage attached?
    pub fn qos_enabled(&self) -> bool {
        self.state.borrow().admission.qos_enabled()
    }

    /// Per-tenant QoS ledgers and live state (empty map with QoS off).
    /// Every tenant satisfies `issued == accepted + shed + queued`, and
    /// an under-quota tenant only ever waits because the global window is
    /// full (or no replica is left) — the fairness invariant
    /// [`Dispatcher::audit`] checks.
    pub fn qos_tenants(&self) -> BTreeMap<String, TenantQos> {
        self.state.borrow().admission.tenants()
    }

    /// Attach a health plane. From now on every answered (or lost) attempt
    /// records a per-replica latency/error sample and every admitted
    /// invocation records in-flight depth and its tenant. Measurement
    /// only: the request path is unchanged event-for-event.
    pub fn set_health_plane(&self, plane: Rc<HealthPlane>) {
        self.state.borrow_mut().health = Some(plane);
    }

    /// The attached health plane, if any.
    pub fn health_plane(&self) -> Option<Rc<HealthPlane>> {
        self.state.borrow().health.clone()
    }

    /// Attach a geo plane: routing becomes latency-aware (nearest healthy
    /// site first, spill outward at the plane's saturation threshold) and
    /// severed sites drop out of rotation for the length of their outage
    /// window. Attach the same plane to the owning [`crate::Fleet`] (see
    /// [`crate::Fleet::attach_geo`]) so replicas are placed and WAN costs
    /// are charged; a fleet can carry the plane *without* the dispatcher
    /// knowing — that is the site-oblivious control.
    pub fn set_geo(&self, plane: Rc<GeoPlane>) {
        self.state.borrow_mut().geo = Some(plane);
    }

    /// The attached geo plane, if any.
    pub fn geo(&self) -> Option<Rc<GeoPlane>> {
        self.state.borrow().geo.clone()
    }

    /// Put `name` on (or take it off) probation: it stays in rotation but
    /// receives only probe traffic (one route in eight) until cleared.
    /// Returns `false` if no live backend has that name.
    pub fn set_probation(&self, name: &str, on: bool) -> bool {
        self.state.borrow_mut().router.set_probation(name, on)
    }

    /// Live backends currently on probation.
    pub fn probation_count(&self) -> usize {
        self.state.borrow().router.probation_count()
    }

    /// Attempts outstanding across all backends (queued + being served).
    pub fn queued_depth(&self) -> usize {
        self.state.borrow().router.queued_depth()
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.cfg.policy
    }

    /// Put a backend into rotation.
    pub fn add_backend(&self, backend: Rc<dyn Backend>) {
        self.state.borrow_mut().router.add(backend);
    }

    /// Take `name` out of rotation. New requests stop routing to it
    /// immediately, sticky or not; once its outstanding requests finish,
    /// the slot is dropped and the drain hook fires. Returns `false` if
    /// no live backend has that name.
    pub fn remove_backend(&self, sim: &mut Sim, name: &str) -> bool {
        let idle = self.state.borrow_mut().router.drain(name);
        if idle == Some(true) {
            self.retire(sim, name);
        }
        idle.is_some()
    }

    /// Called once per drained (removed + idle) backend, with its name.
    pub fn set_drain_hook(&self, f: impl Fn(&mut Sim, &str) + 'static) {
        self.state.borrow_mut().drain_hook = Some(Rc::new(f));
    }

    /// Called once per *accepted* upload broadcast, before any backend
    /// sees it — the fleet uses this to catalog the executable for
    /// replicas that boot later.
    pub fn set_upload_hook(&self, f: impl Fn(&mut Sim, &Request) + 'static) {
        self.state.borrow_mut().upload_hook = Some(Rc::new(f));
    }

    /// Backends still in rotation.
    pub fn live_backends(&self) -> usize {
        self.state.borrow().router.live()
    }

    /// Requests currently admitted and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.state.borrow().admission.in_flight()
    }

    /// The conservation ledger.
    pub fn counters(&self) -> DispatchCounters {
        self.state.borrow().admission.counters
    }

    /// Check the dispatcher's cross-stage invariants at an event boundary:
    /// slot ops and the op table match one to one, every live affinity
    /// pin targets a backend in rotation, every QoS tenant conserves
    /// (`issued == accepted + shed + queued`), and an under-quota tenant
    /// waits only while the window is full or no replica is in rotation.
    pub fn audit(&self) -> Result<(), String> {
        let st = self.state.borrow();
        st.router.audit(&st.ledger.entries())?;
        st.admission.audit(st.router.live())
    }

    /// Admit and route one request; `done` is called exactly once whether
    /// the request is served, faulted, or shed at the door.
    pub fn submit(self: &Rc<Self>, sim: &mut Sim, req: Request, done: Responder) {
        let span = sim.span_begin("dispatcher.dispatch");
        sim.span_attr(span, "policy", self.cfg.policy.label());
        let offer = {
            let mut st = self.state.borrow_mut();
            let live = st.router.live();
            st.admission.offer(req.principal(), live, sim.now())
        };
        let arrival = Arrival { req, done, span };
        match offer {
            Offer::Admit(tag) => {
                if let Some(tag) = &tag {
                    sim.span_attr(span, "tenant", tag.tenant.clone());
                    sim.span_attr(span, "tier", tag.tier.label());
                }
                self.admit(sim, arrival, tag);
            }
            Offer::Queue(tag) => {
                sim.span_attr(span, "tenant", tag.tenant.clone());
                sim.span_attr(span, "tier", tag.tier.label());
                sim.span_attr(span, "qos", "queued");
                sim.counter_add("dispatcher.qos_enqueued", 1);
                let depth = self.state.borrow_mut().admission.park(&tag, arrival) as u64;
                self.health(|p| p.record_tenant_queue_depth(sim.now(), &tag.tenant, depth));
            }
            Offer::Shed(why, tenant) => {
                if let Some(t) = &tenant {
                    sim.span_attr(span, "tenant", t.clone());
                }
                self.shed(sim, arrival, tenant.as_deref(), why);
            }
        }
    }

    /// Refuse a request at the door (admission already counted it).
    fn shed(&self, sim: &mut Sim, a: Arrival, tenant: Option<&str>, why: &str) {
        if let Some(tenant) = tenant {
            sim.counter_add("dispatcher.qos_shed", 1);
            self.health(|p| p.record_tenant_shed(sim.now(), tenant));
        }
        sim.counter_add("dispatcher.shed", 1);
        sim.span_attr(a.span, "outcome", "shed");
        sim.span_fail(a.span, why);
        (a.done)(sim, Err(SoapFault::server(&format!("dispatcher: {why}"))));
    }

    /// The one admission path — fresh arrival, DRR grant from a door
    /// queue, or upload — then the first attempt or the broadcast. A QoS
    /// ticket carries its tag from here on: retries, re-pins and canary
    /// shifts never re-enter admission, so tenant and tier survive
    /// end-to-end.
    fn admit(self: &Rc<Self>, sim: &mut Sim, a: Arrival, qos: Option<QosTag>) {
        let in_flight = self.state.borrow_mut().admission.admit(qos.as_ref()) as u64;
        sim.counter_add("dispatcher.accepted", 1);
        if let Request::Upload { .. } = a.req {
            return self.broadcast(sim, a);
        }
        sim.span_attr(a.span, "in_flight", in_flight);
        self.health(|p| {
            let depth = self.queued_depth() as u64;
            p.record_submit(sim.now(), in_flight, depth, a.req.principal());
            if let Some(tag) = &qos {
                p.record_tenant_accepted(sim.now(), &tag.tenant);
            }
        });
        let ticket = Ticket {
            arrival: a,
            retries: 0,
            qos,
        };
        self.attempt(sim, ticket);
    }

    /// Capacity freed (any request closed): grant door-queued work by
    /// deficit round-robin until the window refills or nothing is
    /// eligible, or — once the last replica is gone — shed it all. A no-op
    /// with QoS off.
    fn pump(self: &Rc<Self>, sim: &mut Sim) {
        loop {
            let live = self.live_backends();
            let release = self.state.borrow_mut().admission.release(live);
            match release {
                Some(Release::Grant(tag, a)) => {
                    sim.counter_add("dispatcher.qos_granted", 1);
                    self.admit(sim, a, Some(tag));
                }
                Some(Release::Shed(tag, a)) => self.shed(sim, a, Some(&tag.tenant), NO_REPLICAS),
                None => return,
            }
        }
    }

    /// One routing attempt for an admitted invocation (first try or retry).
    fn attempt(self: &Rc<Self>, sim: &mut Sim, ticket: Ticket) {
        let (span, retries) = (ticket.arrival.span, ticket.retries);
        let req = ticket.arrival.req.clone();
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let env = Env {
            now: sim.now(),
            geo: st.geo.as_deref(),
            recorder: sim.recorder_ref(),
        };
        let Some((idx, affinity)) = st.router.route(req.principal(), &env) else {
            drop(guard);
            // every backend is gone: re-shed to the client as a SOAP fault
            return self.fail_ticket(sim, ticket, NO_REPLICAS);
        };
        if let Some(a) = affinity {
            *a.counter(&mut st.admission.counters) += 1;
        }
        let (id, backend, depth) = self.open(sim, st, idx, Then::Attempt(ticket));
        st.admission.counters.queued += u64::from(depth > 1);
        let geo = st.geo.clone();
        drop(guard);
        if affinity == Some(Affinity::Forward) {
            geo.expect("only a geo plane forwards").note_forward();
        }
        if let Some(a) = affinity {
            let (label, counter) = a.names();
            sim.span_attr(span, "affinity", label);
            sim.counter_add(counter, 1);
        }
        self.health(|p| p.record_depth(sim.now(), backend.name(), depth as u64));
        if depth > 1 {
            sim.counter_add("dispatcher.queued", 1);
        }
        sim.span_attr(span, "replica", backend.name().to_owned());
        if retries > 0 {
            sim.span_attr(span, "attempt", retries as u64);
        }
        let prev = sim.set_span_parent(span); // replica spans nest under ours
        backend.serve(sim, req, self.answer(id));
        sim.set_span_parent(prev);
    }

    /// Register one attempt on the slot at `idx`: open its op, note it on
    /// the slot, arm the watchdog. Returns `(op id, backend, slot depth)`.
    fn open(self: &Rc<Self>, sim: &mut Sim, st: &mut State, idx: usize, then: Then) -> Opened {
        let backend = Rc::clone(st.router.backend(idx));
        let id = st.ledger.open(backend.name(), sim.now(), then);
        let depth = st.router.assign(idx, id);
        if let Some(t) = self.cfg.request_timeout {
            let this = Rc::clone(self);
            let ev = sim.schedule(t, move |sim| this.op_timed_out(sim, id));
            st.ledger.get_mut(id).expect("just opened").watchdog = Some(ev);
        }
        (id, backend, depth)
    }

    /// The responder a backend answers op `id` through.
    fn answer(self: &Rc<Self>, id: u64) -> Responder {
        let this = Rc::clone(self);
        Box::new(move |sim, res| this.op_answered(sim, id, res))
    }

    /// The attempt's replica was lost: retry it, or give up when the cap
    /// is hit or retry is disabled.
    fn retry_or_fail(self: &Rc<Self>, sim: &mut Sim, ticket: Ticket, lost: &str) {
        let why = match self.cfg.retry {
            Some(rc) if ticket.retries < rc.max_retries => {
                return self.retry(sim, ticket, lost, rc)
            }
            Some(_) => "retries exhausted",
            None => "retry disabled",
        };
        self.fail_ticket(sim, ticket, &format!("replica {lost} lost; {why}"));
    }

    /// Back off, then go again on whatever survives.
    fn retry(self: &Rc<Self>, sim: &mut Sim, mut ticket: Ticket, lost: &str, rc: RetryConfig) {
        ticket.retries += 1;
        self.state.borrow_mut().admission.counters.retried += 1;
        sim.counter_add("dispatcher.retried", 1);
        let rspan = sim.span_child("dispatcher.retry", ticket.arrival.span);
        sim.span_attr(rspan, "replica", lost.to_owned());
        sim.span_attr(rspan, "attempt", ticket.retries as u64);
        if let Some(tag) = &ticket.qos {
            // the retry keeps the admission-time identity: it re-routes,
            // it does not re-queue
            sim.span_attr(rspan, "tenant", tag.tenant.clone());
            sim.span_attr(rspan, "tier", tag.tier.label());
        }
        let delay = rc.backoff(sim, ticket.retries);
        sim.span_attr(rspan, "backoff_ms", delay.as_secs_f64() * 1e3);
        let this = Rc::clone(self);
        // the retry span covers the backoff window
        sim.schedule(delay, move |sim| {
            sim.span_end(rspan);
            this.attempt(sim, ticket);
        });
    }

    /// Resolve an admitted invocation exactly once.
    fn settle(self: &Rc<Self>, sim: &mut Sim, t: Ticket, res: Result<SoapValue, SoapFault>) {
        self.close(sim, t.arrival.span, t.qos.as_ref(), res.is_ok());
        (t.arrival.done)(sim, res);
    }

    /// Resolve an admitted invocation as a dispatcher-level fault.
    fn fail_ticket(self: &Rc<Self>, sim: &mut Sim, ticket: Ticket, why: &str) {
        let fault = SoapFault::server(&format!("dispatcher: {why}"));
        self.settle(sim, ticket, Err(fault));
    }

    /// Fan an admitted upload out to every live replica; the front-door
    /// request completes when the slowest replica has it, and faults if
    /// any replica faulted.
    fn broadcast(self: &Rc<Self>, sim: &mut Sim, a: Arrival) {
        // register every branch as an op first (ejecting a target backend
        // then resolves its branch as a fault instead of hanging the
        // join), serve after
        let (branches, hook) = {
            let mut guard = self.state.borrow_mut();
            let st = &mut *guard;
            let targets = st.router.live_slots();
            let join = Rc::new(RefCell::new(Join {
                span: a.span,
                remaining: targets.len(),
                first_fault: None,
                done: Some(a.done),
            }));
            let branch = |i| self.open(sim, st, i, Then::Branch(Rc::clone(&join)));
            let branches: Vec<Opened> = targets.into_iter().map(branch).collect();
            (branches, st.upload_hook.clone())
        };
        sim.span_attr(a.span, "fanout", branches.len() as u64);
        if let Some(hook) = hook {
            hook(sim, &a.req);
        }
        self.health(|p| {
            for (_, backend, depth) in &branches {
                p.record_depth(sim.now(), backend.name(), *depth as u64);
            }
        });
        for (id, backend, _) in branches {
            // an earlier branch's synchronous serve may have ejected this
            // target: its op is resolved, so it must not be served
            if self.state.borrow().ledger.backend_of(id).is_some() {
                let prev = sim.set_span_parent(a.span);
                backend.serve(sim, a.req.clone(), self.answer(id));
                sim.set_span_parent(prev);
            }
        }
    }

    /// A resolved op continues its ticket or its broadcast join.
    fn resolve(self: &Rc<Self>, sim: &mut Sim, then: Then, outcome: OpOutcome) {
        let (join, res) = match (then, outcome) {
            (Then::Attempt(t), OpOutcome::Answer(res)) => return self.settle(sim, t, res),
            (Then::Attempt(t), OpOutcome::Lost(lost)) => return self.retry_or_fail(sim, t, &lost),
            (Then::Branch(join), OpOutcome::Answer(res)) => (join, res),
            (Then::Branch(join), OpOutcome::Lost(lost)) => {
                let why = format!("replica {lost} lost during upload");
                (join, Err(SoapFault::server(&why)))
            }
        };
        let finished = {
            let mut j = join.borrow_mut();
            if let Err(f) = res {
                j.first_fault.get_or_insert(f);
            }
            j.remaining -= 1;
            let done = (j.remaining == 0).then(|| j.done.take().expect("single join"));
            done.map(|done| (j.span, done, j.first_fault.take()))
        };
        if let Some((span, done, fault)) = finished {
            self.close(sim, span, None, fault.is_none());
            done(sim, fault.map_or(Ok(SoapValue::Bool(true)), Err));
        }
    }

    // -- op table -----------------------------------------------------------

    /// A backend's `done` fired: take the op out of the table and its
    /// slot, cancel its watchdog, retire a draining slot that just went
    /// idle, and continue. A stale op (already resolved by an eject) is
    /// dropped here — this is what makes a dead replica's late answer a
    /// no-op instead of a double-settle.
    fn op_answered(self: &Rc<Self>, sim: &mut Sim, id: u64, res: Result<SoapValue, SoapFault>) {
        let (op, retire) = {
            let mut st = self.state.borrow_mut();
            let Some(op) = st.ledger.take(id) else {
                return; // zombie response from an ejected backend
            };
            let retire = st.router.release(&op.backend, id);
            (op, retire)
        };
        if retire {
            self.retire(sim, &op.backend);
        }
        // fault-signal detection: an error from a backend that reports
        // unhealthy (or has already left) is a loss, not an application
        // fault
        let backend = self.state.borrow().router.backend_named(&op.backend);
        let outcome = if res.is_err() && !backend.is_some_and(|b| b.healthy()) {
            OpOutcome::Lost(op.backend.clone())
        } else {
            OpOutcome::Answer(res)
        };
        self.finish(sim, op, outcome);
    }

    /// Settle an op already taken out of the table: disarm its watchdog,
    /// sample its latency, and continue its ticket or join.
    fn finish(self: &Rc<Self>, sim: &mut Sim, op: Op<Then>, outcome: OpOutcome) {
        if let Some(ev) = op.watchdog {
            sim.cancel_event(ev);
        }
        let took = sim.now() - op.started;
        let failed = !matches!(outcome, OpOutcome::Answer(Ok(_)));
        self.health(|p| p.record_attempt(sim.now(), &op.backend, took, failed));
        self.resolve(sim, op.then, outcome);
    }

    /// Watchdog: an attempt went unanswered for `request_timeout`. The
    /// whole backend is suspect — eject it, which resolves this op and
    /// every other op outstanding on it as lost.
    fn op_timed_out(self: &Rc<Self>, sim: &mut Sim, id: u64) {
        let name = self.state.borrow().ledger.backend_of(id).map(str::to_owned);
        if let Some(name) = name {
            sim.counter_add("dispatcher.timeout", 1);
            self.eject_backend(sim, &name);
        }
    }

    /// Park every op outstanding on `site`'s replicas across an outage:
    /// each watchdog is re-armed to `reconnect_at + request_timeout`, so
    /// work already inside the partition is *waited out* instead of
    /// ejected — the severed site holds its answers and delivers them on
    /// reconnect (see [`GeoPlane`] outage semantics), which is what makes
    /// a federated site outage lose nothing. No-op without a geo plane or
    /// without a request timeout (nothing to re-arm). Returns how many
    /// ops were parked.
    pub fn park_site(self: &Rc<Self>, sim: &mut Sim, site: &str, reconnect_at: SimTime) -> usize {
        let (Some(g), Some(grace)) = (self.geo(), self.cfg.request_timeout) else {
            return 0;
        };
        let mut st = self.state.borrow_mut();
        let in_site = |name: &str| g.site_of(name).as_deref() == Some(site);
        let ops = st.router.ops_on(in_site);
        let mut parked = 0usize;
        for id in ops {
            let Some(op) = st.ledger.get_mut(id) else {
                continue;
            };
            if let Some(ev) = op.watchdog.take() {
                sim.cancel_event(ev);
            }
            let this = Rc::clone(self);
            let wait = (reconnect_at - sim.now()) + grace;
            op.watchdog = Some(sim.schedule(wait, move |sim| this.op_timed_out(sim, id)));
            parked += 1;
        }
        if parked > 0 {
            sim.counter_add("dispatcher.parked", parked as u64);
        }
        parked
    }

    /// Live (non-draining) backends with the count of affinity pins each
    /// currently holds — zero-pin backends included. The autoscaler's
    /// scale-down victim choice keys on this: evicting the least-pinned
    /// replica orphans the fewest sessions.
    pub fn live_pin_counts(&self) -> BTreeMap<String, usize> {
        self.state.borrow().router.live_pin_counts()
    }

    /// Divert `share_pct`% of first-sight routes to `target` for a
    /// canary judgment window. Deterministic (counter-based, no RNG);
    /// the counter restarts at zero so same-seed replays shift the same
    /// requests. Pinned principals are untouched — shift those
    /// explicitly with [`Dispatcher::shift_pins`].
    pub fn set_canary(&self, target: &str, share_pct: u32) {
        assert!(share_pct <= 100, "canary share is a percentage");
        self.state.borrow_mut().router.set_canary(target, share_pct);
    }

    /// End the canary share: first-sight routing reverts to the base
    /// policy.
    pub fn clear_canary(&self) {
        self.state.borrow_mut().router.clear_canary();
    }

    /// The replica currently receiving the canary share, if any.
    pub fn canary_target(&self) -> Option<String> {
        self.state.borrow().router.canary_target()
    }

    /// Shift the top `fraction` of live affinity pins onto `target`,
    /// ranked by rendezvous score of `(key, target)` — the same hash
    /// that reassigns pins after a loss, so the shifted set is a pure
    /// function of (pinned keys, target) and each shifted principal
    /// re-authenticates exactly once, on its first request to `target`.
    /// Pins already on `target` are skipped. Returns the shifted
    /// `(principal, previous replica)` pairs in rank order, the undo
    /// log for [`Dispatcher::restore_pins`].
    pub fn shift_pins(&self, target: &str, fraction: f64) -> Vec<(String, String)> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        self.state.borrow_mut().router.shift_pins(target, fraction)
    }

    /// Undo a [`Dispatcher::shift_pins`]: every pin still on `target`
    /// goes back to its previous replica (or is orphaned for rendezvous
    /// reassignment when that replica has since left rotation). Pins no
    /// longer on `target` — orphaned by a canary crash, evicted, or
    /// re-pinned — are left alone. Returns how many pins were restored.
    pub fn restore_pins(&self, target: &str, shifted: &[(String, String)]) -> usize {
        self.state.borrow_mut().router.restore_pins(target, shifted)
    }

    /// The replica `key`'s live affinity pin targets, if any (orphaned
    /// pins return `None`).
    pub fn pin_target(&self, key: &str) -> Option<String> {
        self.state.borrow().router.pin_target(key)
    }

    /// Every live affinity pin as sorted `(principal, replica)` pairs —
    /// the rollout proptests' pin-validity witness.
    pub fn live_pins(&self) -> Vec<(String, String)> {
        self.state.borrow().router.live_pins()
    }

    /// Attempts currently outstanding on the named backend (0 if it is
    /// not in rotation).
    pub fn outstanding_on(&self, name: &str) -> usize {
        self.state.borrow().router.outstanding(name)
    }

    /// Throw a backend out of rotation *now*, no drain: the involuntary
    /// loss path. Every op outstanding on it resolves as lost — retried
    /// for invocations, faulted for upload branches — and any answer the
    /// dead backend produces later is dropped. Pins to it die with it and
    /// reassign by rendezvous hash on their next request. The drain hook
    /// does NOT fire (nothing drained); the owner handles teardown
    /// itself. Returns `false` if no backend has that name.
    pub fn eject_backend(self: &Rc<Self>, sim: &mut Sim, name: &str) -> bool {
        let lost: Vec<_> = {
            let mut st = self.state.borrow_mut();
            let Some(ops) = st.router.eject(name) else {
                return false;
            };
            st.admission.counters.ejected += 1;
            ops.iter().filter_map(|&id| st.ledger.take(id)).collect()
        };
        sim.counter_add("dispatcher.ejected", 1);
        for op in lost {
            let lost = OpOutcome::Lost(op.backend.clone());
            self.finish(sim, op, lost);
        }
        true
    }

    /// Front-door bookkeeping for one finished request, then let
    /// door-queued tenants into the slot it freed.
    fn close(self: &Rc<Self>, sim: &mut Sim, span: SpanId, tag: Option<&QosTag>, ok: bool) {
        self.state.borrow_mut().admission.close(tag, ok);
        if let Some(tag) = tag {
            let waited = sim.now() - tag.submitted_at;
            self.health(|p| p.record_tenant_latency(sim.now(), &tag.tenant, waited, !ok));
        }
        if ok {
            sim.counter_add("dispatcher.completed", 1);
            sim.span_end(span);
        } else {
            sim.counter_add("dispatcher.faulted", 1);
            sim.span_fail(span, "replica returned a fault");
        }
        self.pump(sim);
    }

    /// Feed the attached health plane, if any (with no state borrow held).
    fn health(&self, record: impl FnOnce(&HealthPlane)) {
        if let Some(plane) = self.health_plane() {
            record(&plane);
        }
    }

    /// Drop a drained slot and notify the owner.
    fn retire(&self, sim: &mut Sim, name: &str) {
        let hook = {
            let mut st = self.state.borrow_mut();
            st.router.retire(name);
            st.drain_hook.clone()
        };
        if let Some(hook) = hook {
            hook(sim, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::admission::{QosState, QosTag};
    use super::router::rendezvous_score;
    use super::*;
    use simkit::Duration;
    use std::cell::Cell;

    /// Serves every request after a fixed delay; can be told to fault.
    struct Echo {
        name: String,
        delay: Duration,
        fault: bool,
        served: Cell<u64>,
    }

    impl Echo {
        fn new(name: &str, delay_ms: u64) -> Rc<Echo> {
            Rc::new(Echo {
                name: name.into(),
                delay: Duration::from_millis(delay_ms),
                fault: false,
                served: Cell::new(0),
            })
        }
    }

    impl Backend for Echo {
        fn name(&self) -> &str {
            &self.name
        }
        fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
            self.served.set(self.served.get() + 1);
            let fault = self.fault;
            sim.schedule(self.delay, move |sim| {
                if fault {
                    done(sim, Err(SoapFault::server("echo fault")));
                } else {
                    done(sim, Ok(SoapValue::Bool(true)));
                }
            });
        }
    }

    fn invoke() -> Request {
        Request::Invoke {
            service: "svc".into(),
            args: Vec::new(),
            principal: None,
        }
    }

    fn invoke_as(principal: &str) -> Request {
        Request::Invoke {
            service: "svc".into(),
            args: Vec::new(),
            principal: Some(principal.into()),
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut sim = Sim::new(1);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            ..DispatcherConfig::default()
        });
        let (a, b) = (Echo::new("a", 10), Echo::new("b", 10));
        d.add_backend(a.clone());
        d.add_backend(b.clone());
        for _ in 0..6 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        assert_eq!(a.served.get(), 3);
        assert_eq!(b.served.get(), 3);
        assert_eq!(d.counters().completed, 6);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn least_outstanding_prefers_idle() {
        let mut sim = Sim::new(2);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight: 16,
            ..DispatcherConfig::default()
        });
        // a is slow, so it stays loaded; b should absorb the burst
        let (a, b) = (Echo::new("a", 10_000), Echo::new("b", 10));
        d.add_backend(a.clone());
        d.add_backend(b.clone());
        d.submit(&mut sim, invoke(), Box::new(|_, _| {})); // lands on a
        // staggered arrivals: b finishes each before the next arrives, so
        // least-outstanding keeps preferring it over the loaded a
        for k in 0..4u64 {
            let d2 = Rc::clone(&d);
            sim.schedule(Duration::from_millis(100 + 50 * k), move |sim| {
                d2.submit(sim, invoke(), Box::new(|_, _| {}));
            });
        }
        sim.run();
        assert_eq!(a.served.get(), 1);
        assert_eq!(b.served.get(), 4);
    }

    #[test]
    fn admission_limit_sheds_with_fault() {
        let mut sim = Sim::new(3);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 2,
            ..DispatcherConfig::default()
        });
        d.add_backend(Echo::new("a", 1000));
        let shed_seen = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let s = shed_seen.clone();
            d.submit(
                &mut sim,
                invoke(),
                Box::new(move |_, r| {
                    if r.is_err() {
                        s.set(s.get() + 1);
                    }
                }),
            );
        }
        sim.run();
        let c = d.counters();
        assert_eq!(c.accepted, 2);
        assert_eq!(c.shed, 3);
        assert_eq!(shed_seen.get(), 3);
        assert_eq!(c.completed, 2);
    }

    #[test]
    fn no_backends_faults_every_request() {
        let mut sim = Sim::new(4);
        let d = Dispatcher::new(DispatcherConfig::default());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| {
                assert!(r.is_err());
                g.set(g.get() + 1);
            }),
        );
        sim.run();
        assert_eq!(got.get(), 1);
        assert_eq!(d.counters().shed, 1);
    }

    #[test]
    fn upload_broadcasts_to_all_live_backends() {
        let mut sim = Sim::new(5);
        let d = Dispatcher::new(DispatcherConfig::default());
        let (a, b, c) = (Echo::new("a", 10), Echo::new("b", 20), Echo::new("c", 30));
        d.add_backend(a.clone());
        d.add_backend(b.clone());
        d.add_backend(c.clone());
        let seen = Rc::new(Cell::new(0u32));
        let s = seen.clone();
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                len: 64,
                profile: ExecutionProfile::quick(),
            },
            Box::new(move |_, r| {
                assert!(r.is_ok());
                s.set(s.get() + 1);
            }),
        );
        sim.run();
        assert_eq!(seen.get(), 1, "join answers exactly once");
        assert_eq!(a.served.get() + b.served.get() + c.served.get(), 3);
        assert_eq!(d.counters().accepted, 1, "one front-door request");
        assert_eq!(d.counters().completed, 1);
    }

    #[test]
    fn drain_waits_for_outstanding_then_fires_hook() {
        let mut sim = Sim::new(6);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 8,
            ..DispatcherConfig::default()
        });
        let (a, b) = (Echo::new("a", 500), Echo::new("b", 500));
        d.add_backend(a.clone());
        d.add_backend(b);
        d.submit(&mut sim, invoke(), Box::new(|_, _| {})); // on a
        let drained: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let dr = drained.clone();
        d.set_drain_hook(move |_, name| dr.borrow_mut().push(name.to_owned()));
        assert!(d.remove_backend(&mut sim, "a"));
        assert!(!d.remove_backend(&mut sim, "a"), "already draining");
        assert_eq!(d.live_backends(), 1);
        assert!(drained.borrow().is_empty(), "still has work in flight");
        // new traffic avoids the draining replica
        d.submit(&mut sim, invoke(), Box::new(|_, _| {}));
        sim.run();
        assert_eq!(*drained.borrow(), vec!["a".to_owned()]);
        assert_eq!(a.served.get(), 1);
        assert_eq!(d.counters().completed, 2);
    }

    #[test]
    fn idle_backend_retires_immediately() {
        let mut sim = Sim::new(7);
        let d = Dispatcher::new(DispatcherConfig::default());
        d.add_backend(Echo::new("a", 10));
        d.add_backend(Echo::new("b", 10));
        let drained = Rc::new(Cell::new(0u32));
        let dr = drained.clone();
        d.set_drain_hook(move |_, _| dr.set(dr.get() + 1));
        assert!(d.remove_backend(&mut sim, "b"));
        assert_eq!(drained.get(), 1);
        assert_eq!(d.live_backends(), 1);
    }

    #[test]
    fn conservation_under_faults() {
        let mut sim = Sim::new(8);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight: 4,
            ..DispatcherConfig::default()
        });
        let bad = Echo {
            name: "bad".into(),
            delay: Duration::from_millis(50),
            fault: true,
            served: Cell::new(0),
        };
        d.add_backend(Rc::new(bad));
        d.add_backend(Echo::new("good", 50));
        let answered = Rc::new(Cell::new(0u32));
        for i in 0..10 {
            let d2 = Rc::clone(&d);
            let a = answered.clone();
            sim.schedule(Duration::from_millis(i * 20), move |sim| {
                let a = a.clone();
                d2.submit(sim, invoke(), Box::new(move |_, _| a.set(a.get() + 1)));
            });
        }
        sim.run();
        let c = d.counters();
        assert_eq!(answered.get(), 10, "every request answered exactly once");
        assert_eq!(c.accepted + c.shed, 10);
        assert_eq!(c.accepted, c.completed + c.faulted);
        assert_eq!(d.in_flight(), 0);
    }

    /// Accepts requests and never answers them — a hung/dead backend.
    struct BlackHole {
        name: String,
        served: Cell<u64>,
        swallowed: RefCell<Vec<Responder>>,
    }

    impl BlackHole {
        fn new(name: &str) -> Rc<BlackHole> {
            Rc::new(BlackHole {
                name: name.into(),
                served: Cell::new(0),
                swallowed: RefCell::new(Vec::new()),
            })
        }
    }

    impl Backend for BlackHole {
        fn name(&self) -> &str {
            &self.name
        }
        fn serve(&self, _sim: &mut Sim, _req: Request, done: Responder) {
            self.served.set(self.served.get() + 1);
            self.swallowed.borrow_mut().push(done);
        }
    }

    fn retrying(policy: Policy, max_retries: u32) -> DispatcherConfig {
        DispatcherConfig {
            policy,
            max_in_flight: 16,
            retry: Some(RetryConfig {
                max_retries,
                ..RetryConfig::default()
            }),
            request_timeout: None,
            affinity: None,
        }
    }

    #[test]
    fn eject_retries_in_flight_work_on_the_survivor() {
        let mut sim = Sim::new(31);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        let hole = BlackHole::new("dead");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone()); // rr: first request lands here
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| {
                assert!(r.is_ok(), "retried onto the survivor: {r:?}");
                g.set(g.get() + 1);
            }),
        );
        // the crash arrives while the request is swallowed
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(50), move |sim| {
            assert!(d2.eject_backend(sim, "dead"));
        });
        sim.run();
        assert_eq!(got.get(), 1, "answered exactly once");
        assert_eq!(hole.served.get(), 1);
        assert_eq!(good.served.get(), 1);
        let c = d.counters();
        assert_eq!((c.accepted, c.completed, c.faulted), (1, 1, 0));
        assert_eq!(c.retried, 1);
        assert_eq!(c.ejected, 1);
        assert_eq!(d.live_backends(), 1);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn zombie_answer_after_eject_is_dropped() {
        let mut sim = Sim::new(32);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        let hole = BlackHole::new("dead");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone());
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(&mut sim, invoke(), Box::new(move |_, _| g.set(g.get() + 1)));
        let d2 = Rc::clone(&d);
        let hole2 = Rc::clone(&hole);
        sim.schedule(Duration::from_millis(20), move |sim| {
            d2.eject_backend(sim, "dead");
            // the dead replica answers *after* the eject resolved the op
            for done in hole2.swallowed.borrow_mut().drain(..) {
                done(sim, Ok(SoapValue::Bool(true)));
            }
        });
        sim.run();
        assert_eq!(got.get(), 1, "the zombie answer did not double-settle");
        let c = d.counters();
        assert_eq!(c.accepted, c.completed + c.faulted);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn retries_exhaust_into_a_soap_fault() {
        let mut sim = Sim::new(33);
        // both backends are black holes killed in sequence; cap of 1 retry
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 1));
        let (h1, h2) = (BlackHole::new("h1"), BlackHole::new("h2"));
        d.add_backend(h1.clone());
        d.add_backend(h2.clone());
        let fault = Rc::new(Cell::new(false));
        let f = fault.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| f.set(r.is_err())),
        );
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(10), move |sim| {
            d2.eject_backend(sim, "h1");
        });
        let d3 = Rc::clone(&d);
        // after the backoff, the retry lands on h2; kill it too
        sim.schedule(Duration::from_secs(5), move |sim| {
            d3.eject_backend(sim, "h2");
        });
        sim.run();
        assert!(fault.get(), "cap hit → SOAP fault to the client");
        let c = d.counters();
        assert_eq!((c.accepted, c.completed, c.faulted), (1, 0, 1));
        assert_eq!(c.retried, 1, "exactly the capped retry was attempted");
    }

    #[test]
    fn retry_disabled_fail_fasts_the_loss() {
        let mut sim = Sim::new(34);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            retry: None,
            request_timeout: None,
            affinity: None,
        });
        d.add_backend(BlackHole::new("dead"));
        d.add_backend(Echo::new("good", 10));
        let fault = Rc::new(Cell::new(false));
        let f = fault.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| f.set(r.is_err())),
        );
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(10), move |sim| {
            d2.eject_backend(sim, "dead");
        });
        sim.run();
        assert!(fault.get());
        let c = d.counters();
        assert_eq!((c.faulted, c.retried), (1, 0));
    }

    #[test]
    fn request_timeout_ejects_the_silent_backend_and_retries() {
        let mut sim = Sim::new(35);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            retry: Some(RetryConfig::default()),
            request_timeout: Some(Duration::from_secs(10)),
            affinity: None,
        });
        let hole = BlackHole::new("silent");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone());
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| {
                assert!(r.is_ok());
                g.set(g.get() + 1);
            }),
        );
        sim.run();
        assert_eq!(got.get(), 1, "watchdog fired, retry landed on survivor");
        assert_eq!(d.live_backends(), 1, "silent backend was ejected");
        let c = d.counters();
        assert_eq!((c.completed, c.retried, c.ejected), (1, 1, 1));
    }

    #[test]
    fn timeout_does_not_fire_for_answered_requests() {
        let mut sim = Sim::new(36);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            retry: Some(RetryConfig::default()),
            request_timeout: Some(Duration::from_secs(10)),
            affinity: None,
        });
        d.add_backend(Echo::new("a", 100)); // answers well inside the window
        for _ in 0..5 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        let c = d.counters();
        assert_eq!((c.completed, c.ejected, c.retried), (5, 0, 0));
        assert_eq!(d.live_backends(), 1);
    }

    #[test]
    fn eject_mid_broadcast_faults_the_upload_join() {
        let mut sim = Sim::new(37);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        let hole = BlackHole::new("dead");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone());
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                len: 64,
                profile: ExecutionProfile::quick(),
            },
            Box::new(move |_, r| {
                // uploads are at-most-once: the lost branch faults the join
                assert!(r.is_err());
                g.set(g.get() + 1);
            }),
        );
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(20), move |sim| {
            d2.eject_backend(sim, "dead");
        });
        sim.run();
        assert_eq!(got.get(), 1, "join answered exactly once despite the loss");
        let c = d.counters();
        assert_eq!(c.accepted, c.completed + c.faulted);
        assert_eq!((c.faulted, c.retried), (1, 0));
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn ejecting_every_backend_sheds_new_arrivals() {
        let mut sim = Sim::new(38);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        d.add_backend(Echo::new("only", 10));
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(5), move |sim| {
            d2.eject_backend(sim, "only");
        });
        let d3 = Rc::clone(&d);
        let shed = Rc::new(Cell::new(false));
        let s = shed.clone();
        sim.schedule(Duration::from_millis(10), move |sim| {
            d3.submit(
                sim,
                invoke(),
                Box::new(move |_, r| s.set(r.is_err())),
            );
        });
        sim.run();
        assert!(shed.get(), "no backends at all → immediate SOAP fault");
        assert_eq!(d.counters().shed, 1);
    }

    fn sticky(policy: Policy) -> DispatcherConfig {
        DispatcherConfig {
            policy,
            max_in_flight: 64,
            affinity: Some(AffinityConfig::default()),
            ..DispatcherConfig::default()
        }
    }

    #[test]
    fn affinity_pins_a_principal_to_one_replica() {
        let mut sim = Sim::new(40);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        for _ in 0..9 {
            d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
        }
        // round-robin would spread 3/3/3; affinity keeps all 9 together
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served.iter().sum::<u64>(), 9);
        assert_eq!(served.iter().filter(|&&n| n > 0).count(), 1, "{served:?}");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits, c.affinity_repins), (1, 8, 0));
    }

    #[test]
    fn affinity_first_sight_spreads_by_base_policy() {
        let mut sim = Sim::new(41);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        // three fresh principals, two requests each: round-robin assigns
        // each principal its own replica, then stickiness holds
        for user in ["a", "b", "c"] {
            d.submit(&mut sim, invoke_as(user), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        for user in ["a", "b", "c"] {
            d.submit(&mut sim, invoke_as(user), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served, vec![2, 2, 2], "one principal per replica, sticky");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits), (3, 3));
    }

    #[test]
    fn affinity_requests_without_principal_use_base_policy() {
        let mut sim = Sim::new(42);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..2).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        for _ in 0..6 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served, vec![3, 3], "no principal → plain round-robin");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits, c.affinity_repins), (0, 0, 0));
    }

    #[test]
    fn affinity_repins_by_rendezvous_after_eject() {
        let mut sim = Sim::new(43);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        let pinned = backends
            .iter()
            .position(|b| b.served.get() == 1)
            .expect("first request pinned somewhere");
        assert!(d.eject_backend(&mut sim, &format!("r{pinned}")));
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        // the reassignment must equal the rendezvous argmax over survivors
        let expect = (0..3)
            .filter(|&i| i != pinned)
            .max_by_key(|&i| rendezvous_score("alice", &format!("r{i}")))
            .unwrap();
        assert_eq!(backends[expect].served.get(), 1, "repinned off-rendezvous");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits, c.affinity_repins), (1, 0, 1));
        // and the new pin sticks
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        assert_eq!(backends[expect].served.get(), 2);
        assert_eq!(d.counters().affinity_hits, 1);
    }

    #[test]
    fn affinity_never_routes_to_a_draining_replica() {
        let mut sim = Sim::new(44);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..2).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        let pinned = backends.iter().position(|b| b.served.get() == 1).unwrap();
        // drain the pinned replica: the pin must be invalidated immediately
        assert!(d.remove_backend(&mut sim, &format!("r{pinned}")));
        for _ in 0..4 {
            d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
        }
        assert_eq!(backends[pinned].served.get(), 1, "drained replica took new work");
        assert_eq!(backends[1 - pinned].served.get(), 4);
        assert_eq!(d.counters().affinity_repins, 1, "one rendezvous reassignment");
    }

    #[test]
    fn affinity_table_capacity_evicts_the_oldest_key() {
        let mut sim = Sim::new(45);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 64,
            affinity: Some(AffinityConfig { capacity: 2 }),
            ..DispatcherConfig::default()
        });
        d.add_backend(Echo::new("r0", 10));
        d.add_backend(Echo::new("r1", 10));
        for user in ["a", "b"] {
            d.submit(&mut sim, invoke_as(user), Box::new(|_, _| {}));
            sim.run();
        }
        assert_eq!(d.counters().affinity_misses, 2);
        // "c" evicts "a" (oldest); "a" then re-enters as a fresh miss
        d.submit(&mut sim, invoke_as("c"), Box::new(|_, _| {}));
        sim.run();
        d.submit(&mut sim, invoke_as("a"), Box::new(|_, _| {}));
        sim.run();
        let c = d.counters();
        assert_eq!(c.affinity_misses, 4, "evicted key must not hit");
        // "a" re-entering displaced "b"; "c" is the one still pinned
        d.submit(&mut sim, invoke_as("c"), Box::new(|_, _| {}));
        sim.run();
        assert_eq!(d.counters().affinity_hits, 1);
    }

    #[test]
    fn utilization_weighted_reads_the_same_rollup_as_the_kernel_profile() {
        // the slot-cached busy key must select exactly the replica the
        // full profile rebuild would have picked — seed busy time into the
        // recorder and compare the routed choice against the profile argmin
        let mut sim = Sim::new(46);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::UtilizationWeighted,
            max_in_flight: 64,
            ..DispatcherConfig::default()
        });
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 1)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        let t = sim.now();
        sim.recorder().add_point("r0.cpu.busy", t, 5.0);
        sim.recorder().add_point("r1.cpu.busy", t, 2.0);
        sim.recorder().add_point("r2.cpu.busy", t, 9.0);
        let profile_argmin = sim
            .profile()
            .server_busy
            .iter()
            .filter(|s| s.key.ends_with(".cpu.busy"))
            .min_by(|a, b| a.busy_secs.partial_cmp(&b.busy_secs).unwrap())
            .map(|s| s.key.clone())
            .expect("busy series seeded");
        assert_eq!(profile_argmin, "r1.cpu.busy");
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served, vec![0, 1, 0], "pick disagrees with profile rollup");
    }

    // -- geo routing ------------------------------------------------------

    use crate::geo::SiteMap;

    fn two_site_geo() -> Rc<GeoPlane> {
        let mut map = SiteMap::new();
        map.add_site("east");
        map.add_site("west");
        map.link("east", "west", Duration::from_millis(50), 1e9);
        GeoPlane::new(map)
    }

    #[test]
    fn geo_routing_prefers_the_nearest_site_and_spills_when_saturated() {
        let mut sim = Sim::new(50);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.set_spill_threshold(1);
        geo.assign("e1", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let near = Echo::new("e1", 100);
        let far = Echo::new("w1", 100);
        d.add_backend(near.clone());
        d.add_backend(far.clone());
        geo.set_origin("east");
        for _ in 0..2 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        // first request fills east to the spill threshold; the second
        // spills to west instead of queueing cross-threshold at home
        assert_eq!((near.served.get(), far.served.get()), (1, 1));
        sim.run();
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        assert_eq!(
            (near.served.get(), far.served.get()),
            (2, 1),
            "an idle fleet routes home again"
        );
    }

    #[test]
    fn severed_sites_leave_rotation_and_an_all_dark_fleet_faults() {
        let mut sim = Sim::new(51);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.assign("e1", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let east = Echo::new("e1", 5);
        let west = Echo::new("w1", 5);
        d.add_backend(east.clone());
        d.add_backend(west.clone());
        geo.set_origin("east");
        geo.add_outage("east", sim.now(), SimTime::from_secs(100));
        for _ in 0..3 {
            d.submit(&mut sim, invoke(), Box::new(|_, _| {}));
        }
        sim.run();
        assert_eq!(east.served.get(), 0, "no request enters the partition");
        assert_eq!(west.served.get(), 3);
        geo.add_outage("west", sim.now(), SimTime::from_secs(100));
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_err())));
        sim.run();
        let c = d.counters();
        assert_eq!(c.faulted, 1, "all sites dark: the request fails fast");
        assert_eq!(c.completed, 3);
    }

    #[test]
    fn federation_forwards_pinned_work_and_the_pin_comes_home() {
        let mut sim = Sim::new(52);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            affinity: Some(AffinityConfig::default()),
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.set_federation(true);
        geo.assign("e1", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let east = Echo::new("e1", 5);
        let west = Echo::new("w1", 5);
        d.add_backend(east.clone());
        d.add_backend(west.clone());
        geo.set_origin("east");
        // first sight pins alice to her nearest site
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        assert_eq!(east.served.get(), 1);
        // sever east mid-session: alice's work forwards to west, pin kept
        let outage_end = sim.now() + Duration::from_secs(60);
        geo.add_outage("east", sim.now(), outage_end);
        for _ in 0..2 {
            d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
        }
        assert_eq!(east.served.get(), 1);
        assert_eq!(west.served.get(), 2);
        let c = d.counters();
        assert_eq!(c.forwarded, 2, "both outage-window requests forwarded");
        assert_eq!(c.affinity_repins, 0, "forwarding never re-pins");
        assert_eq!(geo.counters().forwards, 2);
        // reconnect: the session comes home without a repin
        let d2 = Rc::clone(&d);
        sim.schedule((outage_end - sim.now()) + Duration::from_secs(1), move |sim| {
            d2.submit(sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        });
        sim.run();
        assert_eq!(east.served.get(), 2, "pin survived the outage");
        assert_eq!(d.counters().affinity_hits, 1, "the homecoming is a plain hit");
        assert_eq!(d.counters().affinity_misses, 1, "only the first sight misses");
    }

    #[test]
    fn cross_site_rendezvous_failover_prefers_home_peers_deterministically() {
        let run = || {
            let mut sim = Sim::new(53);
            let d = Dispatcher::new(DispatcherConfig {
                policy: Policy::RoundRobin,
                affinity: Some(AffinityConfig::default()),
                ..DispatcherConfig::default()
            });
            let geo = two_site_geo();
            for name in ["e1", "e2", "e3"] {
                geo.assign(name, "east");
            }
            geo.assign("w1", "west");
            d.set_geo(Rc::clone(&geo));
            let backends: Vec<Rc<Echo>> = ["e1", "e2", "e3", "w1"]
                .iter()
                .map(|n| Echo::new(n, 5))
                .collect();
            for b in &backends {
                d.add_backend(b.clone());
            }
            geo.set_origin("east");
            d.submit(&mut sim, invoke_as("bob"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
            assert_eq!(backends[0].served.get(), 1, "rr pins bob to e1");
            // lose the pinned replica: the orphaned pin must reassign to a
            // *home-site* peer (e2/e3), never the cross-site w1
            assert!(d.eject_backend(&mut sim, "e1"));
            d.submit(&mut sim, invoke_as("bob"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
            assert_eq!(backends[3].served.get(), 0, "west peer not chosen");
            assert_eq!(d.counters().affinity_repins, 1);
            backends
                .iter()
                .map(|b| b.served.get())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "failover choice replays byte-identically");
    }

    #[test]
    fn park_site_defers_the_watchdog_past_reconnect() {
        let mut sim = Sim::new(54);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            retry: Some(RetryConfig::default()),
            request_timeout: Some(Duration::from_secs(1)),
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.set_federation(true);
        geo.assign("dead", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let hole = BlackHole::new("dead");
        let west = Echo::new("w1", 5);
        d.add_backend(hole.clone());
        d.add_backend(west.clone());
        geo.set_origin("east");
        let finished = Rc::new(Cell::new(simkit::SimTime::ZERO));
        let f = finished.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |sim, r| {
                assert!(r.is_ok(), "retried on the survivor after the park");
                f.set(sim.now());
            }),
        );
        // the site is severed with the request in flight; park re-arms the
        // 1 s watchdog to reconnect + 1 s instead of firing at +1 s
        let reconnect = sim.now() + Duration::from_secs(30);
        geo.add_outage("east", sim.now(), reconnect);
        assert_eq!(d.park_site(&mut sim, "east", reconnect), 1);
        sim.run();
        assert!(
            finished.get() >= reconnect,
            "watchdog waited out the outage: finished {:?}",
            finished.get()
        );
        assert_eq!(d.counters().ejected, 1, "silent backend still ejected");
        assert_eq!(west.served.get(), 1);
    }

    // -- per-tenant QoS -----------------------------------------------------

    fn qos_tiers(pairs: &[(&str, QosTier)]) -> BTreeMap<String, QosTier> {
        pairs.iter().map(|(t, w)| ((*t).to_owned(), *w)).collect()
    }

    /// Satellite-1 regression: the global admission gate sits ahead of
    /// the invoke/upload split, so a saturated door sheds uploads too.
    /// (Audit note: the gate at the top of `submit` covers both arms;
    /// `broadcast` has no other caller, so an upload can never reach the
    /// in_flight/accepted bookkeeping without passing the check.)
    #[test]
    fn upload_sheds_at_admission_limit() {
        let mut sim = Sim::new(60);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 2,
            ..DispatcherConfig::default()
        });
        d.add_backend(Echo::new("a", 1000));
        // fill the window with slow invokes
        for _ in 0..2 {
            d.submit(&mut sim, invoke(), Box::new(|_, _| {}));
        }
        let upload_shed = Rc::new(Cell::new(false));
        let s = upload_shed.clone();
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                len: 64,
                profile: ExecutionProfile::quick(),
            },
            Box::new(move |_, r| s.set(r.is_err())),
        );
        sim.run();
        assert!(upload_shed.get(), "saturated door must shed the upload");
        let c = d.counters();
        assert_eq!(c.accepted, 2);
        assert_eq!(c.shed, 1);
        assert_eq!(c.completed, 2);
    }

    /// DRR grants backlogged tenants capacity in 4:2:1 tier-weight
    /// proportion, FIFO within each tenant.
    #[test]
    fn qos_drr_grants_by_tier_weight() {
        let mut sim = Sim::new(61);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 1,
            ..DispatcherConfig::default()
        });
        d.set_qos(QosConfig {
            tiers: qos_tiers(&[
                ("gold", QosTier::Gold),
                ("std", QosTier::Standard),
                ("batch", QosTier::Batch),
            ]),
            ..QosConfig::default()
        });
        d.add_backend(Echo::new("a", 10));
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let mut feed = |tenant: &'static str, n: usize| {
            for _ in 0..n {
                let o = order.clone();
                d.submit(
                    &mut sim,
                    invoke_as(tenant),
                    Box::new(move |_, r| {
                        assert!(r.is_ok());
                        o.borrow_mut().push(tenant);
                    }),
                );
            }
        };
        // first gold request is admitted straight away; the rest queue
        // in ring order gold, std, batch
        feed("gold", 5);
        feed("std", 4);
        feed("batch", 3);
        sim.run();
        let got = order.borrow().clone();
        assert_eq!(
            got,
            vec![
                "gold", // admitted at the door
                "gold", "gold", "gold", "gold", // one full deficit round: weight 4
                "std", "std", // weight 2
                "batch", // weight 1
                "std", "std", // gold dry -> leftover backlog drains by weight
                "batch", "batch",
            ],
            "deficit round-robin must follow 4:2:1 tier weights"
        );
        let snap = d.qos_tenants();
        for (t, issued) in [("gold", 5), ("std", 4), ("batch", 3)] {
            let s = &snap[t];
            assert_eq!(s.issued, issued);
            assert_eq!(s.accepted, issued, "{t} all served");
            assert_eq!(s.shed, 0);
            assert_eq!(s.queued, 0);
            assert_eq!(s.in_flight, 0);
        }
    }

    /// A tenant's door queue is bounded: overflow sheds with per-tenant
    /// accounting and `issued == accepted + shed + queued` holds.
    #[test]
    fn qos_queue_bound_sheds_per_tenant() {
        let mut sim = Sim::new(62);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 1,
            ..DispatcherConfig::default()
        });
        d.set_qos(QosConfig {
            queue_depth: 2,
            ..QosConfig::default()
        });
        d.add_backend(Echo::new("a", 50));
        let shed_seen = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let s = shed_seen.clone();
            d.submit(
                &mut sim,
                invoke_as("alice"),
                Box::new(move |_, r| {
                    if r.is_err() {
                        s.set(s.get() + 1);
                    }
                }),
            );
        }
        // 1 admitted, 2 queued, 2 shed at the bound — check mid-flight
        {
            let snap = &d.qos_tenants()["alice"];
            assert_eq!(snap.issued, 5);
            assert_eq!(snap.accepted, 1);
            assert_eq!(snap.queued, 2);
            assert_eq!(snap.shed, 2);
            assert_eq!(snap.issued, snap.accepted + snap.shed + snap.queued as u64);
        }
        sim.run();
        let snap = &d.qos_tenants()["alice"];
        assert_eq!(snap.accepted, 3, "queued requests were granted");
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.queued, 0);
        assert_eq!(shed_seen.get(), 2);
    }

    /// Borrow gating on the raw admission state: an idle fleet lets a
    /// tenant run `borrow` slots past quota, but never while an
    /// under-quota tenant is waiting.
    #[test]
    fn qos_borrow_only_while_no_underquota_tenant_waits() {
        let cfg = QosConfig {
            tiers: qos_tiers(&[("a", QosTier::Gold), ("b", QosTier::Gold)]),
            borrow: 1,
            ..QosConfig::default()
        };
        let mut q: QosState<()> = QosState::new(cfg, 8);
        // two gold tenants: quota = 8 * 4 / 8 = 4 each
        assert_eq!(q.quota(QosTier::Gold), 4);
        q.tenants.get_mut("a").unwrap().in_flight = 4;
        assert!(
            q.may_admit("a"),
            "at quota with nobody waiting: borrow slot available"
        );
        q.tenants.get_mut("a").unwrap().in_flight = 5;
        assert!(!q.may_admit("a"), "borrow is bounded to +1");
        // an under-quota tenant starts waiting: borrowing shuts off
        q.tenants.get_mut("a").unwrap().in_flight = 4;
        q.enqueue(
            QosTag {
                tenant: "b".into(),
                tier: QosTier::Gold,
                submitted_at: SimTime::ZERO,
            },
            (),
        );
        assert!(
            !q.may_admit("a"),
            "no borrowing while an under-quota tenant queues"
        );
        // ...but a waiting tenant already at its own quota does not
        // block the borrow
        q.tenants.get_mut("b").unwrap().in_flight = 4;
        assert!(q.may_admit("a"), "b is at quota, its backlog is its own");
        // a tenant with its own backlog must join the queue, not jump it
        q.tenants.get_mut("a").unwrap().in_flight = 0;
        q.enqueue(
            QosTag {
                tenant: "a".into(),
                tier: QosTier::Gold,
                submitted_at: SimTime::ZERO,
            },
            (),
        );
        assert!(!q.may_admit("a"), "FIFO: no admission past a non-empty own queue");
    }

    /// Losing the last replica flushes door queues as shed — each queued
    /// request counts exactly once, as shed, and the responder fires.
    #[test]
    fn qos_queued_then_shed_counts_once() {
        let mut sim = Sim::new(63);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 1,
            ..DispatcherConfig::default()
        });
        d.set_qos(QosConfig::default());
        d.add_backend(Echo::new("a", 100));
        let (oks, errs) = (Rc::new(Cell::new(0u32)), Rc::new(Cell::new(0u32)));
        for _ in 0..3 {
            let (o, e) = (oks.clone(), errs.clone());
            d.submit(
                &mut sim,
                invoke_as("alice"),
                Box::new(move |_, r| match r {
                    Ok(_) => o.set(o.get() + 1),
                    Err(_) => e.set(e.get() + 1),
                }),
            );
        }
        // 1 in flight, 2 queued; drain the only replica out of rotation
        assert!(d.remove_backend(&mut sim, "a"));
        sim.run();
        assert_eq!(oks.get(), 1, "the in-flight request still completes");
        assert_eq!(errs.get(), 2, "both queued requests shed exactly once");
        let snap = &d.qos_tenants()["alice"];
        assert_eq!(snap.issued, 3);
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.queued, 0);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.issued, snap.accepted + snap.shed + snap.queued as u64);
    }

    /// With QoS on, anonymous invokes and uploads skip the tenant stage
    /// and use the plain global gate.
    #[test]
    fn qos_ignores_anonymous_and_upload_traffic() {
        let mut sim = Sim::new(64);
        let d = Dispatcher::new(DispatcherConfig::default());
        d.set_qos(QosConfig::default());
        d.add_backend(Echo::new("a", 10));
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                len: 64,
                profile: ExecutionProfile::quick(),
            },
            Box::new(|_, r| assert!(r.is_ok())),
        );
        sim.run();
        assert!(d.qos_tenants().is_empty(), "no tenant state for anonymous work");
        assert_eq!(d.counters().completed, 2);
    }

    /// A drain hook that drains another idle backend sees that backend
    /// retire too: the hook is cloned out for each call, never taken.
    #[test]
    fn drain_hook_fires_for_a_backend_drained_from_inside_the_hook() {
        let mut sim = Sim::new(65);
        let d = Dispatcher::new(DispatcherConfig::default());
        for name in ["a", "b", "c"] {
            d.add_backend(Echo::new(name, 10));
        }
        let drained: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let (dr, weak) = (drained.clone(), Rc::downgrade(&d));
        d.set_drain_hook(move |sim, name| {
            dr.borrow_mut().push(name.to_owned());
            if name == "a" {
                let d = weak.upgrade().expect("dispatcher alive");
                assert!(d.remove_backend(sim, "b"), "b is live and idle");
            }
        });
        assert!(d.remove_backend(&mut sim, "a"));
        assert_eq!(*drained.borrow(), ["a", "b"]);
        assert_eq!(d.live_backends(), 1);
        assert_eq!(d.audit(), Ok(()));
    }

    /// Answers at once, after ejecting `victim` from inside `serve`.
    struct Ejector {
        name: String,
        victim: String,
        d: std::rc::Weak<Dispatcher>,
    }

    impl Backend for Ejector {
        fn name(&self) -> &str {
            &self.name
        }
        fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
            if let Some(d) = self.d.upgrade() {
                d.eject_backend(sim, &self.victim);
            }
            done(sim, Ok(SoapValue::Bool(true)));
        }
    }

    /// A broadcast target ejected by an earlier branch's synchronous
    /// serve is never served: its branch resolves as lost (faulting the
    /// join) and the fan-out skips it.
    #[test]
    fn broadcast_never_serves_a_target_ejected_mid_fanout() {
        let mut sim = Sim::new(66);
        let d = Dispatcher::new(DispatcherConfig::default());
        d.add_backend(Rc::new(Ejector {
            name: "e".into(),
            victim: "v".into(),
            d: Rc::downgrade(&d),
        }));
        let victim = Echo::new("v", 10);
        d.add_backend(victim.clone());
        let got: Rc<Cell<Option<bool>>> = Rc::new(Cell::new(None));
        let g = got.clone();
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                len: 64,
                profile: ExecutionProfile::quick(),
            },
            Box::new(move |_, r| g.set(Some(r.is_ok()))),
        );
        sim.run();
        assert_eq!(victim.served.get(), 0, "the ejected target was served");
        assert_eq!(got.get(), Some(false), "the lost branch faults the join");
        let c = d.counters();
        assert_eq!((c.accepted, c.faulted, c.ejected), (1, 1, 1));
        assert_eq!(d.in_flight(), 0);
        assert_eq!(d.audit(), Ok(()));
    }
}
