//! The admission stage: the global in-flight window, the optional
//! per-tenant QoS stage, and the conservation counters.
//!
//! Plain data over an opaque parked item `T` — no `Sim`, no callbacks.
//! [`Admission::offer`] decides Admit, Queue or Shed for one arrival;
//! [`Admission::admit`] is the one bookkeeping path every admitted request
//! takes (fresh invocation, DRR grant, or upload broadcast),
//! [`Admission::close`] its mirror, and [`Admission::release`] lets parked
//! requests go as capacity frees up.

use std::collections::{BTreeMap, VecDeque};

use simkit::SimTime;

use super::{DispatchCounters, NO_REPLICAS};

/// Priority tier for per-tenant QoS. The tier sets the tenant's weight in
/// both the quota split and the deficit-round-robin drain of the door
/// queues — gold tenants get four grants for every batch grant when both
/// are backlogged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosTier {
    /// Interactive / paying traffic: weight 4.
    Gold,
    /// The default tier: weight 2.
    Standard,
    /// Bulk / best-effort traffic: weight 1.
    Batch,
}

impl QosTier {
    /// All tiers, for sweeps and property tests.
    pub const ALL: [QosTier; 3] = [QosTier::Gold, QosTier::Standard, QosTier::Batch];

    /// DRR quantum and quota share.
    pub fn weight(self) -> u64 {
        match self {
            QosTier::Gold => 4,
            QosTier::Standard => 2,
            QosTier::Batch => 1,
        }
    }

    /// Short label for tables and span attributes.
    pub fn label(self) -> &'static str {
        match self {
            QosTier::Gold => "gold",
            QosTier::Standard => "standard",
            QosTier::Batch => "batch",
        }
    }
}

/// Per-tenant QoS at the front door ([`super::Dispatcher::set_qos`]).
///
/// With QoS on, every invocation carrying a principal is admitted against
/// its tenant's *quota* — a soft share of
/// [`super::DispatcherConfig::max_in_flight`] proportional to the tenant's
/// tier weight over the total weight of all known tenants
/// (`max(1, max_in_flight · w/W)`). A tenant at quota does not shed: its
/// requests wait in a per-tenant FIFO (bounded by
/// [`QosConfig::queue_depth`]; overflow sheds with per-tenant accounting)
/// and are granted capacity by deficit round-robin as requests finish —
/// weighted by tier, deterministic on the virtual clock, no randomness.
///
/// *Borrowing*: when capacity is idle — no other tenant is waiting below
/// its own quota — a tenant may run up to [`QosConfig::borrow`] requests
/// above quota. Lent slots are never taken from a waiting under-quota
/// tenant: the grant loop always prefers under-quota queues.
///
/// Anonymous invocations and uploads bypass the per-tenant stage and are
/// admitted against the global `max_in_flight` gate alone, exactly as with
/// QoS off.
#[derive(Clone, Debug)]
pub struct QosConfig {
    /// Tier for tenants not named in `tiers`.
    pub default_tier: QosTier,
    /// Explicit tenant → tier assignments. Tenants listed here are
    /// registered (and weigh into the quota split) from the start;
    /// unlisted tenants are registered at `default_tier` on first sight.
    pub tiers: BTreeMap<String, QosTier>,
    /// Per-tenant door-queue bound; a request arriving with its tenant's
    /// queue full is shed.
    pub queue_depth: usize,
    /// Requests a tenant may run *above* quota while no under-quota
    /// tenant is waiting (idle-capacity borrowing). 0 makes quotas hard.
    pub borrow: usize,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            default_tier: QosTier::Standard,
            tiers: BTreeMap::new(),
            queue_depth: 64,
            borrow: 1,
        }
    }
}

/// One tenant's QoS ledger and live state, from
/// [`super::Dispatcher::qos_tenants`]. Conservation: `issued == accepted +
/// shed + queued` at every instant, and `queued == 0` once the simulation
/// drains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantQos {
    /// The tenant's priority tier.
    pub tier: QosTier,
    /// Current quota: `max(1, max_in_flight · weight/total_weight)`.
    pub quota: usize,
    /// Requests admitted and not yet answered.
    pub in_flight: usize,
    /// Requests waiting in the door queue right now.
    pub queued: usize,
    /// Front-door submissions (admitted + queued + shed).
    pub issued: u64,
    /// Requests admitted past the door.
    pub accepted: u64,
    /// Requests refused (queue full, or flushed when every replica left).
    pub shed: u64,
    /// Cumulative enqueues (a queued request later counts accepted or
    /// shed as well — `enqueued` records that it waited).
    pub enqueued: u64,
}

/// The QoS identity an admitted request carries end-to-end: set once at
/// admission and never re-derived, so a retried, re-pinned, or
/// canary-shifted request keeps its tenant and priority tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct QosTag {
    pub tenant: String,
    pub tier: QosTier,
    /// When the request first hit the front door (queue wait included) —
    /// the per-tenant latency series measures door-to-answer.
    pub submitted_at: SimTime,
}

/// Per-tenant QoS state.
pub(crate) struct QosTenantState<T> {
    tier: QosTier,
    pub in_flight: usize,
    /// Requests parked at the door, waiting for a DRR grant.
    queue: VecDeque<(QosTag, T)>,
    /// DRR deficit: grants available before the tenant's next top-up.
    deficit: u64,
    issued: u64,
    accepted: u64,
    shed: u64,
    enqueued: u64,
}

/// The weighted-fair admission stage: per-tenant FIFOs drained by deficit
/// round-robin. Everything is keyed on event order — no randomness — so
/// same-seed runs replay byte-identically.
pub(crate) struct QosState<T> {
    cfg: QosConfig,
    max_in_flight: usize,
    pub tenants: BTreeMap<String, QosTenantState<T>>,
    /// Sum of tier weights over all registered tenants (the quota
    /// denominator). Grows monotonically as tenants are first seen.
    total_weight: u64,
    /// Tenants with queued work, in first-enqueue order — the DRR ring.
    ring: VecDeque<String>,
}

impl<T> QosState<T> {
    pub fn new(cfg: QosConfig, max_in_flight: usize) -> QosState<T> {
        let mut q = QosState {
            cfg: cfg.clone(),
            max_in_flight,
            tenants: BTreeMap::new(),
            total_weight: 0,
            ring: VecDeque::new(),
        };
        for t in cfg.tiers.keys() {
            q.tenant(t);
        }
        q
    }

    /// `tenant`'s state, registered at its configured tier — and weighing
    /// into the quota split from then on — the first time it is seen.
    fn tenant(&mut self, tenant: &str) -> &mut QosTenantState<T> {
        if !self.tenants.contains_key(tenant) {
            let tier = *self.cfg.tiers.get(tenant).unwrap_or(&self.cfg.default_tier);
            self.total_weight += tier.weight();
            let st = QosTenantState {
                tier,
                in_flight: 0,
                queue: VecDeque::new(),
                deficit: 0,
                issued: 0,
                accepted: 0,
                shed: 0,
                enqueued: 0,
            };
            self.tenants.insert(tenant.to_owned(), st);
        }
        self.tenants.get_mut(tenant).expect("just registered")
    }

    /// A tier's quota: its weighted share of the admission window, never
    /// below one slot.
    pub fn quota(&self, tier: QosTier) -> usize {
        let share = (self.max_in_flight as u64) * tier.weight() / self.total_weight.max(1);
        (share as usize).max(1)
    }

    /// Is some tenant waiting below its own quota? While true, no tenant
    /// may be granted (or admitted) above quota — idle capacity is lent
    /// only when nobody under-quota wants it.
    fn under_quota_waiting(&self) -> bool {
        self.ring.iter().any(|t| {
            let st = &self.tenants[t];
            !st.queue.is_empty() && st.in_flight < self.quota(st.tier)
        })
    }

    /// May a fresh arrival for `tenant` be admitted immediately? Only if
    /// its own queue is empty (per-tenant FIFO order), it is under quota —
    /// or borrowing while no under-quota tenant waits.
    pub fn may_admit(&self, tenant: &str) -> bool {
        let st = &self.tenants[tenant];
        if !st.queue.is_empty() {
            return false;
        }
        let quota = self.quota(st.tier);
        if st.in_flight < quota {
            return true;
        }
        st.in_flight < quota.saturating_add(self.cfg.borrow) && !self.under_quota_waiting()
    }

    /// Park a request in its tenant's FIFO (the caller checked the bound);
    /// returns the queue depth.
    pub fn enqueue(&mut self, tag: QosTag, item: T) -> usize {
        if !self.ring.contains(&tag.tenant) {
            self.ring.push_back(tag.tenant.clone());
        }
        let st = self.tenant(&tag.tenant);
        st.queue.push_back((tag, item));
        st.enqueued += 1;
        st.queue.len()
    }

    /// One deficit-round-robin grant: pop the next eligible tenant's
    /// queue head. Under-quota waiters are always served first; over-quota
    /// tenants are served (borrowing) only when no under-quota tenant
    /// waits. `None` when nothing is eligible.
    fn next_grant(&mut self) -> Option<(QosTag, T)> {
        let under_waiting = self.under_quota_waiting();
        // each ring member is visited at most twice per grant (top-up,
        // then serve), so 2·len + 1 passes always reach a fixed point
        for _ in 0..(self.ring.len() * 2 + 1) {
            let t = self.ring.front()?.clone();
            let tier = self.tenants[&t].tier;
            let quota = self.quota(tier);
            let cap = if under_waiting {
                quota
            } else {
                quota.saturating_add(self.cfg.borrow)
            };
            let st = self.tenants.get_mut(&t).expect("ring member registered");
            if st.queue.is_empty() {
                st.deficit = 0;
                self.ring.pop_front();
            } else if st.in_flight >= cap {
                // not eligible this round: rotate past without touching
                // its deficit
                self.ring.rotate_left(1);
            } else if st.deficit == 0 {
                st.deficit = tier.weight();
                self.ring.rotate_left(1);
            } else {
                st.deficit -= 1;
                return st.queue.pop_front();
            }
        }
        None
    }
}

/// The door's decision for one arrival.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Admit now; tagged when the QoS stage admitted it.
    Admit(Option<QosTag>),
    /// Park in the tenant's door queue ([`Admission::park`]).
    Queue(QosTag),
    /// Refuse, for this reason; names the tenant when the QoS stage
    /// refused it.
    Shed(&'static str, Option<String>),
}

/// A parked request the door lets go of.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Release<T> {
    /// Granted a window slot by deficit round-robin: admit it.
    Grant(QosTag, T),
    /// Flushed because no replica is left: refuse it.
    Shed(QosTag, T),
}

/// The admission stage.
pub(crate) struct Admission<T> {
    max_in_flight: usize,
    in_flight: usize,
    pub counters: DispatchCounters,
    qos: Option<QosState<T>>,
}

impl<T> Admission<T> {
    pub fn new(max_in_flight: usize) -> Admission<T> {
        Admission {
            max_in_flight,
            in_flight: 0,
            counters: DispatchCounters::default(),
            qos: None,
        }
    }

    pub fn set_qos(&mut self, cfg: QosConfig) {
        self.qos = Some(QosState::new(cfg, self.max_in_flight));
    }

    pub fn qos_enabled(&self) -> bool {
        self.qos.is_some()
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Decide one arrival. Invocations carrying a `principal` go through
    /// the QoS stage when it is on: admit under quota, queue at quota,
    /// shed on queue overflow or when no replica is in rotation (queueing
    /// for a dead fleet would just strand the caller). Everything else
    /// meets the global gate alone — deliberately ahead of the
    /// invoke/upload split, so an upload at a saturated door sheds exactly
    /// like an invocation. Sheds are counted here.
    pub fn offer(&mut self, principal: Option<&str>, live: usize, now: SimTime) -> Offer {
        let (Some(q), Some(tenant)) = (self.qos.as_mut(), principal) else {
            let why = if self.in_flight >= self.max_in_flight {
                "admission limit reached"
            } else if live == 0 {
                NO_REPLICAS
            } else {
                return Offer::Admit(None);
            };
            self.counters.shed += 1;
            return Offer::Shed(why, None);
        };
        let st = q.tenant(tenant);
        st.issued += 1;
        let tag = QosTag {
            tenant: tenant.to_owned(),
            tier: st.tier,
            submitted_at: now,
        };
        let why = if live == 0 {
            NO_REPLICAS
        } else if self.in_flight < self.max_in_flight && q.may_admit(tenant) {
            return Offer::Admit(Some(tag));
        } else if q.tenants[tenant].queue.len() < q.cfg.queue_depth {
            return Offer::Queue(tag);
        } else {
            "tenant queue full"
        };
        q.tenant(tenant).shed += 1;
        self.counters.shed += 1;
        Offer::Shed(why, Some(tag.tenant))
    }

    /// Park an [`Offer::Queue`]d arrival; returns its tenant's queue depth.
    pub fn park(&mut self, tag: &QosTag, item: T) -> usize {
        let q = self.qos.as_mut().expect("queued only with qos on");
        q.enqueue(tag.clone(), item)
    }

    /// Bookkeeping for one admission; returns the new in-flight count.
    pub fn admit(&mut self, tag: Option<&QosTag>) -> usize {
        if let (Some(q), Some(tag)) = (self.qos.as_mut(), tag) {
            let st = q.tenant(&tag.tenant);
            st.accepted += 1;
            st.in_flight += 1;
        }
        self.counters.accepted += 1;
        self.in_flight += 1;
        self.in_flight
    }

    /// Bookkeeping for one finished request.
    pub fn close(&mut self, tag: Option<&QosTag>, ok: bool) {
        if let (Some(q), Some(tag)) = (self.qos.as_mut(), tag) {
            let st = q.tenant(&tag.tenant);
            st.in_flight = st
                .in_flight
                .checked_sub(1)
                .expect("tenant in-flight underflow: tag lost in transit");
        }
        self.in_flight -= 1;
        if ok {
            self.counters.completed += 1;
        } else {
            self.counters.faulted += 1;
        }
    }

    /// The door's next release once capacity frees up: the next DRR grant
    /// the window has room for, or — with no replica left in rotation —
    /// the next parked request, shed (nothing can be granted once the
    /// last replica is gone, and a queued-then-shed request counts once,
    /// as shed).
    pub fn release(&mut self, live: usize) -> Option<Release<T>> {
        let q = self.qos.as_mut()?;
        if live > 0 {
            if self.in_flight >= self.max_in_flight {
                return None;
            }
            return q.next_grant().map(|(tag, item)| Release::Grant(tag, item));
        }
        while let Some(t) = q.ring.front() {
            let st = q.tenants.get_mut(t).expect("ring member registered");
            if let Some((tag, item)) = st.queue.pop_front() {
                st.shed += 1;
                self.counters.shed += 1;
                return Some(Release::Shed(tag, item));
            }
            st.deficit = 0;
            q.ring.pop_front();
        }
        None
    }

    /// Per-tenant snapshots (empty with QoS off).
    pub fn tenants(&self) -> BTreeMap<String, TenantQos> {
        let Some(q) = &self.qos else {
            return BTreeMap::new();
        };
        let snapshot = |st: &QosTenantState<T>| TenantQos {
            tier: st.tier,
            quota: q.quota(st.tier),
            in_flight: st.in_flight,
            queued: st.queue.len(),
            issued: st.issued,
            accepted: st.accepted,
            shed: st.shed,
            enqueued: st.enqueued,
        };
        q.tenants
            .iter()
            .map(|(t, st)| (t.clone(), snapshot(st)))
            .collect()
    }

    /// Every tenant conserves (`issued == accepted + shed + queued`), and
    /// an under-quota tenant waits only while the window is full or no
    /// replica is in rotation.
    pub fn audit(&self, live: usize) -> Result<(), String> {
        for (t, s) in self.tenants() {
            if s.issued != s.accepted + s.shed + s.queued as u64 {
                return Err(format!("tenant {t} does not conserve: {s:?}"));
            }
            let window_full = self.in_flight >= self.max_in_flight;
            if s.queued > 0 && s.in_flight < s.quota && !window_full && live > 0 {
                return Err(format!(
                    "tenant {t} waits under quota with {} door slots free: {s:?}",
                    self.max_in_flight - self.in_flight
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold_pair(borrow: usize) -> QosConfig {
        let gold = |t: &str| (t.to_owned(), QosTier::Gold);
        QosConfig {
            tiers: [gold("a"), gold("b")].into_iter().collect(),
            borrow,
            queue_depth: 2,
            ..QosConfig::default()
        }
    }

    /// Offer one arrival for `tenant` with one replica live.
    fn offer<T>(a: &mut Admission<T>, tenant: &str) -> Offer {
        a.offer(Some(tenant), 1, SimTime::ZERO)
    }

    #[test]
    fn global_gate_sheds_at_the_window_and_on_a_dead_fleet() {
        let mut a: Admission<()> = Admission::new(1);
        assert_eq!(
            a.offer(None, 0, SimTime::ZERO),
            Offer::Shed(NO_REPLICAS, None)
        );
        assert_eq!(a.offer(None, 1, SimTime::ZERO), Offer::Admit(None));
        assert_eq!(a.admit(None), 1);
        let full = Offer::Shed("admission limit reached", None);
        assert_eq!(
            offer(&mut a, "alice"),
            full,
            "qos off: principals meet the gate"
        );
        a.close(None, true);
        let c = a.counters;
        assert_eq!((c.accepted, c.shed, c.completed), (1, 2, 1));
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.audit(1), Ok(()));
    }

    #[test]
    fn qos_queues_at_quota_and_grants_in_tenant_order() {
        let mut a: Admission<u32> = Admission::new(2);
        a.set_qos(gold_pair(0));
        // two gold tenants over a window of 2: quota 1 each, no borrowing
        let Offer::Admit(Some(tag)) = offer(&mut a, "a") else {
            panic!("under quota admits");
        };
        a.admit(Some(&tag));
        let Offer::Queue(q1) = offer(&mut a, "a") else {
            panic!("at quota queues");
        };
        assert_eq!(a.park(&q1, 7), 1);
        let Offer::Queue(q2) = offer(&mut a, "a") else {
            panic!("second queues");
        };
        assert_eq!(a.park(&q2, 8), 2);
        assert!(matches!(
            offer(&mut a, "a"),
            Offer::Shed("tenant queue full", _)
        ));
        assert!(a.release(1).is_none(), "a is at quota; nothing is eligible");
        assert_eq!(a.audit(1), Ok(()), "a waits over quota, which is fair");
        a.close(Some(&tag), true);
        let Some(Release::Grant(granted, 7)) = a.release(1) else {
            panic!("a is back under quota: its first parked request goes");
        };
        assert_eq!(granted.tenant, "a");
        a.admit(Some(&granted));
        let snap = &a.tenants()["a"];
        assert_eq!(
            (snap.issued, snap.accepted, snap.shed, snap.queued),
            (4, 2, 1, 1)
        );
        assert_eq!(a.audit(1), Ok(()));
    }

    #[test]
    fn flush_sheds_every_parked_request_once() {
        let mut a: Admission<&str> = Admission::new(1);
        a.set_qos(QosConfig::default());
        let Offer::Admit(Some(tag)) = offer(&mut a, "t") else {
            panic!("first admits");
        };
        a.admit(Some(&tag));
        let Offer::Queue(q) = offer(&mut a, "t") else {
            panic!("window full queues");
        };
        a.park(&q, "parked");
        assert!(a.release(1).is_none(), "the window is full");
        assert_eq!(a.release(0), Some(Release::Shed(q, "parked")));
        assert!(a.release(0).is_none());
        let snap = &a.tenants()["t"];
        assert_eq!(
            (snap.issued, snap.accepted, snap.shed, snap.queued),
            (2, 1, 1, 0)
        );
        assert_eq!(a.counters.shed, 1);
        let dead = a.offer(Some("t"), 0, SimTime::ZERO);
        assert_eq!(dead, Offer::Shed(NO_REPLICAS, Some("t".to_owned())));
    }

    #[test]
    fn audit_flags_an_under_quota_waiter_beside_free_slots() {
        let mut a: Admission<()> = Admission::new(4);
        a.set_qos(gold_pair(0));
        // quota 2 each; fill a's quota, then park one behind it
        for _ in 0..2 {
            let Offer::Admit(Some(tag)) = offer(&mut a, "a") else {
                panic!("under quota admits");
            };
            a.admit(Some(&tag));
        }
        let Offer::Queue(tag) = offer(&mut a, "a") else {
            panic!("at quota queues");
        };
        a.park(&tag, ());
        assert_eq!(a.audit(1), Ok(()));
        // finish one without granting: a now waits under quota
        a.close(Some(&tag), true);
        let err = a.audit(1).unwrap_err();
        assert!(err.contains("under quota"), "{err}");
        assert_eq!(a.audit(0), Ok(()), "a dead fleet excuses the wait");
    }
}
