//! The routing stage: which replica serves one attempt.
//!
//! Plain data — slots, the affinity pin table, the round-robin, probe and
//! canary cursors — with no `Sim` and no callbacks. A route is two steps:
//!
//! 1. **Candidate filters**, each a pass over one reused candidate
//!    buffer: draining slots out, probation weighting, severed sites out.
//! 2. **Pickers**, tried in order: the affinity pin (hit, federation
//!    forward, or rendezvous re-pin), then the canary share, then the
//!    first-sight pick (nearest site under a geo plane, then the base
//!    policy).
//!
//! A plane that is off leaves its pass and its picker a no-op, so routing
//! without it is bit-for-bit what it was before the plane existed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use simkit::{Recorder, SimTime};

use super::{AffinityConfig, Backend, DispatchCounters, Policy};
use crate::geo::GeoPlane;

/// Of every `PROBE_EVERY` routes made while any slot is on probation, one
/// may consider the probationers — so a recovering replica still sees
/// enough traffic for the detector to clear it.
const PROBE_EVERY: u64 = 8;

/// One backend in rotation (or draining out of it).
pub(crate) struct Slot {
    pub backend: Rc<dyn Backend>,
    /// Ops currently outstanding on this backend (attempt granularity).
    pub ops: Vec<u64>,
    draining: bool,
    /// Probation-weighted by the gray-failure detector: the slot stays in
    /// rotation but only receives probe traffic until the detector clears
    /// or ejects it.
    probation: bool,
    /// The backend's `<name>.cpu.busy` recorder key, precomputed so the
    /// utilization-weighted pick allocates nothing per candidate.
    busy_key: String,
}

impl Slot {
    fn name(&self) -> &str {
        self.backend.name()
    }
}

/// How an affinity-keyed route resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Affinity {
    /// Routed to the replica the key was pinned to.
    Hit,
    /// First sight of the key: pinned by the canary or first-sight pick.
    Miss,
    /// The pin was invalidated by a loss or drain: reassigned by
    /// rendezvous hash.
    Repin,
    /// The pinned replica sits behind a severed site: served by a peer
    /// site with the pin kept (federation).
    Forward,
}

impl Affinity {
    /// The span label and the sim counter of this outcome.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            Affinity::Hit => ("hit", "dispatcher.affinity_hit"),
            Affinity::Miss => ("miss", "dispatcher.affinity_miss"),
            Affinity::Repin => ("repin", "dispatcher.affinity_repin"),
            Affinity::Forward => ("forward", "dispatcher.affinity_forward"),
        }
    }

    /// This outcome's field in the conservation counters.
    pub fn counter(self, c: &mut DispatchCounters) -> &mut u64 {
        match self {
            Affinity::Hit => &mut c.affinity_hits,
            Affinity::Miss => &mut c.affinity_misses,
            Affinity::Repin => &mut c.affinity_repins,
            Affinity::Forward => &mut c.forwarded,
        }
    }
}

/// What a route reads from outside the router.
pub(crate) struct Env<'a> {
    pub now: SimTime,
    pub geo: Option<&'a GeoPlane>,
    /// The utilization-weighted pick reads `<name>.cpu.busy` here.
    pub recorder: &'a Recorder,
}

/// One affinity-table entry.
enum Pin {
    /// Pinned to the named live replica.
    Live(String),
    /// The pinned replica (named, so a geo plane can still look up its
    /// home site) was ejected or drained; the key is reassigned
    /// (rendezvous hash) on its next request.
    Orphaned(String),
}

/// Bounded `principal → replica` table, oldest-key eviction.
#[derive(Default)]
struct AffinityTable {
    pins: HashMap<String, Pin>,
    /// Keys in insertion order, for capacity eviction.
    order: VecDeque<String>,
}

impl AffinityTable {
    /// Pin `key` to `replica`, evicting the oldest key at capacity.
    fn pin(&mut self, key: &str, replica: &str, capacity: usize) {
        if let Some(p) = self.pins.get_mut(key) {
            *p = Pin::Live(replica.to_owned());
            return;
        }
        while self.order.len() >= capacity.max(1) {
            if let Some(old) = self.order.pop_front() {
                self.pins.remove(&old);
            }
        }
        self.pins
            .insert(key.to_owned(), Pin::Live(replica.to_owned()));
        self.order.push_back(key.to_owned());
    }

    /// Orphan every pin pointing at `replica` (loss/drain invalidation).
    fn orphan_replica(&mut self, replica: &str) {
        for p in self.pins.values_mut() {
            if matches!(p, Pin::Live(r) if r == replica) {
                *p = Pin::Orphaned(replica.to_owned());
            }
        }
    }

    /// The replica `key` is live-pinned to.
    fn live(&self, key: &str) -> Option<&str> {
        match self.pins.get(key)? {
            Pin::Live(r) => Some(r),
            Pin::Orphaned(_) => None,
        }
    }
}

/// Rendezvous (highest-random-weight) score of `replica` for `key`:
/// FNV-1a over both names, finished with a splitmix64 mix. Deliberately
/// hand-rolled — `std`'s default hasher is randomly seeded per process,
/// which would break byte-identical replays.
pub(crate) fn rendezvous_score(key: &str, replica: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key
        .as_bytes()
        .iter()
        .chain(&[0xff])
        .chain(replica.as_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The first candidate with the least `key` (ties keep the earlier one).
fn first_min<K: PartialOrd>(cands: &[usize], key: impl Fn(usize) -> K) -> usize {
    let mut best = (cands[0], key(cands[0]));
    for &i in &cands[1..] {
        let k = key(i);
        if k < best.1 {
            best = (i, k);
        }
    }
    best.0
}

/// Canary traffic share: route `k` (a counter, not the clock) goes to the
/// target iff `k % 100 < share_pct`.
struct Canary {
    target: String,
    share_pct: u32,
    cursor: u64,
}

/// The routing stage.
pub(crate) struct Router {
    policy: Policy,
    affinity: Option<AffinityConfig>,
    slots: Vec<Slot>,
    pins: AffinityTable,
    rr_cursor: usize,
    /// Counts routes made while probation is active, for the probe window.
    probe_cursor: u64,
    canary: Option<Canary>,
    /// The candidate buffer the filter passes narrow, reused per route.
    cands: Vec<usize>,
}

impl Router {
    pub fn new(policy: Policy, affinity: Option<AffinityConfig>) -> Router {
        Router {
            policy,
            affinity,
            slots: Vec::new(),
            pins: AffinityTable::default(),
            rr_cursor: 0,
            probe_cursor: 0,
            canary: None,
            cands: Vec::new(),
        }
    }

    // -- slots ----------------------------------------------------------------

    pub fn add(&mut self, backend: Rc<dyn Backend>) {
        let busy_key = format!("{}.cpu.busy", backend.name());
        self.slots.push(Slot {
            backend,
            ops: Vec::new(),
            draining: false,
            probation: false,
            busy_key,
        });
    }

    /// The first slot named `name`, draining or not.
    fn slot(&self, name: &str) -> Option<&Slot> {
        self.slots.iter().find(|s| s.name() == name)
    }

    /// The backend of the first slot named `name`, draining or not.
    pub fn backend_named(&self, name: &str) -> Option<Rc<dyn Backend>> {
        self.slot(name).map(|s| Rc::clone(&s.backend))
    }

    /// Attempts outstanding on the first slot named `name` (0 if none).
    pub fn outstanding(&self, name: &str) -> usize {
        self.slot(name).map_or(0, |s| s.ops.len())
    }

    /// The index of the slot named `name` that is in rotation.
    fn live_idx(&self, name: &str) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| !s.draining && s.name() == name)
    }

    pub fn backend(&self, idx: usize) -> &Rc<dyn Backend> {
        &self.slots[idx].backend
    }

    /// Indices of every slot in rotation.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| !self.slots[i].draining)
            .collect()
    }

    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| !s.draining).count()
    }

    /// Attempts outstanding across all slots.
    pub fn queued_depth(&self) -> usize {
        self.slots.iter().map(|s| s.ops.len()).sum()
    }

    pub fn probation_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.draining && s.probation)
            .count()
    }

    pub fn set_probation(&mut self, name: &str, on: bool) -> bool {
        self.live_idx(name)
            .map(|i| self.slots[i].probation = on)
            .is_some()
    }

    /// Note op `id` on slot `idx`; returns the slot's new depth.
    pub fn assign(&mut self, idx: usize, id: u64) -> usize {
        let ops = &mut self.slots[idx].ops;
        ops.push(id);
        ops.len()
    }

    /// Drop op `id` from `name`'s slot. True when that leaves a draining
    /// slot idle (time to retire it); false too once the slot is ejected.
    pub fn release(&mut self, name: &str, id: u64) -> bool {
        let holder = |s: &&mut Slot| s.name() == name && s.ops.contains(&id);
        let Some(slot) = self.slots.iter_mut().find(holder) else {
            return false;
        };
        slot.ops.retain(|&o| o != id);
        slot.draining && slot.ops.is_empty()
    }

    /// Start draining live `name` and orphan its pins; `Some(idle)`, or
    /// `None` when no live slot has that name.
    pub fn drain(&mut self, name: &str) -> Option<bool> {
        let i = self.live_idx(name)?;
        let slot = &mut self.slots[i];
        slot.draining = true;
        let idle = slot.ops.is_empty();
        self.pins.orphan_replica(name);
        Some(idle)
    }

    /// Remove `name`'s slot outright and orphan its pins; returns the ops
    /// it still had outstanding, or `None` if no slot has that name.
    pub fn eject(&mut self, name: &str) -> Option<Vec<u64>> {
        let i = self.slots.iter().position(|s| s.name() == name)?;
        self.pins.orphan_replica(name);
        Some(self.slots.remove(i).ops)
    }

    /// Drop `name`'s slot if it is draining and idle.
    pub fn retire(&mut self, name: &str) {
        self.slots
            .retain(|s| !(s.draining && s.ops.is_empty() && s.name() == name));
    }

    /// Every op outstanding on a slot whose name passes `keep`.
    pub fn ops_on(&self, keep: impl Fn(&str) -> bool) -> Vec<u64> {
        let on = self.slots.iter().filter(|s| keep(s.name()));
        on.flat_map(|s| s.ops.iter().copied()).collect()
    }

    // -- routing --------------------------------------------------------------

    /// Deterministic replica choice for one attempt: the slot index, and
    /// for an affinity-keyed attempt how the pin resolved. `None` when no
    /// candidate survives the filters.
    pub fn route(&mut self, key: Option<&str>, env: &Env) -> Option<(usize, Option<Affinity>)> {
        self.filter(env).then(|| self.pick(key, env))
    }

    /// The candidate passes; false when nothing survives.
    fn filter(&mut self, env: &Env) -> bool {
        let (slots, cands) = (&self.slots, &mut self.cands);
        cands.clear();
        cands.extend((0..slots.len()).filter(|&i| !slots[i].draining));
        // Probation weighting: while any candidate is on probation, most
        // routes consider only the clean subset and every `PROBE_EVERY`th
        // goes to the probationers instead, so they keep receiving a
        // deterministic trickle of probe traffic for the detector to
        // score. With every candidate on probation the pass is a no-op
        // (keep serving rather than shed).
        if cands.iter().any(|&i| slots[i].probation) {
            let k = self.probe_cursor;
            self.probe_cursor = k.wrapping_add(1);
            if cands.iter().any(|&i| !slots[i].probation) {
                let probe = k.is_multiple_of(PROBE_EVERY);
                cands.retain(|&i| slots[i].probation == probe);
            }
        }
        // Geo pass: replicas on a severed site sit out the outage window;
        // with every placed site dark the request sheds rather than being
        // fed into a partition.
        if let Some(g) = env.geo {
            let up = |site: String| !g.is_down(&site, env.now);
            cands.retain(|&i| g.site_of(slots[i].name()).is_none_or(up));
        }
        !cands.is_empty()
    }

    /// The pickers, in order: pin, then canary, then first sight.
    fn pick(&mut self, key: Option<&str>, env: &Env) -> (usize, Option<Affinity>) {
        let (Some(aff), Some(key)) = (self.affinity, key) else {
            return (self.first_sight(env), None);
        };
        let site = |name: &str| env.geo.and_then(|g| g.site_of(name));
        // a stale pin's home site, and whether to forward instead of
        // re-pinning
        let stale = match self.pins.pins.get(key) {
            None => None,
            // eject/drain orphan the pin, so a Live pin resolves unless
            // probation or a severed site filtered it out
            Some(Pin::Live(r)) => {
                if let Some(&i) = self.cands.iter().find(|&&i| self.slots[i].name() == r) {
                    return (i, Some(Affinity::Hit));
                }
                // HTCondor-C-style forwarding: the pinned replica is still
                // in rotation but its site is severed. Serve the principal
                // from the nearest healthy peer *without* re-pinning, so
                // the session comes home on reconnect.
                let home = site(r);
                let severed = |g: &GeoPlane| home.as_deref().is_some_and(|s| g.is_down(s, env.now));
                let forward = env.geo.is_some_and(|g| g.federation() && severed(g));
                Some((forward && self.live_idx(r).is_some(), home))
            }
            // the pin died with its replica: reassignment prefers peers of
            // the dead replica's home site (placements outlive the replica)
            Some(Pin::Orphaned(dead)) => Some((false, site(dead))),
        };
        let (i, outcome) = match stale {
            // first sight: the canary takes its share, then the first-sight
            // pick spreads the rest; either way the choice sticks
            None => (self.first_sight(env), Affinity::Miss),
            Some((forward, home)) => {
                let i = self.rendezvous(key, home.as_deref(), env);
                if forward {
                    return (i, Some(Affinity::Forward));
                }
                (i, Affinity::Repin)
            }
        };
        self.pins.pin(key, self.slots[i].name(), aff.capacity);
        (i, Some(outcome))
    }

    /// Narrow the candidates to the nearest site (walking outward from
    /// `from`) holding one that passes `keep`; untouched when none does.
    fn nearest_site(&mut self, g: &GeoPlane, from: &str, keep: impl Fn(&Slot) -> bool) {
        let slots = &self.slots;
        for site in g.map().nearest_order(from) {
            let in_site = |i: &usize| {
                keep(&slots[*i]) && g.site_of(slots[*i].name()).as_deref() == Some(&*site)
            };
            if self.cands.iter().any(in_site) {
                self.cands.retain(in_site);
                return;
            }
        }
    }

    /// Deterministic reassignment, a pure function of (key, home, live
    /// names, outage schedule): the nearest site to `home` holding a
    /// candidate wins, and the highest rendezvous score within it.
    fn rendezvous(&mut self, key: &str, home: Option<&str>, env: &Env) -> usize {
        if let (Some(g), Some(home)) = (env.geo, home) {
            self.nearest_site(g, home, |_| true);
        }
        first_min(&self.cands, |i| {
            Reverse(rendezvous_score(key, self.slots[i].name()))
        })
    }

    /// First-sight pick: the canary's share, else the base policy —
    /// within the nearest site with an open (below-spill) replica under a
    /// geo plane, spilling outward when a site saturates.
    fn first_sight(&mut self, env: &Env) -> usize {
        if let Some(c) = self.canary.as_mut() {
            let k = c.cursor;
            c.cursor = k.wrapping_add(1);
            // a crashed or draining canary simply stops claiming routes
            if k % 100 < u64::from(c.share_pct) {
                if let Some(&i) = self
                    .cands
                    .iter()
                    .find(|&&i| self.slots[i].name() == c.target)
                {
                    return i;
                }
            }
        }
        if let Some(g) = env.geo {
            let spill = g.spill_threshold();
            self.nearest_site(g, &g.origin(), |s| s.ops.len() < spill);
        }
        let (slots, cands) = (&self.slots, &self.cands);
        match self.policy {
            Policy::RoundRobin => {
                let k = self.rr_cursor;
                self.rr_cursor = k.wrapping_add(1);
                cands[k % cands.len()]
            }
            Policy::LeastOutstanding => first_min(cands, |i| slots[i].ops.len()),
            Policy::UtilizationWeighted => {
                first_min(cands, |i| env.recorder.total(&slots[i].busy_key))
            }
        }
    }

    // -- canary and pins ------------------------------------------------------

    pub fn set_canary(&mut self, target: &str, share_pct: u32) {
        self.canary = Some(Canary {
            target: target.to_owned(),
            share_pct,
            cursor: 0,
        });
    }

    pub fn clear_canary(&mut self) {
        self.canary = None;
    }

    pub fn canary_target(&self) -> Option<String> {
        self.canary.as_ref().map(|c| c.target.clone())
    }

    /// Live slots with the count of live pins each holds (zero included).
    pub fn live_pin_counts(&self) -> BTreeMap<String, usize> {
        let live = self.slots.iter().filter(|s| !s.draining);
        let mut counts: BTreeMap<String, usize> = live.map(|s| (s.name().to_owned(), 0)).collect();
        for (_, r) in self.live_pins() {
            counts.entry(r).and_modify(|c| *c += 1);
        }
        counts
    }

    /// Move the top `fraction` of live pins (by rendezvous score for
    /// `target`, ties by key) onto `target`; returns the moved
    /// `(key, previous replica)` pairs in rank order.
    pub fn shift_pins(&mut self, target: &str, fraction: f64) -> Vec<(String, String)> {
        let mut ranked = self.live_pins();
        ranked.retain(|(_, r)| r != target);
        // live_pins is key-sorted and the sort is stable
        ranked.sort_by_cached_key(|(k, _)| Reverse(rendezvous_score(k, target)));
        ranked.truncate((ranked.len() as f64 * fraction).round() as usize);
        for (key, _) in &ranked {
            self.pins
                .pins
                .insert(key.clone(), Pin::Live(target.to_owned()));
        }
        ranked
    }

    /// Undo [`Router::shift_pins`] for pins still on `target`: back to the
    /// previous replica, or orphaned if it has left rotation.
    pub fn restore_pins(&mut self, target: &str, shifted: &[(String, String)]) -> usize {
        let mut restored = 0;
        for (key, prev) in shifted {
            if self.pins.live(key) != Some(target) {
                continue;
            }
            let pin = if self.live_idx(prev).is_some() {
                Pin::Live
            } else {
                Pin::Orphaned
            };
            self.pins.pins.insert(key.clone(), pin(prev.clone()));
            restored += 1;
        }
        restored
    }

    pub fn pin_target(&self, key: &str) -> Option<String> {
        self.pins.live(key).map(str::to_owned)
    }

    /// Every live pin as sorted `(key, replica)` pairs.
    pub fn live_pins(&self) -> Vec<(String, String)> {
        let keys = self.pins.pins.keys();
        let mut pins: Vec<_> = keys
            .filter_map(|k| Some((k.clone(), self.pins.live(k)?.to_owned())))
            .collect();
        pins.sort();
        pins
    }

    /// Slot ops match the op table `ops` (sorted `(id, backend)`) one to
    /// one, and every live pin targets a slot in rotation.
    pub fn audit(&self, ops: &[(u64, &str)]) -> Result<(), String> {
        let on = self
            .slots
            .iter()
            .flat_map(|s| s.ops.iter().map(move |&id| (id, s.name())));
        let mut on_slots: Vec<(u64, &str)> = on.collect();
        on_slots.sort_unstable();
        if on_slots != ops {
            return Err(format!("slot ops {on_slots:?} != op table {ops:?}"));
        }
        match self
            .live_pins()
            .into_iter()
            .find(|(_, r)| self.live_idx(r).is_none())
        {
            Some((key, r)) => Err(format!("live pin {key} -> {r}, which is not in rotation")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::{Request, Responder};
    use simkit::{Duration, Sim};

    struct Named(String);

    impl Backend for Named {
        fn name(&self) -> &str {
            &self.0
        }
        fn serve(&self, _: &mut Sim, _: Request, _: Responder) {
            unreachable!("the router never serves")
        }
    }

    fn router(policy: Policy, affinity: bool, names: &[&str]) -> Router {
        let mut r = Router::new(policy, affinity.then(AffinityConfig::default));
        for n in names {
            r.add(Rc::new(Named((*n).to_owned())));
        }
        r
    }

    /// Route `key` and name the chosen slot.
    fn go(r: &mut Router, key: Option<&str>) -> Option<(String, Option<Affinity>)> {
        let rec = Recorder::new(Duration::from_secs(1));
        let env = Env {
            now: SimTime::ZERO,
            geo: None,
            recorder: &rec,
        };
        let (i, a) = r.route(key, &env)?;
        Some((r.backend(i).name().to_owned(), a))
    }

    fn names(r: &mut Router, n: usize) -> Vec<String> {
        (0..n).map(|_| go(r, None).unwrap().0).collect()
    }

    #[test]
    fn round_robin_skips_draining_slots_and_retires_idle_ones() {
        let mut r = router(Policy::RoundRobin, false, &["a", "b", "c"]);
        assert_eq!(names(&mut r, 3), ["a", "b", "c"]);
        assert_eq!(r.assign(0, 7), 1);
        assert_eq!(r.drain("a"), Some(false), "busy: drains later");
        assert_eq!(r.drain("a"), None, "already draining");
        assert_eq!(r.live(), 2);
        assert_eq!(names(&mut r, 2), ["c", "b"], "the cursor keeps counting");
        assert!(r.release("a", 7), "last op out of a draining slot");
        r.retire("a");
        assert!(r.slot("a").is_none());
        assert_eq!(r.eject("c"), Some(Vec::new()));
        assert_eq!(names(&mut r, 2), ["b", "b"]);
        assert_eq!(r.eject("b"), Some(Vec::new()));
        assert!(go(&mut r, None).is_none(), "nothing left to route to");
    }

    #[test]
    fn least_outstanding_takes_the_first_idle_slot() {
        let mut r = router(Policy::LeastOutstanding, false, &["a", "b", "c"]);
        r.assign(0, 1);
        r.assign(1, 2);
        assert_eq!(names(&mut r, 1), ["c"]);
        r.assign(2, 3);
        assert_eq!(names(&mut r, 1), ["a"], "ties go to the first");
        assert_eq!(r.queued_depth(), 3);
        assert_eq!(r.ops_on(|n| n != "b"), [1, 3]);
    }

    #[test]
    fn affinity_misses_then_hits_and_repins_by_rendezvous() {
        let mut r = router(Policy::RoundRobin, true, &["a", "b", "c"]);
        let (first, a) = go(&mut r, Some("k")).unwrap();
        assert_eq!(a, Some(Affinity::Miss));
        let again = go(&mut r, Some("k")).unwrap();
        assert_eq!(again, (first.clone(), Some(Affinity::Hit)));
        assert_eq!(
            go(&mut r, None).unwrap().1,
            None,
            "keyless routes skip affinity"
        );
        r.eject(&first);
        assert_eq!(r.pin_target("k"), None, "the eject orphaned the pin");
        let survivors = ["a", "b", "c"].into_iter().filter(|n| *n != first);
        let expect = survivors.max_by_key(|n| rendezvous_score("k", n)).unwrap();
        let repinned = go(&mut r, Some("k")).unwrap();
        assert_eq!(repinned, (expect.to_owned(), Some(Affinity::Repin)));
        assert_eq!(r.live_pins(), [("k".to_owned(), expect.to_owned())]);
        assert!(r.audit(&[]).is_ok());
    }

    #[test]
    fn probation_admits_one_probe_route_in_eight() {
        let mut r = router(Policy::RoundRobin, false, &["a", "b"]);
        assert!(r.set_probation("b", true));
        assert!(!r.set_probation("zz", true));
        assert_eq!(r.probation_count(), 1);
        let picks = names(&mut r, 16);
        assert_eq!(picks.iter().filter(|n| *n == "b").count(), 2);
        assert_eq!((picks[0].as_str(), picks[8].as_str()), ("b", "b"));
        r.set_probation("a", true);
        assert_eq!(
            names(&mut r, 2),
            ["a", "b"],
            "all on probation: keep serving"
        );
    }

    #[test]
    fn canary_claims_its_share_of_first_sight_routes() {
        let mut r = router(Policy::RoundRobin, false, &["a", "b", "canary"]);
        r.set_canary("canary", 30);
        assert_eq!(r.canary_target().as_deref(), Some("canary"));
        let picks = names(&mut r, 100);
        assert!(picks[..30].iter().all(|n| n == "canary"));
        // the other 70 round-robin over all three, the canary included
        assert_eq!(picks.iter().filter(|n| *n == "canary").count(), 30 + 70 / 3);
        r.clear_canary();
        assert_eq!(r.canary_target(), None);
    }

    #[test]
    fn shifted_pins_restore_or_orphan() {
        let mut r = router(Policy::RoundRobin, true, &["a", "b", "c"]);
        for k in ["k0", "k1", "k2", "k3"] {
            go(&mut r, Some(k));
        }
        let shifted = r.shift_pins("c", 1.0);
        assert_eq!(shifted.len(), 3, "k2 was already on c");
        assert!(r.live_pins().iter().all(|(_, t)| t == "c"));
        assert_eq!(r.live_pin_counts()["c"], 4);
        r.drain("a");
        assert_eq!(r.restore_pins("c", &shifted), 3);
        assert_eq!(r.pin_target("k1").as_deref(), Some("b"));
        assert_eq!(r.pin_target("k0"), None, "a drained: orphaned instead");
        assert!(r.audit(&[]).is_ok());
    }
}
