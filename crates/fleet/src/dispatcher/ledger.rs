//! The op ledger: every dispatched attempt, keyed by op id.
//!
//! Plain data over an opaque continuation `T` — the ledger never calls
//! anything. Taking an op out is what settles it: a second take (a dead
//! replica's late answer, a watchdog that lost the race) finds nothing,
//! which is the whole zombie-drop rule.

use std::collections::HashMap;

use simkit::engine::EventId;
use simkit::SimTime;

/// One outstanding attempt.
pub(crate) struct Op<T> {
    /// The backend the attempt was sent to.
    pub backend: String,
    /// When it was dispatched (the health plane's latency origin).
    pub started: SimTime,
    /// The armed watchdog, if a request timeout is configured.
    pub watchdog: Option<EventId>,
    /// What resolving the op continues.
    pub then: T,
}

/// The central op table.
pub(crate) struct OpLedger<T> {
    next: u64,
    ops: HashMap<u64, Op<T>>,
}

impl<T> Default for OpLedger<T> {
    fn default() -> Self {
        OpLedger {
            next: 0,
            ops: HashMap::new(),
        }
    }
}

impl<T> OpLedger<T> {
    /// Record a new attempt on `backend`; returns its op id.
    pub fn open(&mut self, backend: &str, started: SimTime, then: T) -> u64 {
        let id = self.next;
        self.next += 1;
        let op = Op {
            backend: backend.to_owned(),
            started,
            watchdog: None,
            then,
        };
        self.ops.insert(id, op);
        id
    }

    /// Remove and return an op; `None` once it has been resolved.
    pub fn take(&mut self, id: u64) -> Option<Op<T>> {
        self.ops.remove(&id)
    }

    /// The live op `id`, for re-arming its watchdog.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Op<T>> {
        self.ops.get_mut(&id)
    }

    /// The backend op `id` was sent to, while it is unresolved.
    pub fn backend_of(&self, id: u64) -> Option<&str> {
        self.ops.get(&id).map(|op| op.backend.as_str())
    }

    /// Every unresolved op as `(id, backend)`, in id order.
    pub fn entries(&self) -> Vec<(u64, &str)> {
        let mut v: Vec<(u64, &str)> = self
            .ops
            .iter()
            .map(|(&id, op)| (id, op.backend.as_str()))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_take_settles_once() {
        let mut l: OpLedger<&str> = OpLedger::default();
        let a = l.open("r0", SimTime::ZERO, "first");
        let b = l.open("r1", SimTime::ZERO, "second");
        assert_eq!((a, b), (0, 1));
        assert_eq!(l.backend_of(b), Some("r1"));
        assert_eq!(l.take(a).map(|op| op.then), Some("first"));
        assert!(
            l.take(a).is_none(),
            "a resolved op is gone: late answers drop"
        );
        assert!(l.backend_of(a).is_none() && l.backend_of(b).is_some());
        assert_eq!(l.entries(), vec![(1, "r1")]);
    }

    #[test]
    fn watchdog_slot_is_per_op() {
        let mut l: OpLedger<()> = OpLedger::default();
        let a = l.open("r0", SimTime::ZERO, ());
        assert!(l.get_mut(a).unwrap().watchdog.is_none());
        assert!(l.get_mut(a + 1).is_none(), "unknown ids have no op");
        let op = l.take(a).unwrap();
        assert_eq!((op.backend.as_str(), op.started), ("r0", SimTime::ZERO));
        assert!(l.backend_of(a).is_none());
    }
}
