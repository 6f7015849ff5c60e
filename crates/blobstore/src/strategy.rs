//! Timed storage paths on a simulated host.
//!
//! Section VIII-D3 diagnoses the implementation's storage flaw: "When a
//! file is loaded to the server, it is first stored into a temporary
//! location and then loaded from this location into the database. Hence
//! there are at least two write operations and one read operation necessary
//! just to store one file" — and Figure 8 shows the two disk-write peaks.
//! [`WriteStrategy::DoubleWrite`] reproduces that path;
//! [`WriteStrategy::Direct`] is the "may be improved" ablation the paper
//! suggests. Reads (service use) are "two reads and just one write ... and
//! also mandatory" (§VIII-D3): DB read + temp write + temp read.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use simkit::{FaultInjector, Host, Sim};

use crate::store::{BlobDb, DbError, ParamSpec};

/// CPU seconds to compress `bytes` (hash-chain LZ, ~40 MB/s on 2010 iron).
pub fn compress_cpu_secs(bytes: f64) -> f64 {
    bytes / (40.0 * 1024.0 * 1024.0)
}

/// CPU seconds to decompress `bytes` (~150 MB/s).
pub fn decompress_cpu_secs(bytes: f64) -> f64 {
    bytes / (150.0 * 1024.0 * 1024.0)
}

/// How uploads reach the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteStrategy {
    /// The paper's implementation: temp-file write → temp read → DB write.
    DoubleWrite,
    /// The suggested fix: straight into the database.
    Direct,
}

/// What a timed store operation cost, for the experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreTiming {
    /// Bytes written to disk (all passes).
    pub disk_write_bytes: f64,
    /// Bytes read from disk.
    pub disk_read_bytes: f64,
    /// CPU seconds burned (compression).
    pub cpu_seconds: f64,
}

/// A [`BlobDb`] bound to a host, with timed operations.
pub struct TimedDb {
    db: Rc<RefCell<BlobDb>>,
    host: Rc<Host>,
    strategy: WriteStrategy,
    faults: RefCell<Option<Rc<FaultInjector>>>,
}

impl TimedDb {
    /// Bind `db` to `host` under the given write strategy.
    pub fn new(db: Rc<RefCell<BlobDb>>, host: Rc<Host>, strategy: WriteStrategy) -> Rc<TimedDb> {
        Rc::new(TimedDb {
            db,
            host,
            strategy,
            faults: RefCell::new(None),
        })
    }

    /// Subject stores to a [`FaultInjector`]: each store may fail with
    /// [`DbError::WriteFailed`] at the DB-write step — after the temp pass
    /// and compression were already paid for, like a real mid-transaction
    /// I/O error. Pass `None` to heal.
    pub fn inject_faults(&self, injector: Option<Rc<FaultInjector>>) {
        *self.faults.borrow_mut() = injector;
    }

    /// The raw database handle.
    pub fn db(&self) -> &Rc<RefCell<BlobDb>> {
        &self.db
    }

    /// The active strategy.
    pub fn strategy(&self) -> WriteStrategy {
        self.strategy
    }

    /// Store an uploaded executable with full timing: disk passes per the
    /// strategy, compression CPU, then the database insert.
    pub fn store<F>(
        self: &Rc<Self>,
        sim: &mut Sim,
        name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        data: Bytes,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<u64, DbError>, StoreTiming) + 'static,
    {
        let bytes = data.len() as f64;
        let span = sim.span_begin("db.store");
        sim.span_attr(span, "file", name);
        sim.span_attr(span, "bytes", bytes);
        let this = Rc::clone(self);
        let name = name.to_owned();
        let description = description.to_owned();
        // single close point: every exit path funnels through `done`
        let done = move |sim: &mut Sim, res: Result<u64, DbError>, timing: StoreTiming| {
            match &res {
                Ok(_) => sim.span_end(span),
                Err(e) => sim.span_fail(span, &e.to_string()),
            }
            done(sim, res, timing);
        };
        let insert = move |sim: &mut Sim, mut timing: StoreTiming| {
            // compress on CPU, then one disk write of the compressed blob
            let wspan = sim.span_child("db.db_write", span);
            let cpu = compress_cpu_secs(bytes);
            timing.cpu_seconds += cpu;
            let this2 = Rc::clone(&this);
            this.host.clone().compute(sim, cpu, move |sim| {
                let injected = this2
                    .faults
                    .borrow()
                    .as_ref()
                    .is_some_and(|f| f.fail_write());
                let res = if injected {
                    Err(DbError::WriteFailed(name.clone()))
                } else {
                    this2.db.borrow_mut().insert(&name, &description, params, &data)
                };
                match res {
                    Ok(id) => {
                        let stored = this2
                            .db
                            .borrow()
                            .record_by_id(id)
                            .map(|r| r.stored_len as f64)
                            .unwrap_or(bytes);
                        timing.disk_write_bytes += stored;
                        let host = Rc::clone(&this2.host);
                        host.write_disk(sim, stored, move |sim| {
                            sim.span_attr(wspan, "bytes", stored);
                            sim.span_end(wspan);
                            done(sim, Ok(id), timing);
                        });
                    }
                    Err(e) => {
                        sim.span_fail(wspan, &e.to_string());
                        done(sim, Err(e), timing);
                    }
                }
            });
        };
        match self.strategy {
            WriteStrategy::Direct => insert(sim, StoreTiming::default()),
            WriteStrategy::DoubleWrite => {
                // temp write, then read it back, then the DB path; the two
                // child spans make the §VIII-D3 double-write visible in a
                // trace of the upload
                let tspan = sim.span_child("db.temp_write", span);
                sim.span_attr(tspan, "bytes", bytes);
                let host = Rc::clone(&self.host);
                let host2 = Rc::clone(&self.host);
                host.write_disk(sim, bytes, move |sim| {
                    host2.read_disk(sim, bytes, move |sim| {
                        sim.span_end(tspan);
                        insert(
                            sim,
                            StoreTiming {
                                disk_write_bytes: bytes,
                                disk_read_bytes: bytes,
                                cpu_seconds: 0.0,
                            },
                        );
                    });
                });
            }
        }
    }

    /// Load an executable for use: DB read (compressed), decompress on
    /// CPU, write to a temporary location, read it back for the upload —
    /// the §VII-B "file retrieval" step ("loaded from the database and then
    /// stored in a temporary location").
    ///
    /// Every call pays the whole virtual cost, decompression included,
    /// even though [`BlobDb::load`] decodes a row on the host only once.
    pub fn load_for_use<F>(self: &Rc<Self>, sim: &mut Sim, name: &str, done: F)
    where
        F: FnOnce(&mut Sim, Result<Bytes, DbError>, StoreTiming) + 'static,
    {
        let span = sim.span_begin("db.load");
        sim.span_attr(span, "file", name);
        let (stored_len, result) = {
            let db = self.db.borrow();
            match db.load(name) {
                Ok(data) => (
                    db.record(name).map(|r| r.stored_len as f64).unwrap_or(0.0),
                    Ok(data),
                ),
                Err(e) => (0.0, Err(e)),
            }
        };
        match result {
            Err(e) => {
                sim.span_fail(span, &e.to_string());
                done(sim, Err(e), StoreTiming::default());
            }
            Ok(data) => {
                let bytes = data.len() as f64;
                sim.span_attr(span, "bytes", bytes);
                let cpu = decompress_cpu_secs(bytes);
                let timing = StoreTiming {
                    disk_write_bytes: bytes,
                    disk_read_bytes: stored_len + bytes,
                    cpu_seconds: cpu,
                };
                let host = Rc::clone(&self.host);
                let host2 = Rc::clone(&self.host);
                let host3 = Rc::clone(&self.host);
                let host4 = Rc::clone(&self.host);
                // DB read of the compressed blob
                host.read_disk(sim, stored_len, move |sim| {
                    // decompress
                    host2.compute(sim, cpu, move |sim| {
                        // temp write of the decompressed file
                        host3.write_disk(sim, bytes, move |sim| {
                            // read back when handing it onward
                            host4.read_disk(sim, bytes, move |sim| {
                                sim.span_end(span);
                                done(sim, Ok(data), timing);
                            });
                        });
                    });
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{HostSpec, MB};
    use std::cell::Cell;

    fn setup(strategy: WriteStrategy) -> (Sim, Rc<TimedDb>) {
        let sim = Sim::new(0);
        let host = Host::new(&HostSpec::commodity("portal"));
        let db = Rc::new(RefCell::new(BlobDb::new()));
        (sim, TimedDb::new(db, host, strategy))
    }

    fn payload(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 17) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn double_write_does_two_disk_writes() {
        let (mut sim, db) = setup(WriteStrategy::DoubleWrite);
        let timing = Rc::new(Cell::new(StoreTiming::default()));
        let t2 = timing.clone();
        db.store(
            &mut sim,
            "exe",
            "",
            vec![],
            payload(5 * 1024 * 1024),
            move |_, res, t| {
                res.unwrap();
                t2.set(t);
            },
        );
        sim.run();
        let t = timing.get();
        // raw temp write + compressed DB write
        assert!(t.disk_write_bytes > 5.0 * MB, "{t:?}");
        assert!(t.disk_read_bytes >= 5.0 * MB, "{t:?}");
        assert!(t.cpu_seconds > 0.0);
        // the recorder saw both write passes
        let written = sim.recorder_ref().total("portal.disk.write.bytes");
        assert!(written > 5.0 * MB, "recorded {written}");
    }

    #[test]
    fn direct_write_skips_temp_pass() {
        let (mut sim, db) = setup(WriteStrategy::Direct);
        db.store(&mut sim, "exe", "", vec![], payload(5 * 1024 * 1024), |_, res, t| {
            res.unwrap();
            assert_eq!(t.disk_read_bytes, 0.0);
            assert!(t.disk_write_bytes < 5.0 * 1024.0 * 1024.0); // compressed only
        });
        sim.run();
        let written = sim.recorder_ref().total("portal.disk.write.bytes");
        assert!(written < 5.0 * MB, "recorded {written}");
    }

    #[test]
    fn double_write_is_slower_than_direct() {
        let run = |strategy| {
            let (mut sim, db) = setup(strategy);
            let done_at = Rc::new(Cell::new(0.0));
            let d = done_at.clone();
            db.store(&mut sim, "exe", "", vec![], payload(20 * 1024 * 1024), move |sim, r, _| {
                r.unwrap();
                d.set(sim.now().as_secs_f64());
            });
            sim.run();
            done_at.get()
        };
        let dw = run(WriteStrategy::DoubleWrite);
        let direct = run(WriteStrategy::Direct);
        assert!(dw > direct, "double-write {dw} vs direct {direct}");
    }

    #[test]
    fn load_for_use_roundtrips_and_times() {
        let (mut sim, db) = setup(WriteStrategy::Direct);
        let data = payload(1024 * 1024);
        let expect = data.clone();
        db.store(&mut sim, "exe", "", vec![], data, |_, r, _| {
            r.unwrap();
        });
        sim.run();
        let db2 = Rc::clone(&db);
        let hit = Rc::new(Cell::new(false));
        let h2 = hit.clone();
        db2.load_for_use(&mut sim, "exe", move |_, r, t| {
            assert_eq!(r.unwrap(), expect);
            // two reads (DB + temp) and one write (temp): §VIII-D3
            assert!(t.disk_read_bytes > t.disk_write_bytes);
            assert!(t.cpu_seconds > 0.0);
            h2.set(true);
        });
        sim.run();
        assert!(hit.get());
    }

    #[test]
    fn load_missing_fails_fast() {
        let (mut sim, db) = setup(WriteStrategy::Direct);
        let hit = Rc::new(Cell::new(false));
        let h2 = hit.clone();
        db.load_for_use(&mut sim, "ghost", move |_, r, _| {
            assert!(matches!(r, Err(DbError::NotFound(_))));
            h2.set(true);
        });
        sim.run();
        assert!(hit.get());
    }

    #[test]
    fn injected_write_failure_surfaces_after_paying_the_io() {
        let (mut sim, db) = setup(WriteStrategy::DoubleWrite);
        // p=1: every store fails at the DB-write step, deterministically
        db.inject_faults(Some(simkit::FaultPlan::new(5).write_fail(1.0).injector()));
        let hit = Rc::new(Cell::new(false));
        let h2 = hit.clone();
        db.store(&mut sim, "exe", "", vec![], payload(1024 * 1024), move |_, r, t| {
            assert!(matches!(r, Err(DbError::WriteFailed(_))));
            // the temp pass was already spent before the failure
            assert!(t.disk_write_bytes >= 1024.0 * 1024.0, "{t:?}");
            h2.set(true);
        });
        sim.run();
        assert!(hit.get());
        // heal and retry: the name was never inserted, so it succeeds
        db.inject_faults(None);
        let ok = Rc::new(Cell::new(false));
        let o2 = ok.clone();
        db.store(&mut sim, "exe", "", vec![], payload(1024 * 1024), move |_, r, _| {
            r.unwrap();
            o2.set(true);
        });
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn duplicate_store_surfaces_error_after_timing() {
        let (mut sim, db) = setup(WriteStrategy::DoubleWrite);
        db.store(&mut sim, "exe", "", vec![], payload(100), |_, r, _| {
            r.unwrap();
        });
        sim.run();
        let hit = Rc::new(Cell::new(false));
        let h2 = hit.clone();
        db.store(&mut sim, "exe", "", vec![], payload(100), move |_, r, _| {
            assert!(matches!(r, Err(DbError::Duplicate(_))));
            h2.set(true);
        });
        sim.run();
        assert!(hit.get());
    }
}
