//! Property-based invariants of the blob database and its codec.

use blobstore::{compress, decompress, BlobDb, DbError, ParamSpec, TimedDb, WriteStrategy};
use bytes::Bytes;
use proptest::prelude::*;
use simkit::{Host, HostSpec, Sim};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const NAMES: [&str; 3] = ["a.exe", "b.exe", "c.exe"];

proptest! {
    /// Codec round-trips arbitrary bytes.
    #[test]
    fn codec_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    /// Codec round-trips highly repetitive data (the LZ-heavy regime) and
    /// actually shrinks it.
    #[test]
    fn codec_roundtrip_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..16),
        reps in 64usize..512,
    ) {
        let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data.clone());
        prop_assert!(c.len() < data.len(), "repetitive data must compress");
    }

    /// Any *prefix* truncation of a compressed stream fails to decode (no
    /// silent partial results).
    #[test]
    fn codec_rejects_truncation(
        data in proptest::collection::vec(any::<u8>(), 1..2_000),
        cut_frac in 0.0f64..1.0,
    ) {
        let c = compress(&data);
        let cut = ((c.len() as f64) * cut_frac) as usize;
        if cut < c.len() {
            prop_assert!(decompress(&c[..cut]).is_err());
        }
    }

    /// Database insert → load is the identity and metadata is accurate.
    #[test]
    fn db_insert_load_identity(
        name in proptest::string::string_regex("[a-zA-Z0-9_.-]{1,24}").expect("regex"),
        data in proptest::collection::vec(any::<u8>(), 0..10_000),
        params in proptest::collection::vec(
            (
                proptest::string::string_regex("[a-z]{1,8}").expect("regex"),
                proptest::string::string_regex("(string|int|double|boolean)").expect("regex"),
            ),
            0..4,
        ),
    ) {
        let mut db = BlobDb::new();
        let specs: Vec<ParamSpec> = params.iter().map(|(n, t)| ParamSpec::new(n, t)).collect();
        let id = db.insert(&name, "desc", specs.clone(), &data).unwrap();
        let rec = db.record(&name).unwrap();
        prop_assert_eq!(rec.id, id);
        prop_assert_eq!(rec.original_len, data.len());
        prop_assert_eq!(&rec.params, &specs);
        prop_assert_eq!(db.load(&name).unwrap(), data);
        // delete frees everything
        db.delete(&name).unwrap();
        prop_assert!(db.is_empty());
        prop_assert_eq!(db.stored_bytes(), 0);
    }

    /// Random insert / load / corrupt / delete programs over a few names
    /// agree with a reference model in which `load` is the inserted
    /// payload, `Corrupt` if the row was corrupted since insert, or
    /// `NotFound`. Corruption flips the same stored bytes each time, so
    /// the model tracks its parity: a second pass restores the row.
    #[test]
    fn db_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..NAMES.len(), proptest::collection::vec(any::<u8>(), 0..3_000)),
            1..60,
        ),
    ) {
        let mut db = BlobDb::new();
        // name -> (inserted payload, corrupted an odd number of times)
        let mut model: BTreeMap<&str, (Vec<u8>, bool)> = BTreeMap::new();
        for (op, which, data) in ops {
            let name = NAMES[which];
            match op {
                0 => {
                    let r = db.insert(name, "", vec![], &data);
                    if model.contains_key(name) {
                        prop_assert_eq!(r, Err(DbError::Duplicate(name.to_owned())));
                    } else {
                        prop_assert!(r.is_ok());
                        model.insert(name, (data, false));
                    }
                }
                1 => match (db.load(name), model.get(name)) {
                    (Ok(got), Some((want, false))) => prop_assert_eq!(got, want.clone()),
                    (Err(DbError::Corrupt(_)), Some((_, true))) => {}
                    (Err(DbError::NotFound(_)), None) => {}
                    (got, want) => panic!("load {name}: got {got:?}, model {want:?}"),
                },
                2 => {
                    let r = db.corrupt_blob(name);
                    match model.get_mut(name) {
                        Some((_, corrupt)) => {
                            prop_assert!(r.is_ok());
                            *corrupt = !*corrupt;
                        }
                        None => prop_assert!(matches!(r, Err(DbError::NotFound(_)))),
                    }
                }
                _ => {
                    let r = db.delete(name);
                    match model.remove(name) {
                        Some(_) => prop_assert_eq!(r.unwrap().name, name),
                        None => prop_assert!(matches!(r, Err(DbError::NotFound(_)))),
                    }
                }
            }
            prop_assert_eq!(db.len(), model.len());
        }
    }

    /// Timed store → timed load is the identity under both write
    /// strategies, and the double-write path always touches at least as
    /// much disk.
    #[test]
    fn timed_strategies_identity_and_ordering(
        data in proptest::collection::vec(any::<u8>(), 1..50_000),
    ) {
        let mut writes = Vec::new();
        for strategy in [WriteStrategy::DoubleWrite, WriteStrategy::Direct] {
            let mut sim = Sim::new(1);
            let host = Host::new(&HostSpec::commodity("h"));
            let db = TimedDb::new(Rc::new(RefCell::new(BlobDb::new())), host, strategy);
            let payload = Bytes::from(data.clone());
            let expect = payload.clone();
            let loaded: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
            let l2 = loaded.clone();
            let db2 = Rc::clone(&db);
            db.store(&mut sim, "x", "", vec![], payload, move |sim, r, _| {
                r.expect("store");
                db2.load_for_use(sim, "x", move |_, r, _| {
                    *l2.borrow_mut() = Some(r.expect("load"));
                });
            });
            sim.run();
            prop_assert_eq!(loaded.borrow().clone().unwrap(), expect);
            writes.push(sim.recorder_ref().total("h.disk.write.bytes"));
        }
        prop_assert!(writes[0] >= writes[1],
            "double-write {} must write at least as much as direct {}", writes[0], writes[1]);
    }
}
