//! The table layer: executable records and compressed blob pages.
//!
//! This is the `DbManager`/`dataIO` equivalent: one table of executable
//! metadata (name, description, declared parameters — the portal dialog's
//! fields, Figure 3) and one blob table holding the compressed payloads
//! with checksums. Pure data structure; timing lives in
//! [`crate::strategy`].

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

use crate::codec::{compress, decompress, CodecError};

/// A declared service parameter (the portal's "Parameter-Name/Type" rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name.
    pub name: String,
    /// Parameter type name (`string`, `int`, `double`, `boolean`,
    /// `base64`).
    pub type_name: String,
}

impl ParamSpec {
    /// Convenience constructor.
    pub fn new(name: &str, type_name: &str) -> ParamSpec {
        ParamSpec {
            name: name.to_owned(),
            type_name: type_name.to_owned(),
        }
    }
}

/// Metadata row for one stored executable.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutableRecord {
    /// Primary key.
    pub id: u64,
    /// Unique executable name.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Declared parameters.
    pub params: Vec<ParamSpec>,
    /// Uncompressed payload size.
    pub original_len: usize,
    /// Stored (compressed) payload size.
    pub stored_len: usize,
    /// FNV-1a checksum of the uncompressed payload.
    pub checksum: u64,
}

/// Database errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// Name already present.
    Duplicate(String),
    /// No row under that name/id.
    NotFound(String),
    /// Blob failed checksum or decode (storage corruption).
    Corrupt(String),
    /// A write was lost before it was durable (injected I/O fault).
    WriteFailed(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Duplicate(n) => write!(f, "duplicate executable name: {n}"),
            DbError::NotFound(n) => write!(f, "no such executable: {n}"),
            DbError::Corrupt(n) => write!(f, "corrupt blob for: {n}"),
            DbError::WriteFailed(n) => write!(f, "write failed for: {n}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<CodecError> for DbError {
    fn from(e: CodecError) -> Self {
        DbError::Corrupt(e.to_string())
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One blob row: the compressed bytes as stored, plus the payload once a
/// load has decoded and verified them.
struct BlobRow {
    stored: Bytes,
    decoded: OnceCell<Bytes>,
}

impl BlobRow {
    fn new(stored: Vec<u8>) -> BlobRow {
        BlobRow {
            stored: Bytes::from(stored),
            decoded: OnceCell::new(),
        }
    }
}

/// The executable database.
#[derive(Default)]
pub struct BlobDb {
    records: BTreeMap<u64, ExecutableRecord>,
    by_name: BTreeMap<String, u64>,
    blobs: BTreeMap<u64, BlobRow>,
    next_id: u64,
}

impl BlobDb {
    /// Empty database.
    pub fn new() -> BlobDb {
        BlobDb::default()
    }

    /// Insert an executable; the payload is compressed on the way in.
    /// Returns the new row id.
    pub fn insert(
        &mut self,
        name: &str,
        description: &str,
        params: Vec<ParamSpec>,
        data: &[u8],
    ) -> Result<u64, DbError> {
        if self.by_name.contains_key(name) {
            return Err(DbError::Duplicate(name.to_owned()));
        }
        self.next_id += 1;
        let id = self.next_id;
        let compressed = compress(data);
        let record = ExecutableRecord {
            id,
            name: name.to_owned(),
            description: description.to_owned(),
            params,
            original_len: data.len(),
            stored_len: compressed.len(),
            checksum: fnv1a(data),
        };
        self.by_name.insert(name.to_owned(), id);
        self.blobs.insert(id, BlobRow::new(compressed));
        self.records.insert(id, record);
        Ok(id)
    }

    /// Metadata by name.
    pub fn record(&self, name: &str) -> Result<&ExecutableRecord, DbError> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| DbError::NotFound(name.to_owned()))?;
        Ok(&self.records[id])
    }

    /// Metadata by id.
    pub fn record_by_id(&self, id: u64) -> Result<&ExecutableRecord, DbError> {
        self.records
            .get(&id)
            .ok_or_else(|| DbError::NotFound(format!("id {id}")))
    }

    /// Decompress and verify a payload by name.
    ///
    /// The row is decoded and checksummed at most once per stored state:
    /// the first success is kept and later calls return a clone of it (a
    /// refcount bump). Failures are never kept, so a corrupt row fails
    /// every load. [`BlobDb::corrupt_blob`] and [`BlobDb::delete`] drop the
    /// kept payload with the bytes it was decoded from.
    pub fn load(&self, name: &str) -> Result<Bytes, DbError> {
        let rec = self.record(name)?;
        let row = self
            .blobs
            .get(&rec.id)
            .ok_or_else(|| DbError::Corrupt(name.to_owned()))?;
        if let Some(data) = row.decoded.get() {
            return Ok(data.clone());
        }
        let data = decompress(&row.stored)?;
        if fnv1a(&data) != rec.checksum {
            return Err(DbError::Corrupt(name.to_owned()));
        }
        Ok(row.decoded.get_or_init(|| Bytes::from(data)).clone())
    }

    /// Delete by name; returns the freed record.
    pub fn delete(&mut self, name: &str) -> Result<ExecutableRecord, DbError> {
        let id = self
            .by_name
            .remove(name)
            .ok_or_else(|| DbError::NotFound(name.to_owned()))?;
        self.blobs.remove(&id);
        Ok(self.records.remove(&id).expect("record present"))
    }

    /// All records, ordered by id.
    pub fn list(&self) -> impl Iterator<Item = &ExecutableRecord> {
        self.records.values()
    }

    /// Number of stored executables.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total bytes of compressed blob storage.
    pub fn stored_bytes(&self) -> usize {
        self.blobs.values().map(|row| row.stored.len()).sum()
    }

    /// Test/failure-injection hook: corrupt a stored blob in place.
    pub fn corrupt_blob(&mut self, name: &str) -> Result<(), DbError> {
        let id = *self
            .by_name
            .get(name)
            .ok_or_else(|| DbError::NotFound(name.to_owned()))?;
        let row = self.blobs.get_mut(&id).expect("blob present");
        let mut v = row.stored.to_vec();
        if let Some(last) = v.last_mut() {
            *last ^= 0xff;
        }
        // also flip a mid-stream byte so decoding or checksum must fail
        let mid = v.len() / 2;
        if mid > 4 {
            v[mid] ^= 0x55;
        }
        *row = BlobRow::new(v);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn insert_load_roundtrip() {
        let mut db = BlobDb::new();
        let data = payload(10_000);
        let id = db
            .insert(
                "solver",
                "finite element solver",
                vec![ParamSpec::new("mesh", "string")],
                &data,
            )
            .unwrap();
        let rec = db.record("solver").unwrap();
        assert_eq!(rec.id, id);
        assert_eq!(rec.original_len, 10_000);
        assert!(rec.stored_len < rec.original_len);
        assert_eq!(db.load("solver").unwrap(), data);
        assert_eq!(db.record_by_id(id).unwrap().name, "solver");
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], b"x").unwrap();
        assert_eq!(
            db.insert("a", "", vec![], b"y"),
            Err(DbError::Duplicate("a".into()))
        );
    }

    #[test]
    fn not_found_errors() {
        let db = BlobDb::new();
        assert!(matches!(db.record("ghost"), Err(DbError::NotFound(_))));
        assert!(matches!(db.load("ghost"), Err(DbError::NotFound(_))));
        assert!(matches!(db.record_by_id(9), Err(DbError::NotFound(_))));
    }

    #[test]
    fn delete_frees_name_and_space() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(5000)).unwrap();
        let before = db.stored_bytes();
        assert!(before > 0);
        let rec = db.delete("a").unwrap();
        assert_eq!(rec.name, "a");
        assert_eq!(db.stored_bytes(), 0);
        assert!(db.is_empty());
        // reinsert under the same name works
        db.insert("a", "", vec![], b"z").unwrap();
        assert_eq!(db.len(), 1);
        assert!(matches!(db.delete("ghost"), Err(DbError::NotFound(_))));
    }

    #[test]
    fn corruption_detected_on_load() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(4096)).unwrap();
        db.corrupt_blob("a").unwrap();
        assert!(matches!(db.load("a"), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn warm_loads_share_one_decoded_payload() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(4096)).unwrap();
        let first = db.load("a").unwrap();
        let second = db.load("a").unwrap();
        assert_eq!(first, payload(4096));
        assert_eq!(first.as_ptr(), second.as_ptr());
    }

    #[test]
    fn corrupting_a_warm_row_fails_the_next_load() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(4096)).unwrap();
        db.load("a").unwrap();
        db.corrupt_blob("a").unwrap();
        assert!(matches!(db.load("a"), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn reinserting_a_deleted_warm_name_loads_the_new_payload() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(4096)).unwrap();
        db.load("a").unwrap();
        db.delete("a").unwrap();
        db.insert("a", "", vec![], b"replacement").unwrap();
        assert_eq!(db.load("a").unwrap(), b"replacement".to_vec());
    }

    #[test]
    fn load_errors_are_not_kept() {
        let mut db = BlobDb::new();
        db.insert("a", "", vec![], &payload(4096)).unwrap();
        db.corrupt_blob("a").unwrap();
        assert!(matches!(db.load("a"), Err(DbError::Corrupt(_))));
        assert!(matches!(db.load("a"), Err(DbError::Corrupt(_))));
        // the corruption hook is an involution: a second pass restores
        // the stored bytes, and nothing of the failed loads lingers
        db.corrupt_blob("a").unwrap();
        assert_eq!(db.load("a").unwrap(), payload(4096));
    }

    #[test]
    fn empty_payload_ok() {
        let mut db = BlobDb::new();
        db.insert("empty", "", vec![], b"").unwrap();
        assert_eq!(db.load("empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn list_is_ordered_by_id() {
        let mut db = BlobDb::new();
        db.insert("c", "", vec![], b"1").unwrap();
        db.insert("a", "", vec![], b"2").unwrap();
        db.insert("b", "", vec![], b"3").unwrap();
        let names: Vec<&str> = db.list().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }

    #[test]
    fn params_preserved() {
        let mut db = BlobDb::new();
        let params = vec![
            ParamSpec::new("alpha", "double"),
            ParamSpec::new("n", "int"),
        ];
        db.insert("p", "d", params.clone(), b"bin").unwrap();
        assert_eq!(db.record("p").unwrap().params, params);
        assert_eq!(db.record("p").unwrap().description, "d");
    }
}
