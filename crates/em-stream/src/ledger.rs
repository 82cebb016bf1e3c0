//! The record ledger: an event-sourced, crash-safe log of every entity
//! mutation the streaming layer has ever accepted.
//!
//! The ledger **is** the system of record — the live tables, the
//! incremental blocking index and the embedding-cache contents are all
//! derived state that a cold start reconstructs by replay
//! ([`RecordLedger::open`]). The file discipline is the workspace WAL
//! idiom (PR 4's search journal, PR 9's swap journal): append-only
//! JSONL, one fingerprinted header line binding the file to a schema,
//! `fsync` at event-batch boundaries, and torn-tail truncation on
//! recovery via the shared [`obs::wal`] scanner.
//!
//! ```json
//! {"v":1,"kind":"record-ledger","schema":"9e3779b97f4a7c15"}
//! {"ev":"insert","side":"right","id":12,"values":["golden dragon",null]}
//! {"ev":"update","side":"right","id":12,"values":["golden dragon cafe",null]}
//! {"ev":"delete","side":"left","id":3}
//! ```
//!
//! Unlike the search journal — whose loss costs only a checkpoint — a
//! ledger write failure is a data-loss event, so every append/sync
//! returns the error to the caller instead of degrading silently.

use em_data::{Entity, Schema, Side};
use obs::json::{self, Json};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Ledger format version written into (and required of) the header.
const LEDGER_VERSION: u64 = 1;

/// One entity mutation, the unit the ledger appends and replays.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordEvent {
    /// A new record becomes live on `side` under the stable id.
    Insert {
        /// Which table.
        side: Side,
        /// Stable record id (unique per side).
        id: u64,
        /// The record's attribute values.
        entity: Entity,
    },
    /// The record's values are replaced wholesale.
    Update {
        /// Which table.
        side: Side,
        /// Stable record id.
        id: u64,
        /// The new attribute values.
        entity: Entity,
    },
    /// The record stops being live.
    Delete {
        /// Which table.
        side: Side,
        /// Stable record id.
        id: u64,
    },
}

impl RecordEvent {
    /// The event's wire name (`"insert"` / `"update"` / `"delete"`).
    pub fn kind(&self) -> &'static str {
        match self {
            RecordEvent::Insert { .. } => "insert",
            RecordEvent::Update { .. } => "update",
            RecordEvent::Delete { .. } => "delete",
        }
    }

    /// Which table the event touches.
    pub fn side(&self) -> Side {
        match self {
            RecordEvent::Insert { side, .. }
            | RecordEvent::Update { side, .. }
            | RecordEvent::Delete { side, .. } => *side,
        }
    }

    /// The stable record id the event touches.
    pub fn id(&self) -> u64 {
        match self {
            RecordEvent::Insert { id, .. }
            | RecordEvent::Update { id, .. }
            | RecordEvent::Delete { id, .. } => *id,
        }
    }

    /// Serialize to one ledger line (no newline).
    pub fn to_line(&self) -> String {
        let mut o = json::Obj::new();
        o.str("ev", self.kind())
            .str("side", self.side().name())
            .u64("id", self.id());
        if let RecordEvent::Insert { entity, .. } | RecordEvent::Update { entity, .. } = self {
            let vals = entity.values().map(|v| match v {
                Some(s) => {
                    let mut out = String::new();
                    json::write_str(&mut out, s);
                    out
                }
                None => "null".to_owned(),
            });
            o.raw("values", &json::array(vals));
        }
        o.finish()
    }

    /// Decode one parsed ledger line; `None` for anything that is not a
    /// record event (including a schema-width mismatch).
    pub fn from_json(v: &Json, width: usize) -> Option<RecordEvent> {
        let side = Side::from_name(v.get("side")?.as_str()?)?;
        let id = v.get("id")?.as_u64()?;
        let entity = || -> Option<Entity> {
            let Json::Arr(items) = v.get("values")? else {
                return None;
            };
            if items.len() != width {
                return None;
            }
            let mut vals = Vec::with_capacity(items.len());
            for item in items {
                vals.push(match item {
                    Json::Null => None,
                    Json::Str(s) => Some(s.clone()),
                    _ => return None,
                });
            }
            Some(Entity::new(vals))
        };
        match v.get("ev")?.as_str()? {
            "insert" => Some(RecordEvent::Insert {
                side,
                id,
                entity: entity()?,
            }),
            "update" => Some(RecordEvent::Update {
                side,
                id,
                entity: entity()?,
            }),
            "delete" => Some(RecordEvent::Delete { side, id }),
            _ => None,
        }
    }
}

/// Fingerprint binding a ledger to one schema: attribute names and types
/// through the shared WAL fingerprint primitive. Replaying a ledger into
/// a differently-shaped table would silently corrupt every derived
/// structure, so [`RecordLedger::open`] refuses on mismatch.
pub fn schema_fingerprint(schema: &Schema) -> String {
    let parts: Vec<String> = schema
        .attributes()
        .iter()
        .map(|a| format!("{}:{:?}", a.name, a.ty))
        .collect();
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    obs::wal::fnv1a_hex(&refs)
}

/// Why a ledger could not be opened or written.
#[derive(Debug)]
pub enum LedgerError {
    /// An I/O operation failed; the ledger must not be trusted further.
    Io(String),
    /// The file's header binds it to a different schema (or is not a
    /// record ledger at all).
    SchemaMismatch {
        /// Fingerprint found in the header.
        found: String,
        /// Fingerprint of the schema this open expected.
        expected: String,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::Io(e) => write!(f, "ledger I/O error: {e}"),
            LedgerError::SchemaMismatch { found, expected } => write!(
                f,
                "ledger was written for schema {found}, this run expects {expected}; \
                 refusing to mix tables"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<std::io::Error> for LedgerError {
    fn from(e: std::io::Error) -> Self {
        LedgerError::Io(e.to_string())
    }
}

/// What [`RecordLedger::open`] found on disk.
pub struct LedgerReplay {
    /// Every good event, in append order.
    pub events: Vec<RecordEvent>,
    /// Bytes of torn tail discarded by recovery (0 on a clean file).
    pub truncated_bytes: u64,
}

/// The append side of the record ledger (plus replay-on-open).
pub struct RecordLedger {
    file: File,
    path: PathBuf,
    pending: usize,
}

impl RecordLedger {
    fn header_line(schema: &Schema) -> String {
        let mut o = json::Obj::new();
        o.u64("v", LEDGER_VERSION)
            .str("kind", "record-ledger")
            .str("schema", &schema_fingerprint(schema));
        o.finish()
    }

    /// Create a fresh ledger at `path` (truncating any existing file),
    /// writing and syncing the schema-fingerprinted header.
    pub fn create(path: &Path, schema: &Schema) -> Result<RecordLedger, LedgerError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = File::create(path)?;
        file.write_all(format!("{}\n", Self::header_line(schema)).as_bytes())?;
        file.sync_data()?;
        Ok(RecordLedger {
            file,
            path: path.to_path_buf(),
            pending: 0,
        })
    }

    /// Open the ledger at `path` for append, replaying every good event
    /// (the cold-start path). A missing file is created; a torn tail is
    /// truncated (reported in [`LedgerReplay::truncated_bytes`]); a
    /// header bound to a different schema is refused. A file whose
    /// header never became complete (a crash inside [`create`](Self::create))
    /// holds no event and is started over with a fresh header.
    pub fn open(path: &Path, schema: &Schema) -> Result<(RecordLedger, LedgerReplay), LedgerError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let replay = Self::scan(&bytes, schema)?;
        let truncated = replay.truncated_bytes;
        let good_end = bytes.len() as u64 - truncated;
        if truncated > 0 {
            eprintln!(
                "warning: record ledger {} had a torn tail; truncating {truncated} byte(s) \
                 back to the last complete event",
                path.display()
            );
            obs::wal::truncate_to(path, good_end)?;
        }
        if good_end == 0 {
            return Ok((Self::create(path, schema)?, replay));
        }
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        obs::counter("stream.ledger.replays").inc();
        obs::emit(
            "stream.ledger.replay",
            &[
                ("path", obs::Value::Str(path.display().to_string())),
                ("events", obs::Value::U64(replay.events.len() as u64)),
                ("truncated_bytes", obs::Value::U64(truncated)),
            ],
        );
        Ok((
            RecordLedger {
                file,
                path: path.to_path_buf(),
                pending: 0,
            },
            replay,
        ))
    }

    /// Read-only replay of the ledger at `path`: header verification plus
    /// every good event, without touching the file.
    pub fn replay(path: &Path, schema: &Schema) -> Result<LedgerReplay, LedgerError> {
        Self::scan(&std::fs::read(path)?, schema)
    }

    /// Header verification plus every good event of the ledger `bytes`.
    /// The good prefix ends at the first torn or foreign line; what
    /// follows is reported in [`LedgerReplay::truncated_bytes`].
    fn scan(bytes: &[u8], schema: &Schema) -> Result<LedgerReplay, LedgerError> {
        let lines = obs::wal::scan_jsonl(bytes);
        let expected = schema_fingerprint(schema);
        let width = schema.len();
        let mut events = Vec::new();
        let mut good_end = 0usize;
        for (i, line) in lines.iter().enumerate() {
            if i == 0 {
                let h = &line.value;
                let found = h.get("schema").and_then(Json::as_str).unwrap_or("?");
                if h.get("v").and_then(Json::as_u64) != Some(LEDGER_VERSION)
                    || h.get("kind").and_then(Json::as_str) != Some("record-ledger")
                    || found != expected
                {
                    return Err(LedgerError::SchemaMismatch {
                        found: found.to_owned(),
                        expected,
                    });
                }
            } else {
                match RecordEvent::from_json(&line.value, width) {
                    Some(ev) => events.push(ev),
                    None => break, // foreign line: stop, like the search WAL
                }
            }
            good_end = line.end;
        }
        Ok(LedgerReplay {
            events,
            truncated_bytes: (bytes.len() - good_end) as u64,
        })
    }

    /// The ledger's on-disk location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event (buffered by the OS; not yet durable). Call
    /// [`sync`](Self::sync) at the batch boundary to make it so.
    pub fn append(&mut self, ev: &RecordEvent) -> Result<(), LedgerError> {
        self.file
            .write_all(format!("{}\n", ev.to_line()).as_bytes())?;
        self.pending += 1;
        obs::counter("stream.ledger.appends").inc();
        Ok(())
    }

    /// Fsync every buffered append — the event-batch durability barrier.
    /// A no-op when nothing is pending.
    pub fn sync(&mut self) -> Result<(), LedgerError> {
        if self.pending == 0 {
            return Ok(());
        }
        let _t = obs::ledger::phase("ledger_fsync");
        self.file.sync_data()?;
        self.pending = 0;
        obs::counter("stream.ledger.fsyncs").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{AttrType, Attribute};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("name", AttrType::Text),
            Attribute::new("city", AttrType::Text),
        ])
    }

    fn tmp(name: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "em_stream_ledger_{}_{}_{name}.jsonl",
            std::process::id(),
            n
        ))
    }

    fn ev_insert(side: Side, id: u64, name: &str) -> RecordEvent {
        RecordEvent::Insert {
            side,
            id,
            entity: Entity::new(vec![Some(name.to_owned()), None]),
        }
    }

    #[test]
    fn events_roundtrip_through_the_wire_codec() {
        let events = [
            ev_insert(Side::Left, 1, "golden dragon"),
            RecordEvent::Update {
                side: Side::Right,
                id: 9,
                entity: Entity::new(vec![Some("a \"quoted\"\nvalue".into()), None]),
            },
            RecordEvent::Delete {
                side: Side::Left,
                id: 1,
            },
        ];
        for ev in &events {
            let v = json::parse(&ev.to_line()).expect("valid json");
            assert_eq!(RecordEvent::from_json(&v, 2).as_ref(), Some(ev), "{ev:?}");
        }
    }

    #[test]
    fn append_sync_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut ledger = RecordLedger::create(&path, &schema()).unwrap();
        let evs = vec![
            ev_insert(Side::Left, 1, "golden dragon"),
            ev_insert(Side::Right, 2, "golden dragon cafe"),
            RecordEvent::Delete {
                side: Side::Left,
                id: 1,
            },
        ];
        for ev in &evs {
            ledger.append(ev).unwrap();
        }
        ledger.sync().unwrap();
        drop(ledger);
        let replay = RecordLedger::replay(&path, &schema()).unwrap();
        assert_eq!(replay.events, evs);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_truncates_torn_tail_and_appending_resumes() {
        let path = tmp("torn");
        let mut ledger = RecordLedger::create(&path, &schema()).unwrap();
        ledger.append(&ev_insert(Side::Left, 1, "a")).unwrap();
        ledger.sync().unwrap();
        drop(ledger);
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"ev\":\"insert\",\"side\":\"le").unwrap();
        }
        let (mut ledger, replay) = RecordLedger::open(&path, &schema()).unwrap();
        assert_eq!(replay.events.len(), 1);
        assert!(replay.truncated_bytes > 0);
        ledger.append(&ev_insert(Side::Right, 2, "b")).unwrap();
        ledger.sync().unwrap();
        drop(ledger);
        let replay = RecordLedger::replay(&path, &schema()).unwrap();
        assert_eq!(replay.events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_starts_over_when_the_header_was_torn() {
        let path = tmp("tornheader");
        std::fs::write(&path, b"{\"v\":1,\"kind\":\"rec").unwrap();
        let (mut ledger, replay) = RecordLedger::open(&path, &schema()).unwrap();
        assert!(replay.events.is_empty());
        assert!(replay.truncated_bytes > 0);
        ledger.append(&ev_insert(Side::Left, 1, "a")).unwrap();
        ledger.sync().unwrap();
        drop(ledger);
        // the appended event sits behind a fresh header, so it replays
        let (_, replay) = RecordLedger::open(&path, &schema()).unwrap();
        assert_eq!(replay.events, vec![ev_insert(Side::Left, 1, "a")]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_refuses_a_ledger_for_another_schema() {
        let path = tmp("schema");
        drop(RecordLedger::create(&path, &schema()).unwrap());
        let other = Schema::new(vec![Attribute::new("title", AttrType::Text)]);
        let err = RecordLedger::open(&path, &other)
            .err()
            .expect("mismatched schema must be refused");
        assert!(matches!(err, LedgerError::SchemaMismatch { .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_width_values_stop_the_replay() {
        let path = tmp("width");
        let mut ledger = RecordLedger::create(&path, &schema()).unwrap();
        ledger.append(&ev_insert(Side::Left, 1, "a")).unwrap();
        ledger.sync().unwrap();
        drop(ledger);
        // a structurally valid event whose values don't fit the schema
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(
                b"{\"ev\":\"insert\",\"side\":\"left\",\"id\":2,\"values\":[\"only-one\"]}\n",
            )
            .unwrap();
        }
        let replay = RecordLedger::replay(&path, &schema()).unwrap();
        assert_eq!(replay.events.len(), 1);
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_file(&path).ok();
    }
}
