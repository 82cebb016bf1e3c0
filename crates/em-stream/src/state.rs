//! Derived, incrementally-maintained streaming state: the live entity
//! tables, the incremental blocking index, and the embedding-cache
//! invalidation protocol.
//!
//! [`StreamState`] is a pure fold over [`RecordEvent`]s — replaying the
//! same ledger always reconstructs the same state, which is what
//! [`digest`](StreamState::digest) certifies (the replay-from-ledger
//! cold-start test asserts digest equality between the live process and
//! a fresh replay).
//!
//! The cache protocol: record vectors are memoized under the *id-keyed*
//! [`record_key`] (`rec:<side>:<id>`), because the streaming scorer
//! wants "the vector of record 12", not "the vector of whatever text
//! record 12 had when first scored". Id keys are stable across updates,
//! so an `Update`/`Delete` **must** drop the key from the cache
//! ([`embed::cache::EmbeddingCache::invalidate`]) before the next encode — that
//! single call is what makes serving a stale vector impossible.

use crate::ledger::RecordEvent;
use em_data::{CandidateIdPair, Entity, IncrementalBlocker, Schema, Side};
use embed::cache::EmbeddingCache;
use std::collections::BTreeMap;

/// The cache key for a record's vector: stable across value updates,
/// unique per `(side, id)`.
pub fn record_key(side: Side, id: u64) -> String {
    format!("rec:{}:{id}", side.name())
}

/// Why an event was rejected by [`StreamState::apply`]. The state is
/// unchanged in every case; a rejected event must not be appended to the
/// ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// `Insert` for an id that is already live on that side.
    DuplicateId(Side, u64),
    /// `Update`/`Delete` for an id that is not live on that side.
    UnknownId(Side, u64),
    /// The entity's width does not match the schema.
    WidthMismatch {
        /// Values carried by the event.
        got: usize,
        /// Schema width.
        want: usize,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::DuplicateId(side, id) => {
                write!(f, "insert of already-live record {}:{id}", side.name())
            }
            ApplyError::UnknownId(side, id) => {
                write!(f, "mutation of unknown record {}:{id}", side.name())
            }
            ApplyError::WidthMismatch { got, want } => {
                write!(f, "entity has {got} values, schema has {want}")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Live streaming state derived from the ledger.
pub struct StreamState {
    schema: Schema,
    blocker: IncrementalBlocker,
    left: BTreeMap<u64, Entity>,
    right: BTreeMap<u64, Entity>,
    applied: u64,
}

impl StreamState {
    /// Empty state over `schema`, blocking with `config`.
    pub fn new(schema: Schema, config: em_data::BlockerConfig) -> Self {
        let blocker = IncrementalBlocker::new(&schema, config);
        Self {
            schema,
            blocker,
            left: BTreeMap::new(),
            right: BTreeMap::new(),
            applied: 0,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The incremental blocking index.
    pub fn blocker(&self) -> &IncrementalBlocker {
        &self.blocker
    }

    /// Events applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Live record count on `side`.
    pub fn len(&self, side: Side) -> usize {
        self.table(side).len()
    }

    /// True when both tables are empty.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// The live entity for `(side, id)`, if any.
    pub fn entity(&self, side: Side, id: u64) -> Option<&Entity> {
        self.table(side).get(&id)
    }

    fn table(&self, side: Side) -> &BTreeMap<u64, Entity> {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    fn table_mut(&mut self, side: Side) -> &mut BTreeMap<u64, Entity> {
        match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        }
    }

    /// Current candidate pairs from the incremental index.
    pub fn candidates(&self) -> Vec<CandidateIdPair> {
        self.blocker.candidates()
    }

    /// Apply one event: validate, update the live table and the blocking
    /// index, and run the cache-invalidation protocol against `cache`
    /// (pass the streaming scorer's cache; `None` when no vectors are
    /// being memoized, e.g. during pure replay before a cache exists).
    pub fn apply(
        &mut self,
        ev: &RecordEvent,
        cache: Option<&EmbeddingCache<'_>>,
    ) -> Result<(), ApplyError> {
        let side = ev.side();
        let id = ev.id();
        match ev {
            RecordEvent::Insert { entity, .. } => {
                self.check_width(entity)?;
                if self.table(side).contains_key(&id) {
                    return Err(ApplyError::DuplicateId(side, id));
                }
                self.table_mut(side).insert(id, entity.clone());
                self.blocker.upsert(side, id, entity);
                obs::counter("stream.events.insert").inc();
            }
            RecordEvent::Update { entity, .. } => {
                self.check_width(entity)?;
                if !self.table(side).contains_key(&id) {
                    return Err(ApplyError::UnknownId(side, id));
                }
                self.table_mut(side).insert(id, entity.clone());
                self.blocker.upsert(side, id, entity);
                // the id-keyed vector is now stale: drop it before anyone
                // can read it
                if let Some(cache) = cache {
                    if cache.invalidate(&record_key(side, id)) {
                        obs::counter("stream.cache.invalidations").inc();
                    }
                }
                obs::counter("stream.events.update").inc();
            }
            RecordEvent::Delete { .. } => {
                if self.table_mut(side).remove(&id).is_none() {
                    return Err(ApplyError::UnknownId(side, id));
                }
                self.blocker.remove(side, id);
                if let Some(cache) = cache {
                    if cache.invalidate(&record_key(side, id)) {
                        obs::counter("stream.cache.invalidations").inc();
                    }
                }
                obs::counter("stream.events.delete").inc();
            }
        }
        self.applied += 1;
        Ok(())
    }

    fn check_width(&self, entity: &Entity) -> Result<(), ApplyError> {
        if entity.width() != self.schema.len() {
            return Err(ApplyError::WidthMismatch {
                got: entity.width(),
                want: self.schema.len(),
            });
        }
        Ok(())
    }

    /// The vector of record `(side, id)` through `cache`, memoized under
    /// [`record_key`]. The text embedded is the record's **current**
    /// flattened value — after an `Update` the invalidation in
    /// [`apply`](Self::apply) guarantees this recomputes. `None` when the
    /// record is not live.
    pub fn encode_record(
        &self,
        side: Side,
        id: u64,
        cache: &EmbeddingCache<'_>,
    ) -> Option<Vec<f32>> {
        let entity = self.entity(side, id)?;
        Some(cache.embed_keyed(&record_key(side, id), &entity.flatten()))
    }

    /// A deterministic digest of the full derived state: schema, live
    /// tables, and the complete blocking index (via its canonical dump).
    /// Two states are bit-identical iff their digests agree.
    pub fn digest(&self) -> String {
        let mut parts: Vec<String> = vec![crate::ledger::schema_fingerprint(&self.schema)];
        for (side, table) in [(Side::Left, &self.left), (Side::Right, &self.right)] {
            for (id, e) in table {
                parts.push(format!("{}:{id}:{}", side.name(), e.flatten()));
            }
        }
        parts.push(self.blocker.canonical_dump());
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        obs::wal::fnv1a_hex(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{AttrType, Attribute, BlockerConfig};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("name", AttrType::Text),
            Attribute::new("city", AttrType::Text),
        ])
    }

    fn state() -> StreamState {
        StreamState::new(
            schema(),
            BlockerConfig {
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        )
    }

    fn ent(name: &str, city: &str) -> Entity {
        Entity::new(vec![Some(name.to_owned()), Some(city.to_owned())])
    }

    fn ins(side: Side, id: u64, name: &str, city: &str) -> RecordEvent {
        RecordEvent::Insert {
            side,
            id,
            entity: ent(name, city),
        }
    }

    #[test]
    fn apply_validates_ids_and_width() {
        let mut s = state();
        s.apply(&ins(Side::Left, 1, "golden dragon", "boston"), None)
            .unwrap();
        assert_eq!(
            s.apply(&ins(Side::Left, 1, "again", "boston"), None),
            Err(ApplyError::DuplicateId(Side::Left, 1))
        );
        assert_eq!(
            s.apply(
                &RecordEvent::Delete {
                    side: Side::Right,
                    id: 1
                },
                None
            ),
            Err(ApplyError::UnknownId(Side::Right, 1))
        );
        assert_eq!(
            s.apply(
                &RecordEvent::Update {
                    side: Side::Left,
                    id: 1,
                    entity: Entity::new(vec![Some("x".into())])
                },
                None
            ),
            Err(ApplyError::WidthMismatch { got: 1, want: 2 })
        );
        // failed applies must not count
        assert_eq!(s.applied(), 1);
    }

    #[test]
    fn digest_is_replay_invariant_and_order_sensitive() {
        let evs = vec![
            ins(Side::Left, 1, "golden dragon", "boston"),
            ins(Side::Right, 2, "golden dragon cafe", "boston"),
            RecordEvent::Update {
                side: Side::Right,
                id: 2,
                entity: ent("red lantern", "chicago"),
            },
        ];
        let mut a = state();
        let mut b = state();
        for ev in &evs {
            a.apply(ev, None).unwrap();
            b.apply(ev, None).unwrap();
        }
        assert_eq!(a.digest(), b.digest());
        // a third state with the update skipped differs
        let mut c = state();
        c.apply(&evs[0], None).unwrap();
        c.apply(&evs[1], None).unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn cold_replay_leaves_the_churn_toggle_set_empty() {
        let evs = vec![
            ins(Side::Left, 1, "golden dragon", "boston"),
            ins(Side::Right, 2, "golden dragon cafe", "boston"),
            ins(Side::Right, 3, "red lantern", "chicago"),
            RecordEvent::Update {
                side: Side::Left,
                id: 1,
                entity: ent("red lantern", "chicago"),
            },
            RecordEvent::Delete {
                side: Side::Right,
                id: 2,
            },
        ];
        let mut s = state();
        for ev in &evs {
            s.apply(ev, None).unwrap();
        }
        assert!(s.blocker().candidate_count() > 0);
        // nothing marked a churn window yet: the fold tracked no flips,
        // and the first mark opens tracking
        assert_eq!(s.blocker().mark_window(), None);
        assert_eq!(s.blocker().mark_window(), Some(0));
        s.apply(
            &RecordEvent::Delete {
                side: Side::Right,
                id: 3,
            },
            None,
        )
        .unwrap();
        assert_eq!(s.blocker().candidate_count(), 0);
        assert_eq!(s.blocker().mark_window(), Some(1));
        assert_eq!(s.blocker().mark_window(), Some(0));
    }
}
