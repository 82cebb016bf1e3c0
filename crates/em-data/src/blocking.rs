//! Candidate generation by blocking.
//!
//! The Magellan benchmark's record pairs are the *output* of a blocking
//! stage: comparing every record of table A against every record of table B
//! is quadratic, so real EM systems first select candidate pairs that share
//! cheap surface evidence. This module implements the standard **token
//! (overlap) blocker** — a pair becomes a candidate when the chosen
//! attributes share at least `min_overlap` tokens — plus recall/reduction
//! metrics, so the library covers the full raw-tables → candidate-set →
//! matcher workflow (see `examples/custom_csv.rs` and the blocking
//! integration tests).

use crate::record::Entity;
use crate::schema::Schema;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Mutex, PoisonError};
use text::tokenize::words;

/// Configuration of the token blocker.
#[derive(Debug, Clone)]
pub struct BlockerConfig {
    /// Attribute indices whose tokens form blocking keys (empty = all).
    pub key_attributes: Vec<usize>,
    /// Minimum number of shared tokens for a pair to become a candidate.
    pub min_overlap: usize,
    /// Tokens appearing in more than this fraction of one table's records
    /// are ignored as stop words (they would block everything together).
    pub max_token_frequency: f64,
}

impl Default for BlockerConfig {
    fn default() -> Self {
        Self {
            key_attributes: Vec::new(),
            min_overlap: 1,
            max_token_frequency: 0.1,
        }
    }
}

/// A candidate pair: indices into the left and right tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidatePair {
    /// Row in the left table.
    pub left: usize,
    /// Row in the right table.
    pub right: usize,
}

/// Result of a blocking run.
#[derive(Debug, Clone)]
pub struct BlockingResult {
    /// Candidate pairs, sorted by `(left, right)`.
    pub candidates: Vec<CandidatePair>,
    /// `|A| × |B|`, the size of the full cross product.
    pub cross_product: usize,
}

impl BlockingResult {
    /// Fraction of the cross product removed (higher = cheaper matching).
    pub fn reduction_ratio(&self) -> f64 {
        if self.cross_product == 0 {
            return 0.0;
        }
        1.0 - self.candidates.len() as f64 / self.cross_product as f64
    }

    /// Fraction of `true_pairs` surviving in the candidate set
    /// (pair-completeness / blocking recall).
    pub fn recall(&self, true_pairs: &[CandidatePair]) -> f64 {
        if true_pairs.is_empty() {
            return 1.0;
        }
        let set: std::collections::HashSet<&CandidatePair> = self.candidates.iter().collect();
        let hit = true_pairs.iter().filter(|p| set.contains(p)).count();
        hit as f64 / true_pairs.len() as f64
    }
}

fn blocking_tokens(entity: &Entity, keys: &[usize], width: usize) -> Vec<String> {
    let mut out = Vec::new();
    let indices: Vec<usize> = if keys.is_empty() {
        (0..width).collect()
    } else {
        keys.to_vec()
    };
    for &i in &indices {
        if let Some(v) = entity.value(i) {
            out.extend(words(v));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Run the overlap blocker over two entity tables sharing `schema`.
pub fn token_blocking(
    left: &[Entity],
    right: &[Entity],
    schema: &Schema,
    config: &BlockerConfig,
) -> BlockingResult {
    let width = schema.len();
    // inverted index over the right table, with stop-word removal
    let right_tokens: Vec<Vec<String>> = right
        .iter()
        .map(|e| blocking_tokens(e, &config.key_attributes, width))
        .collect();
    let mut doc_freq: HashMap<&str, usize> = HashMap::new();
    for toks in &right_tokens {
        for t in toks {
            *doc_freq.entry(t).or_insert(0) += 1;
        }
    }
    let cutoff = ((right.len() as f64) * config.max_token_frequency).ceil() as usize;
    let mut index: HashMap<&str, Vec<usize>> = HashMap::new();
    for (j, toks) in right_tokens.iter().enumerate() {
        for t in toks {
            if doc_freq[t.as_str()] <= cutoff.max(1) {
                index.entry(t).or_default().push(j);
            }
        }
    }

    let mut candidates = Vec::new();
    let mut overlap: HashMap<usize, usize> = HashMap::new();
    for (i, l) in left.iter().enumerate() {
        overlap.clear();
        for t in blocking_tokens(l, &config.key_attributes, width) {
            if let Some(matches) = index.get(t.as_str()) {
                for &j in matches {
                    *overlap.entry(j).or_insert(0) += 1;
                }
            }
        }
        for (&j, &count) in &overlap {
            if count >= config.min_overlap {
                candidates.push(CandidatePair { left: i, right: j });
            }
        }
    }
    candidates.sort_by_key(|p| (p.left, p.right));
    BlockingResult {
        candidates,
        cross_product: left.len() * right.len(),
    }
}

/// Which table a streamed record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left table (queries).
    Left,
    /// The right table (the indexed side; document frequencies and the
    /// stop-word cutoff are computed over this table, exactly as in
    /// [`token_blocking`]).
    Right,
}

impl Side {
    /// Stable wire name (`"left"` / `"right"`), used by the record ledger.
    pub fn name(self) -> &'static str {
        match self {
            Side::Left => "left",
            Side::Right => "right",
        }
    }

    /// Parse a wire name produced by [`Side::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "left" => Some(Side::Left),
            "right" => Some(Side::Right),
            _ => None,
        }
    }
}

/// A candidate pair of streamed records, by stable record id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CandidateIdPair {
    /// Stable id of the left record.
    pub left: u64,
    /// Stable id of the right record.
    pub right: u64,
}

/// Per-token state of the incremental index.
#[derive(Default)]
struct TokenInfo {
    /// Right-side document frequency (`right.len()`, cached).
    df: usize,
    /// Left records containing the token.
    left: BTreeSet<u64>,
    /// Right records containing the token.
    right: BTreeSet<u64>,
    /// Whether the token currently contributes to the overlap map
    /// (i.e. `1 <= df <= max(cutoff, 1)` — not a stop word).
    active: bool,
}

/// An incrementally-updatable token-overlap blocking index.
///
/// Semantically this is [`token_blocking`] turned into a live data
/// structure: after **any** interleaving of record inserts, updates and
/// deletes on either table, [`candidates`](Self::candidates) equals the
/// candidate set a from-scratch [`token_blocking`] over the surviving
/// records would produce (same pairs, same `(left, right)` order) — the
/// equivalence the `tests/streaming.rs` property battery pins down. No
/// mutation ever rebuilds the index; each one touches only the tokens of
/// the affected record plus the tokens whose stop-word status flips when
/// the cutoff moves.
///
/// The moving parts:
///
/// * per-token postings for both tables plus the right-side document
///   frequency (`TokenInfo`);
/// * `by_df` — tokens bucketed by df, so a cutoff shift of the stop-word
///   threshold (`ceil(|right| · max_token_frequency)` changes when right
///   records come and go) finds exactly the tokens in the flipped df
///   range instead of scanning the vocabulary;
/// * `overlap` — the number of **distinct active shared tokens** per
///   `(left, right)` id pair, updated by deltas in a hashed map. A pair
///   is a candidate iff its count reaches `min_overlap`; entries at zero
///   are removed. The map is unordered: [`candidates`](Self::candidates)
///   and [`canonical_dump`](Self::canonical_dump) sort on demand, and
///   [`candidate_count`](Self::candidate_count) is a maintained counter.
///
/// From the first [`mark_window`](Self::mark_window) on, the index also
/// keeps the set of pairs whose candidate status flipped since the last
/// mark — the candidate churn the drift monitor reads, in O(flips)
/// instead of O(candidates).
pub struct IncrementalBlocker {
    config: BlockerConfig,
    width: usize,
    left_tokens: BTreeMap<u64, Vec<String>>,
    right_tokens: BTreeMap<u64, Vec<String>>,
    tokens: HashMap<String, TokenInfo>,
    by_df: BTreeMap<usize, BTreeSet<String>>,
    overlap: Overlap,
}

/// A multiplicative hasher for the overlap map's `(u64, u64)` id pairs:
/// per word a rotate, xor and multiply (the Fx scheme), then a
/// fold-and-multiply finish so the high product bits, where the entropy
/// sits, reach the low bits the table indexes with. std's SipHash is no
/// faster than the ordered tree this map replaced. Record ids come from
/// the caller, so each map keys its hasher with a random seed: which ids
/// collide cannot be worked out ahead of time.
#[derive(Clone, Copy)]
struct PairHasher(u64);

const PAIR_HASH_K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(PAIR_HASH_K);
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(PAIR_HASH_K);
        h ^ (h >> 29)
    }
}

/// Builds [`PairHasher`]s from one random seed per map.
#[derive(Clone)]
struct PairHashState(u64);

impl Default for PairHashState {
    fn default() -> Self {
        Self(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for PairHashState {
    type Hasher = PairHasher;

    fn build_hasher(&self) -> PairHasher {
        PairHasher(self.0)
    }
}

type PairMap<V> = HashMap<(u64, u64), V, PairHashState>;
type PairSet = HashSet<(u64, u64), PairHashState>;

/// The overlap cells and what is derived from them: the live candidate
/// count and, once a churn window is open, the flipped-pair set.
struct Overlap {
    cells: PairMap<usize>,
    /// Count at which a pair is a candidate (`max(min_overlap, 1)`: a
    /// cell exists only while its count is at least 1).
    threshold: usize,
    candidates: usize,
    /// Pairs whose candidate status differs from the last mark; `None`
    /// until the first mark. A pair that flips twice leaves the set, so
    /// its length is the exact symmetric difference. The mutex lets the
    /// drift monitor close a window through `&IncrementalBlocker`; the
    /// `&mut` mutation path reaches it with `get_mut`, never locking.
    /// Each update is one whole-value step, so a poisoned lock still
    /// guards a valid set and is recovered.
    flips: Mutex<Option<PairSet>>,
}

impl Overlap {
    fn new(min_overlap: usize) -> Self {
        Self {
            cells: PairMap::default(),
            threshold: min_overlap.max(1),
            candidates: 0,
            flips: Mutex::new(None),
        }
    }

    fn inc(&mut self, l: u64, r: u64) {
        let count = self.cells.entry((l, r)).or_insert(0);
        *count += 1;
        if *count == self.threshold {
            self.candidates += 1;
            self.flip(l, r);
        }
    }

    fn dec(&mut self, l: u64, r: u64) {
        let Some(count) = self.cells.get_mut(&(l, r)) else {
            unreachable!("overlap decrement without a prior increment");
        };
        let drops_out = *count == self.threshold;
        *count -= 1;
        if *count == 0 {
            self.cells.remove(&(l, r));
        }
        if drops_out {
            self.candidates -= 1;
            self.flip(l, r);
        }
    }

    fn flip(&mut self, l: u64, r: u64) {
        let flips = self.flips.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(set) = flips {
            if !set.remove(&(l, r)) {
                set.insert((l, r));
            }
        }
    }
}

impl IncrementalBlocker {
    /// An empty index over tables sharing `schema`.
    pub fn new(schema: &Schema, config: BlockerConfig) -> Self {
        Self {
            width: schema.len(),
            left_tokens: BTreeMap::new(),
            right_tokens: BTreeMap::new(),
            tokens: HashMap::new(),
            by_df: BTreeMap::new(),
            overlap: Overlap::new(config.min_overlap),
            config,
        }
    }

    /// The blocker configuration.
    pub fn config(&self) -> &BlockerConfig {
        &self.config
    }

    /// Live record count on `side`.
    pub fn len(&self, side: Side) -> usize {
        match side {
            Side::Left => self.left_tokens.len(),
            Side::Right => self.right_tokens.len(),
        }
    }

    /// True when both tables are empty.
    pub fn is_empty(&self) -> bool {
        self.left_tokens.is_empty() && self.right_tokens.is_empty()
    }

    /// `|left| × |right|` over the live records.
    pub fn cross_product(&self) -> usize {
        self.left_tokens.len() * self.right_tokens.len()
    }

    /// Live record ids on `side`, ascending.
    pub fn ids(&self, side: Side) -> Vec<u64> {
        match side {
            Side::Left => self.left_tokens.keys().copied().collect(),
            Side::Right => self.right_tokens.keys().copied().collect(),
        }
    }

    /// Whether `id` is live on `side`.
    pub fn contains(&self, side: Side, id: u64) -> bool {
        match side {
            Side::Left => self.left_tokens.contains_key(&id),
            Side::Right => self.right_tokens.contains_key(&id),
        }
    }

    /// Insert or replace the record `id` on `side`. Covers both the
    /// `Insert` and `Update` ledger events — the index only cares about
    /// the record's final token set.
    pub fn upsert(&mut self, side: Side, id: u64, entity: &Entity) {
        let new = blocking_tokens(entity, &self.config.key_attributes, self.width);
        self.apply(side, id, Some(new));
    }

    /// Remove the record `id` from `side`. Returns `false` (and changes
    /// nothing) when the id was not live.
    pub fn remove(&mut self, side: Side, id: u64) -> bool {
        if !self.contains(side, id) {
            return false;
        }
        self.apply(side, id, None);
        true
    }

    /// The effective stop-word cutoff for the current right-table size.
    fn cutoff(&self) -> usize {
        self.cutoff_for(self.right_tokens.len())
    }

    fn should_be_active(df: usize, cutoff: usize) -> bool {
        df >= 1 && df <= cutoff
    }

    /// One mutation: replace (or drop, `new_tokens = None`) the token set
    /// of `id` on `side`, then restore every invariant.
    fn apply(&mut self, side: Side, id: u64, new_tokens: Option<Vec<String>>) {
        // cutoff depends on |right| *before* this mutation
        let old_cutoff = self.cutoff_for(self.right_tokens.len());
        let old = {
            let table = match side {
                Side::Left => &mut self.left_tokens,
                Side::Right => &mut self.right_tokens,
            };
            match &new_tokens {
                Some(toks) => table.insert(id, toks.clone()),
                None => table.remove(&id),
            }
        }
        .unwrap_or_default();
        let new = new_tokens.unwrap_or_default();
        // token-set deltas for the mutated record (both lists are sorted
        // and deduped by `blocking_tokens`)
        let removed: Vec<&str> = old
            .iter()
            .filter(|t| new.binary_search(t).is_err())
            .map(String::as_str)
            .collect();
        let added: Vec<&str> = new
            .iter()
            .filter(|t| old.binary_search(t).is_err())
            .map(String::as_str)
            .collect();

        // 1. postings + contribution deltas under the *current* activity
        //    flags: the overlap map always equals the sum over active
        //    tokens of their left×right products
        for &t in &removed {
            let info = self.tokens.get_mut(t).expect("posted token");
            match side {
                Side::Left => {
                    info.left.remove(&id);
                    if info.active {
                        for &r in &info.right {
                            self.overlap.dec(id, r);
                        }
                    }
                }
                Side::Right => {
                    info.right.remove(&id);
                    if info.active {
                        for &l in &info.left {
                            self.overlap.dec(l, id);
                        }
                    }
                    Self::move_df(&mut self.by_df, t, info.df, info.df - 1);
                    info.df -= 1;
                }
            }
        }
        for &t in &added {
            let info = self.tokens.entry(t.to_owned()).or_default();
            match side {
                Side::Left => {
                    info.left.insert(id);
                    if info.active {
                        for &r in &info.right {
                            self.overlap.inc(id, r);
                        }
                    }
                }
                Side::Right => {
                    info.right.insert(id);
                    if info.active {
                        for &l in &info.left {
                            self.overlap.inc(l, id);
                        }
                    }
                    Self::move_df(&mut self.by_df, t, info.df, info.df + 1);
                    info.df += 1;
                }
            }
        }

        // 2. activity refresh: the touched tokens (df changed) plus every
        //    token whose df sits in the range the cutoff just swept over
        let new_cutoff = self.cutoff();
        let mut dirty: BTreeSet<String> = removed
            .iter()
            .chain(added.iter())
            .map(|t| (*t).to_owned())
            .collect();
        let (lo, hi) = (old_cutoff.min(new_cutoff), old_cutoff.max(new_cutoff));
        if lo != hi {
            for (_, bucket) in self.by_df.range(lo + 1..=hi) {
                dirty.extend(bucket.iter().cloned());
            }
        }
        for t in dirty {
            let Some(info) = self.tokens.get_mut(&t) else {
                continue;
            };
            let should = Self::should_be_active(info.df, new_cutoff);
            if should != info.active {
                for &l in &info.left {
                    for &r in &info.right {
                        if should {
                            self.overlap.inc(l, r);
                        } else {
                            self.overlap.dec(l, r);
                        }
                    }
                }
                info.active = should;
            }
            if info.df == 0 && info.left.is_empty() && info.right.is_empty() {
                self.tokens.remove(&t);
            }
        }
    }

    fn cutoff_for(&self, right_len: usize) -> usize {
        let c = ((right_len as f64) * self.config.max_token_frequency).ceil() as usize;
        c.max(1)
    }

    fn move_df(by_df: &mut BTreeMap<usize, BTreeSet<String>>, t: &str, from: usize, to: usize) {
        if from >= 1 {
            if let Some(bucket) = by_df.get_mut(&from) {
                bucket.remove(t);
                if bucket.is_empty() {
                    by_df.remove(&from);
                }
            }
        }
        if to >= 1 {
            by_df.entry(to).or_default().insert(t.to_owned());
        }
    }

    /// Current candidate pairs, sorted by `(left, right)` record id —
    /// the same order [`token_blocking`] yields after mapping row
    /// indices to ids in ascending-id order.
    pub fn candidates(&self) -> Vec<CandidateIdPair> {
        let mut pairs: Vec<CandidateIdPair> = self
            .overlap
            .cells
            .iter()
            .filter(|(_, &count)| count >= self.overlap.threshold)
            .map(|(&(left, right), _)| CandidateIdPair { left, right })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Number of current candidate pairs.
    pub fn candidate_count(&self) -> usize {
        self.overlap.candidates
    }

    /// Close a churn window: return how many pairs changed candidate
    /// status since the previous mark — `|S_now Δ S_prev|` — and open the
    /// next window. The first mark returns `None`: before it nothing is
    /// tracked, so a cold replay pays nothing for churn. O(1): the closed
    /// window's set is dropped whole. One reader (the drift monitor) owns
    /// the marks.
    pub fn mark_window(&self) -> Option<usize> {
        self.overlap
            .flips
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(PairSet::default())
            .map(|closed| closed.len())
    }

    /// A canonical, deterministic dump of the entire index state: live
    /// token sets per record, the cutoff, and every overlap cell. Two
    /// indexes are **bit-identical** iff their dumps are equal — this is
    /// what the replay-from-ledger cold-start test fingerprints.
    pub fn canonical_dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cutoff {}", self.cutoff());
        for (id, toks) in &self.left_tokens {
            let _ = writeln!(out, "L {id} {}", toks.join("\u{1f}"));
        }
        for (id, toks) in &self.right_tokens {
            let _ = writeln!(out, "R {id} {}", toks.join("\u{1f}"));
        }
        let mut cells: Vec<(&(u64, u64), &usize)> = self.overlap.cells.iter().collect();
        cells.sort_unstable();
        for ((l, r), count) in cells {
            let _ = writeln!(out, "O {l} {r} {count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{Domain, Restaurant};
    use crate::noise::{corrupt_entity, NoiseConfig};
    use linalg::Rng;

    fn entity(vals: &[&str]) -> Entity {
        Entity::new(vals.iter().map(|v| Some((*v).to_owned())).collect())
    }

    fn toy_schema() -> Schema {
        use crate::schema::{AttrType, Attribute};
        Schema::new(vec![
            Attribute::new("name", AttrType::Text),
            Attribute::new("city", AttrType::Text),
        ])
    }

    #[test]
    fn shared_tokens_create_candidates() {
        let schema = toy_schema();
        let left = vec![
            entity(&["golden dragon", "boston"]),
            entity(&["blue ocean", "miami"]),
        ];
        let right = vec![
            entity(&["golden dragon cafe", "boston"]),
            entity(&["red lantern", "chicago"]),
        ];
        let r = token_blocking(
            &left,
            &right,
            &schema,
            &BlockerConfig {
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        );
        assert!(r.candidates.contains(&CandidatePair { left: 0, right: 0 }));
        assert!(!r.candidates.contains(&CandidatePair { left: 1, right: 1 }));
        assert_eq!(r.cross_product, 4);
    }

    #[test]
    fn min_overlap_tightens_the_set() {
        let schema = toy_schema();
        let left = vec![entity(&["alpha beta", "x"])];
        let right = vec![entity(&["alpha gamma", "y"]), entity(&["alpha beta", "z"])];
        let loose = token_blocking(
            &left,
            &right,
            &schema,
            &BlockerConfig {
                min_overlap: 1,
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        );
        let tight = token_blocking(
            &left,
            &right,
            &schema,
            &BlockerConfig {
                min_overlap: 2,
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        );
        assert_eq!(loose.candidates.len(), 2);
        assert_eq!(tight.candidates.len(), 1);
        assert!(tight.reduction_ratio() > loose.reduction_ratio());
    }

    #[test]
    fn stop_words_are_ignored() {
        let schema = toy_schema();
        // "cafe" appears in every right record → removed as a stop word
        let left = vec![entity(&["cafe unique", "a"])];
        let right: Vec<Entity> = (0..20)
            .map(|i| entity(&[&format!("cafe place{i}"), "b"]))
            .collect();
        let r = token_blocking(
            &left,
            &right,
            &schema,
            &BlockerConfig {
                max_token_frequency: 0.2,
                ..BlockerConfig::default()
            },
        );
        assert!(r.candidates.is_empty(), "{:?}", r.candidates);
    }

    #[test]
    fn key_attributes_restrict_evidence() {
        let schema = toy_schema();
        let left = vec![entity(&["unique name", "shared city"])];
        let right = vec![entity(&["other words", "shared city"])];
        // block on name only: no candidate
        let name_only = token_blocking(
            &left,
            &right,
            &schema,
            &BlockerConfig {
                key_attributes: vec![0],
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        );
        assert!(name_only.candidates.is_empty());
        // block on all attributes: city overlap creates the candidate
        let all = token_blocking(
            &left,
            &right,
            &schema,
            &BlockerConfig {
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        );
        assert_eq!(all.candidates.len(), 1);
    }

    #[test]
    fn blocking_keeps_true_duplicates_on_synthetic_tables() {
        // generate restaurant entities, corrupt copies into a second table,
        // and verify blocking recall is high while reduction is substantial
        let domain = Restaurant;
        let schema = domain.schema();
        let mut rng = Rng::new(7);
        let cfg = NoiseConfig::from_level(0.2);
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut truth = Vec::new();
        for i in 0..120 {
            let base = domain.generate(&mut rng);
            let dup = corrupt_entity(&base, &schema, &cfg, &[], &mut rng);
            left.push(base);
            right.push(dup);
            truth.push(CandidatePair { left: i, right: i });
        }
        let r = token_blocking(&left, &right, &schema, &BlockerConfig::default());
        assert!(r.recall(&truth) > 0.9, "recall {}", r.recall(&truth));
        assert!(
            r.reduction_ratio() > 0.5,
            "reduction {}",
            r.reduction_ratio()
        );
    }

    #[test]
    fn empty_tables_degenerate_cleanly() {
        let schema = toy_schema();
        let r = token_blocking(&[], &[], &schema, &BlockerConfig::default());
        assert!(r.candidates.is_empty());
        assert_eq!(r.reduction_ratio(), 0.0);
        assert_eq!(r.recall(&[]), 1.0);
    }

    /// Batch-rebuild the live records of `inc` with [`token_blocking`] and
    /// return the candidate set as id pairs (rows map to ids in
    /// ascending-id order, which preserves the `(left, right)` sort).
    fn batch_candidates(inc: &IncrementalBlocker, schema: &Schema) -> Vec<CandidateIdPair> {
        let left_ids = inc.ids(Side::Left);
        let right_ids = inc.ids(Side::Right);
        let left: Vec<Entity> = left_ids
            .iter()
            .map(|id| inc.live_entity(Side::Left, *id))
            .collect();
        let right: Vec<Entity> = right_ids
            .iter()
            .map(|id| inc.live_entity(Side::Right, *id))
            .collect();
        let r = token_blocking(&left, &right, schema, inc.config());
        r.candidates
            .iter()
            .map(|p| CandidateIdPair {
                left: left_ids[p.left],
                right: right_ids[p.right],
            })
            .collect()
    }

    impl IncrementalBlocker {
        /// Test helper: reconstruct a synthetic entity whose blocking
        /// tokens equal the live record's (one attribute holding the
        /// joined token list — `blocking_tokens` re-derives the same
        /// sorted deduped set from it).
        fn live_entity(&self, side: Side, id: u64) -> Entity {
            let toks = match side {
                Side::Left => &self.left_tokens[&id],
                Side::Right => &self.right_tokens[&id],
            };
            let mut vals = vec![Some(toks.join(" "))];
            vals.resize(self.width, None);
            Entity::new(vals)
        }
    }

    #[test]
    fn incremental_matches_batch_on_simple_edits() {
        let schema = toy_schema();
        let mut inc = IncrementalBlocker::new(
            &schema,
            BlockerConfig {
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        );
        inc.upsert(Side::Left, 10, &entity(&["golden dragon", "boston"]));
        inc.upsert(Side::Right, 20, &entity(&["golden dragon cafe", "boston"]));
        inc.upsert(Side::Right, 21, &entity(&["red lantern", "chicago"]));
        assert_eq!(
            inc.candidates(),
            vec![CandidateIdPair {
                left: 10,
                right: 20
            }]
        );
        assert_eq!(inc.candidates(), batch_candidates(&inc, &schema));

        // update flips the pair to the other right record
        inc.upsert(Side::Left, 10, &entity(&["red lantern", "chicago"]));
        assert_eq!(
            inc.candidates(),
            vec![CandidateIdPair {
                left: 10,
                right: 21
            }]
        );
        assert_eq!(inc.candidates(), batch_candidates(&inc, &schema));

        // delete clears it
        assert!(inc.remove(Side::Right, 21));
        assert!(!inc.remove(Side::Right, 21), "second delete is a no-op");
        assert!(inc.candidates().is_empty());
        assert_eq!(inc.cross_product(), 1);
    }

    #[test]
    fn incremental_tracks_stop_word_cutoff_shifts() {
        let schema = toy_schema();
        // max_token_frequency 0.2 → cutoff moves as the right table grows
        let config = BlockerConfig {
            max_token_frequency: 0.2,
            ..BlockerConfig::default()
        };
        let mut inc = IncrementalBlocker::new(&schema, config);
        inc.upsert(Side::Left, 0, &entity(&["cafe unique", "a"]));
        for i in 0..20u64 {
            inc.upsert(
                Side::Right,
                100 + i,
                &entity(&[&format!("cafe place{i}"), "b"]),
            );
            // at every intermediate size, the incremental candidate set
            // must equal a from-scratch rebuild (the cutoff crosses
            // "cafe"'s df several times on the way up)
            assert_eq!(
                inc.candidates(),
                batch_candidates(&inc, &schema),
                "after {} right records",
                i + 1
            );
        }
        assert!(inc.candidates().is_empty(), "{:?}", inc.candidates());
        // shrink back down: deletions move the cutoff the other way
        for i in (0..20u64).rev() {
            assert!(inc.remove(Side::Right, 100 + i));
            assert_eq!(
                inc.candidates(),
                batch_candidates(&inc, &schema),
                "after shrinking to {i} right records"
            );
        }
        assert!(inc.is_empty() || inc.len(Side::Right) == 0);
    }

    #[test]
    fn random_interleavings_stay_equivalent_to_batch_rebuild() {
        let domain = Restaurant;
        let schema = domain.schema();
        let cfg = NoiseConfig::from_level(0.3);
        for seed in 0..6u64 {
            let mut rng = Rng::new(seed + 500);
            let mut inc = IncrementalBlocker::new(&schema, BlockerConfig::default());
            for step in 0..120 {
                let side = if rng.chance(0.5) {
                    Side::Left
                } else {
                    Side::Right
                };
                let live = inc.ids(side);
                let op = rng.f64();
                if op < 0.25 && !live.is_empty() {
                    // delete a live record
                    let id = live[rng.below(live.len())];
                    assert!(inc.remove(side, id));
                } else if op < 0.55 && !live.is_empty() {
                    // update a live record with a corrupted regeneration
                    let id = live[rng.below(live.len())];
                    let base = domain.generate(&mut rng);
                    let e = corrupt_entity(&base, &schema, &cfg, &[], &mut rng);
                    inc.upsert(side, id, &e);
                } else {
                    // insert a fresh record
                    let id = 1000 * (seed + 1) + step;
                    inc.upsert(side, id, &domain.generate(&mut rng));
                }
                if step % 10 == 9 {
                    assert_eq!(
                        inc.candidates(),
                        batch_candidates(&inc, &schema),
                        "seed {seed} step {step}"
                    );
                }
            }
            assert_eq!(inc.candidates(), batch_candidates(&inc, &schema));
        }
    }
}
