//! Continuous-EM battery: the streaming layer's equivalence, staleness,
//! crash-safety and promotion contracts.
//!
//! * Incremental blocking tracks a from-scratch rebuild — same candidate
//!   set, same order — across random insert/update/delete interleavings.
//! * The drift monitor's incremental candidate churn equals the symmetric
//!   difference of two candidate snapshots at every window close, and its
//!   reports match a monitor that diffs whole sets.
//! * An updated record can never serve a stale embedding vector, at 1
//!   and at 4 reader threads, and every invalidation is accounted.
//! * A cold start replaying the record ledger reconstructs bit-identical
//!   derived state (digest equality), survives torn tails, and refuses a
//!   ledger written for another schema.
//! * A background re-search killed mid-flight (`Fault::Kill`) resumes
//!   from its trial journal to a byte-identical bundle and `FitReport`.
//! * End to end: a drifting stream trips the drift monitor, a
//!   deadline-bounded background re-search runs off the serving thread,
//!   and the winning bundle is promoted through em-serve's hot-swap
//!   while clients hammer `/match` — zero drops, zero cross-version
//!   mixing, monotonically advancing `x-model-version`.

use em_core::model::{load_model, ModelHost, ModelSpec};
use em_data::{token_blocking, BlockerConfig, Entity, RecordPair, Schema, Side, Split};
use em_serve::{serve, ServeConfig};
use em_stream::{
    generate_events, record_key, ContinuousConfig, ContinuousEm, DriftConfig, DriftMonitor,
    DriftReport, LedgerError, RecordEvent, RecordLedger, ScenarioConfig, StreamState,
};
use embed::cache::EmbeddingCache;
use embed::HashingEmbedder;
use obs::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Per-client observation log: (bad-response count, then for every good
/// response its request index, `x-model-version`, and score bits).
type ClientObs = Vec<(usize, Vec<(usize, u64, u32)>)>;

/// Serializes tests that touch process-global state (the fault env var,
/// the `par` thread override, the obs registry).
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn restaurant_domain() -> Box<dyn em_data::generators::Domain> {
    ModelSpec::fixture().dataset.profile().domain()
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("em_streaming_{}_{}_{tag}", std::process::id(), n));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ----------------------------------------------------- blocking equivalence

/// Rebuild the candidate set from scratch with the batch blocker and map
/// its row indices back to record ids through the live id order.
fn batch_id_pairs(state: &StreamState) -> Vec<(u64, u64)> {
    let left_ids = state.blocker().ids(Side::Left);
    let right_ids = state.blocker().ids(Side::Right);
    let left: Vec<_> = left_ids
        .iter()
        .map(|id| state.entity(Side::Left, *id).unwrap().clone())
        .collect();
    let right: Vec<_> = right_ids
        .iter()
        .map(|id| state.entity(Side::Right, *id).unwrap().clone())
        .collect();
    let result = token_blocking(&left, &right, state.schema(), state.blocker().config());
    let mut pairs: Vec<(u64, u64)> = result
        .candidates
        .iter()
        .map(|c| (left_ids[c.left], right_ids[c.right]))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Satellite 1: random interleavings of insert/update/delete leave the
/// incremental index identical — same candidate-pair set *and order* —
/// to a from-scratch rebuild, checked repeatedly along the stream.
#[test]
fn incremental_blocking_matches_batch_rebuild_across_interleavings() {
    let domain = restaurant_domain();
    for seed in [3u64, 11, 42, 2026] {
        let events = generate_events(
            domain.as_ref(),
            &ScenarioConfig {
                seed,
                initial_pairs: 10,
                events: 90,
                drift_after: 45, // cover both regimes: churn exercises deletes
                ..ScenarioConfig::default()
            },
        );
        let mut state = StreamState::new(domain.schema(), BlockerConfig::default());
        for (step, ev) in events.iter().enumerate() {
            state.apply(ev, None).unwrap();
            if step % 7 == 0 || step + 1 == events.len() {
                let incremental: Vec<(u64, u64)> = state
                    .candidates()
                    .iter()
                    .map(|c| (c.left, c.right))
                    .collect();
                let mut sorted = incremental.clone();
                sorted.sort_unstable();
                assert_eq!(
                    incremental, sorted,
                    "seed {seed} step {step}: candidates not in (left,right) order"
                );
                assert_eq!(
                    incremental,
                    batch_id_pairs(&state),
                    "seed {seed} step {step}: incremental index diverged from rebuild"
                );
            }
        }
    }
}

// ----------------------------------------------------- drift churn

/// The drift monitor as first written: it keeps the whole candidate set
/// of the last window close and diffs it against the current one. The
/// incremental monitor must report exactly what this one reports.
struct SetDiffMonitor {
    config: DriftConfig,
    baseline: BTreeSet<(u64, u64)>,
    baseline_hist: Option<[f64; 10]>,
    scores: Vec<f64>,
    window: usize,
    total: u64,
    epochs: u64,
    primed: bool,
}

impl SetDiffMonitor {
    fn new(config: DriftConfig) -> Self {
        Self {
            config,
            baseline: BTreeSet::new(),
            baseline_hist: None,
            scores: Vec::new(),
            window: 0,
            total: 0,
            epochs: 0,
            primed: false,
        }
    }

    fn histogram(scores: &[f64]) -> Option<[f64; 10]> {
        if scores.is_empty() {
            return None;
        }
        let mut hist = [0.0f64; 10];
        for &s in scores {
            hist[((s * 10.0) as usize).min(9)] += 1.0;
        }
        for h in &mut hist {
            *h /= scores.len() as f64;
        }
        Some(hist)
    }

    fn observe(&mut self, now: &BTreeSet<(u64, u64)>) -> Option<DriftReport> {
        self.window += 1;
        self.total += 1;
        if self.window < self.config.window_events {
            return None;
        }
        self.window = 0;
        let sym_diff = now.symmetric_difference(&self.baseline).count();
        let denom = now.len().max(self.baseline.len()).max(1);
        let churn = sym_diff as f64 / denom as f64;
        let hist = Self::histogram(&self.scores);
        let score_shift = match (&self.baseline_hist, &hist) {
            (Some(base), Some(now)) => {
                0.5 * base
                    .iter()
                    .zip(now.iter())
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>()
            }
            _ => 0.0,
        };
        let fired = self.primed
            && (churn >= self.config.churn_threshold
                || score_shift >= self.config.score_shift_threshold);
        self.primed = true;
        self.baseline = now.clone();
        if hist.is_some() {
            self.baseline_hist = hist;
        }
        self.scores.clear();
        if !fired {
            return None;
        }
        self.epochs += 1;
        Some(DriftReport {
            epoch: self.epochs,
            churn,
            score_shift,
            at_event: self.total,
        })
    }
}

/// A random insert/update/delete interleaving over a small vocabulary,
/// so pairs enter and leave the candidate set often and stop-word
/// cutoffs move. Update storms rewrite a record to one half of a
/// partner's tokens and then to the other half: with both halves at or
/// above `min_overlap`, the pair leaves and re-enters the candidate set
/// within the second event.
fn vocabulary_stream(seed: u64, width: usize, events: usize) -> Vec<RecordEvent> {
    let mut rng = linalg::Rng::new(seed);
    let entity = |words: &[String]| {
        let mut vals = vec![Some(words.join(" "))];
        vals.resize(width, None);
        Entity::new(vals)
    };
    let mut live: [BTreeMap<u64, Vec<String>>; 2] = Default::default();
    let mut next_id = 1u64;
    let mut out = Vec::new();
    while out.len() < events {
        let s = rng.below(2);
        let side = [Side::Left, Side::Right][s];
        let ids: Vec<u64> = live[s].keys().copied().collect();
        let pick = |rng: &mut linalg::Rng| ids[rng.below(ids.len())];
        let mut words: Vec<String> = (0..1 + rng.below(6))
            .map(|_| format!("w{}", rng.below(40)))
            .collect();
        words.sort();
        words.dedup();
        let op = rng.f64();
        if op < 0.15 && !ids.is_empty() {
            let id = pick(&mut rng);
            live[s].remove(&id);
            out.push(RecordEvent::Delete { side, id });
        } else if op < 0.4 && !ids.is_empty() && !live[1 - s].is_empty() {
            let id = pick(&mut rng);
            let partners: Vec<&Vec<String>> = live[1 - s].values().collect();
            let partner = partners[rng.below(partners.len())].clone();
            let (a, b) = partner.split_at(partner.len() / 2);
            for half in [a, b].into_iter().filter(|h| !h.is_empty()) {
                live[s].insert(id, half.to_vec());
                out.push(RecordEvent::Update {
                    side,
                    id,
                    entity: entity(half),
                });
            }
        } else if op < 0.6 && !ids.is_empty() {
            let id = pick(&mut rng);
            out.push(RecordEvent::Update {
                side,
                id,
                entity: entity(&words),
            });
            live[s].insert(id, words);
        } else {
            out.push(RecordEvent::Insert {
                side,
                id: next_id,
                entity: entity(&words),
            });
            live[s].insert(next_id, words);
            next_id += 1;
        }
    }
    out
}

/// An update that moves a pair's shared tokens wholesale makes the pair
/// leave and re-enter the candidate set inside one event: the two flips
/// cancel, so the window's churn does not count it.
#[test]
fn a_pair_that_leaves_and_reenters_within_one_event_is_not_churn() {
    let schema = Schema::new(vec![em_data::Attribute::new(
        "name",
        em_data::AttrType::Text,
    )]);
    let ent = |s: &str| Entity::new(vec![Some(s.to_owned())]);
    for (min_overlap, right, before, after) in [
        (1, "alpha beta", "alpha", "beta"),
        (2, "alpha beta gamma delta", "alpha beta", "gamma delta"),
    ] {
        let config = BlockerConfig {
            min_overlap,
            ..BlockerConfig::default()
        };
        let mut state = StreamState::new(schema.clone(), config);
        for ev in [
            RecordEvent::Insert {
                side: Side::Right,
                id: 1,
                entity: ent(right),
            },
            RecordEvent::Insert {
                side: Side::Left,
                id: 2,
                entity: ent(before),
            },
        ] {
            state.apply(&ev, None).unwrap();
        }
        assert_eq!(state.blocker().candidate_count(), 1);
        assert_eq!(state.blocker().mark_window(), None);
        state
            .apply(
                &RecordEvent::Update {
                    side: Side::Left,
                    id: 2,
                    entity: ent(after),
                },
                None,
            )
            .unwrap();
        assert_eq!(state.blocker().candidate_count(), 1);
        assert_eq!(
            state.blocker().mark_window(),
            Some(0),
            "min_overlap {min_overlap}: the leave and the re-entry must cancel"
        );
    }
}

/// Property: over random interleavings in both regimes — generated
/// stable and drifting streams, plus small-vocabulary streams with
/// update storms — the incremental churn at every window close equals
/// `|S_now Δ S_prev|` from two `candidates()` snapshots, and the
/// monitor's reports and epochs equal those of [`SetDiffMonitor`].
#[test]
fn incremental_churn_equals_snapshot_symmetric_difference() {
    let _g = guard();
    let domain = restaurant_domain();
    let schema = domain.schema();
    let mut streams = Vec::new();
    for seed in [3u64, 11, 42] {
        for drift_after in [usize::MAX, 40] {
            streams.push(generate_events(
                domain.as_ref(),
                &ScenarioConfig {
                    seed,
                    initial_pairs: 10,
                    events: 120,
                    drift_after,
                    ..ScenarioConfig::default()
                },
            ));
        }
        streams.push(vocabulary_stream(seed, schema.len(), 240));
    }
    // updates that drop every token of a record and still keep one of
    // its candidate pairs: that pair left and re-entered within the event
    let mut reentries = 0usize;
    for (k, events) in streams.iter().enumerate() {
        for min_overlap in [1usize, 2] {
            for window_events in [4usize, 16] {
                // churn threshold 0 reports every primed window, so each
                // close shows its churn; 0.35 checks the firing decisions
                for churn_threshold in [0.0, 0.35] {
                    let config = DriftConfig {
                        window_events,
                        churn_threshold,
                        score_shift_threshold: 0.3,
                    };
                    let mut state = StreamState::new(
                        schema.clone(),
                        BlockerConfig {
                            min_overlap,
                            ..BlockerConfig::default()
                        },
                    );
                    let mut monitor = DriftMonitor::new(config.clone());
                    let mut reference = SetDiffMonitor::new(config);
                    let mut rng = linalg::Rng::new(k as u64);
                    let mut prev: BTreeSet<(u64, u64)> = BTreeSet::new();
                    for (step, ev) in events.iter().enumerate() {
                        let before = state.candidates();
                        let old_tokens = state
                            .entity(ev.side(), ev.id())
                            .map(|e| text::tokenize::words(&e.flatten()));
                        state.apply(ev, None).unwrap();
                        if let (RecordEvent::Update { side, id, entity }, Some(old_tokens)) =
                            (ev, old_tokens)
                        {
                            let new_tokens = text::tokenize::words(&entity.flatten());
                            let mine = |c: &&em_data::CandidateIdPair| match side {
                                Side::Left => c.left == *id,
                                Side::Right => c.right == *id,
                            };
                            let after = state.candidates();
                            if old_tokens.iter().all(|t| !new_tokens.contains(t))
                                && before.iter().filter(mine).any(|c| after.contains(c))
                            {
                                reentries += 1;
                            }
                        }
                        // scores turn from confident to mid-scale halfway
                        let score = if step < events.len() / 2 {
                            if rng.chance(0.5) {
                                0.05
                            } else {
                                0.95
                            }
                        } else {
                            0.3 + 0.4 * rng.f64()
                        };
                        monitor.note_score(score);
                        reference.scores.push(score);
                        let now: BTreeSet<(u64, u64)> = state
                            .candidates()
                            .iter()
                            .map(|c| (c.left, c.right))
                            .collect();
                        let got = monitor.observe(state.blocker());
                        let want = reference.observe(&now);
                        let ctx = format!(
                            "stream {k} min_overlap {min_overlap} window {window_events} \
                             threshold {churn_threshold} step {step}"
                        );
                        assert_eq!(got, want, "{ctx}");
                        if (step + 1) % window_events == 0 {
                            if let Some(report) = &got {
                                let sym_diff = now.symmetric_difference(&prev).count();
                                let denom = now.len().max(prev.len()).max(1);
                                assert_eq!(report.churn, sym_diff as f64 / denom as f64, "{ctx}");
                            } else {
                                assert!(churn_threshold > 0.0 || step < window_events, "{ctx}");
                            }
                            prev = now;
                        }
                    }
                    assert_eq!(monitor.epochs(), reference.epochs, "stream {k}");
                }
            }
        }
    }
    assert!(
        reentries > 0,
        "no pair left and re-entered within one event"
    );
}

// ----------------------------------------------------- cache invalidation

/// Satellite 2: after an update (or delete) of a record, the next encode
/// can never return the pre-update vector — at 1 and at 4 reader
/// threads — and the cache accounts every invalidation.
#[test]
fn updated_record_never_serves_a_stale_vector() {
    let domain = restaurant_domain();
    let schema = domain.schema();
    for threads in [1usize, 4] {
        let embedder = HashingEmbedder::new(32);
        let cache = EmbeddingCache::new(&embedder);
        let mut state = StreamState::new(schema.clone(), BlockerConfig::default());
        let mk = |vals: &[&str]| {
            let mut v: Vec<Option<String>> = vals.iter().map(|s| Some((*s).to_owned())).collect();
            v.resize(schema.len(), None);
            em_data::Entity::new(v)
        };
        let old = mk(&["golden dragon", "szechuan", "boston"]);
        let new = mk(&["red lantern", "dim sum", "chicago"]);
        state
            .apply(
                &RecordEvent::Insert {
                    side: Side::Left,
                    id: 1,
                    entity: old.clone(),
                },
                Some(&cache),
            )
            .unwrap();
        // populate the id-keyed cache entry with the pre-update vector
        let stale = state.encode_record(Side::Left, 1, &cache).unwrap();
        assert_eq!(stale, embedder_truth(&embedder, &old));
        let before = cache.invalidations();
        state
            .apply(
                &RecordEvent::Update {
                    side: Side::Left,
                    id: 1,
                    entity: new.clone(),
                },
                Some(&cache),
            )
            .unwrap();
        assert_eq!(
            cache.invalidations(),
            before + 1,
            "{threads}t: the update must be accounted as exactly one invalidation"
        );
        // every concurrent reader sees the post-update vector, never the
        // stale one
        let want = embedder_truth(&embedder, &new);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let state = &state;
                    let cache = &cache;
                    s.spawn(move || state.encode_record(Side::Left, 1, cache).unwrap())
                })
                .collect();
            for h in handles {
                let got = h.join().unwrap();
                assert_ne!(got, stale, "{threads}t: stale vector served after update");
                assert_eq!(got, want, "{threads}t: wrong post-update vector");
            }
        });
        // delete drops the key too: re-inserting under the same id with
        // different text can never resurrect the old vector
        state
            .apply(
                &RecordEvent::Delete {
                    side: Side::Left,
                    id: 1,
                },
                Some(&cache),
            )
            .unwrap();
        assert_eq!(cache.invalidations(), before + 2);
        state
            .apply(
                &RecordEvent::Insert {
                    side: Side::Left,
                    id: 1,
                    entity: old.clone(),
                },
                Some(&cache),
            )
            .unwrap();
        assert_eq!(
            state.encode_record(Side::Left, 1, &cache).unwrap(),
            embedder_truth(&embedder, &old)
        );
    }
}

/// The uncached ground truth for a record's vector.
fn embedder_truth(embedder: &HashingEmbedder, entity: &em_data::Entity) -> Vec<f32> {
    use embed::SequenceEmbedder;
    embedder.embed(&entity.flatten())
}

// ------------------------------------------------------- ledger cold start

/// Tentpole: replay-from-ledger cold start reconstructs bit-identical
/// derived state (digest equality over tables + blocking index), torn
/// tails are truncated and appending resumes, and a ledger written for a
/// different schema is refused.
#[test]
fn cold_start_replay_is_bit_identical_and_crash_safe() {
    let domain = restaurant_domain();
    let schema = domain.schema();
    let dir = tmp_dir("coldstart");
    let path = dir.join("records.jsonl");
    let events = generate_events(
        domain.as_ref(),
        &ScenarioConfig {
            seed: 5,
            initial_pairs: 8,
            events: 60,
            drift_after: 30,
            ..ScenarioConfig::default()
        },
    );

    // live process: apply + append, fsync every 16 events
    let mut ledger = RecordLedger::create(&path, &schema).unwrap();
    let mut live = StreamState::new(schema.clone(), BlockerConfig::default());
    for (i, ev) in events.iter().enumerate() {
        live.apply(ev, None).unwrap();
        ledger.append(ev).unwrap();
        if i % 16 == 15 {
            ledger.sync().unwrap();
        }
    }
    ledger.sync().unwrap();
    drop(ledger);
    let live_digest = live.digest();

    // cold start #1: clean file
    let (_l, replay) = RecordLedger::open(&path, &schema).unwrap();
    assert_eq!(replay.truncated_bytes, 0);
    let mut cold = StreamState::new(schema.clone(), BlockerConfig::default());
    for ev in &replay.events {
        cold.apply(ev, None).unwrap();
    }
    assert_eq!(cold.digest(), live_digest, "cold start diverged from live");
    drop(_l);

    // cold start #2: torn tail (simulated crash mid-append) is truncated
    // back to the last complete event and appending resumes
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"ev\":\"insert\",\"side\":\"left\",\"id\":9999,\"val")
            .unwrap();
    }
    let (mut ledger, replay) = RecordLedger::open(&path, &schema).unwrap();
    assert!(replay.truncated_bytes > 0, "torn tail went unnoticed");
    assert_eq!(replay.events.len(), events.len());
    let mut torn = StreamState::new(schema.clone(), BlockerConfig::default());
    for ev in &replay.events {
        torn.apply(ev, None).unwrap();
    }
    assert_eq!(torn.digest(), live_digest, "torn-tail recovery diverged");
    ledger
        .append(&RecordEvent::Delete {
            side: replay.events[0].side(),
            id: replay.events[0].id(),
        })
        .unwrap();
    ledger.sync().unwrap();
    drop(ledger);
    let replay = RecordLedger::replay(&path, &schema).unwrap();
    assert_eq!(replay.events.len(), events.len() + 1);

    // refusal: a ledger bound to another schema must not replay
    let other = Schema::new(vec![em_data::Attribute::new(
        "title",
        em_data::AttrType::Text,
    )]);
    let err = RecordLedger::open(&path, &other)
        .err()
        .expect("must refuse");
    assert!(matches!(err, LedgerError::SchemaMismatch { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------ research crash

/// Satellite 3: a background re-search killed mid-search (`Fault::Kill`
/// through the engine's env plan) resumes from its trial journal and
/// produces a bundle — and `FitReport` — byte-identical to a run that
/// was never interrupted.
#[test]
fn killed_research_resumes_to_byte_identical_bundle() {
    let _g = guard();
    automl::fault::silence_injected_panic_output();
    let dir = tmp_dir("killres");
    let spec = em_stream::derive_drift_spec(
        &ModelSpec {
            scale: 0.3,
            budget_hours: 0.1,
            ..ModelSpec::fixture()
        },
        1,
    );

    // baseline: uninterrupted research
    let baseline = em_stream::run_research(
        &spec,
        &dir.join("baseline.journal.jsonl"),
        &dir.join("baseline.json"),
        automl::Deadline::none(),
    )
    .expect("baseline research failed");
    let baseline_bytes = std::fs::read(dir.join("baseline.json")).unwrap();

    // killed run: the engine reads AUTOML_EM_FAULTS at build time inside
    // the research call, so the kill fires mid-search, after trials have
    // been journaled
    let journal = dir.join("killed.journal.jsonl");
    let bundle = dir.join("killed.json");
    std::env::set_var("AUTOML_EM_FAULTS", "kill@2");
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        em_stream::run_research(&spec, &journal, &bundle, automl::Deadline::none())
    }));
    std::env::remove_var("AUTOML_EM_FAULTS");
    assert!(unwound.is_err(), "kill@2 did not abort the research");
    assert!(journal.exists(), "no trial journal survived the kill");
    assert!(!bundle.exists(), "a killed research must not export");

    // resume: same journal, no faults
    let resumed = em_stream::run_research(&spec, &journal, &bundle, automl::Deadline::none())
        .expect("resumed research failed");
    assert_eq!(
        baseline.report, resumed.report,
        "resumed FitReport differs from uninterrupted run"
    );
    assert_eq!(
        baseline.digest, resumed.digest,
        "resumed model fingerprint differs"
    );
    assert_eq!(
        baseline_bytes,
        std::fs::read(&bundle).unwrap(),
        "resumed bundle is not byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------ e2e serving

fn read_one_response(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let need: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .unwrap_or(0);
            if buf.len() >= head_end + 4 + need {
                return String::from_utf8_lossy(&buf[..head_end + 4 + need]).to_string();
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return String::from_utf8_lossy(&buf).to_string(),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write");
    read_one_response(&mut stream)
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

fn header_of(response: &str, name: &str) -> Option<String> {
    let head = response.split("\r\n\r\n").next()?;
    head.lines().skip(1).find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case(name)
            .then(|| v.trim().to_string())
    })
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn pair_body(schema: &Schema, pair: &RecordPair) -> String {
    let entity = |e: &em_data::Entity| {
        let mut o = json::Obj::new();
        for (i, attr) in schema.attributes().iter().enumerate() {
            if let Some(v) = e.value(i) {
                o.str(&attr.name, v);
            }
        }
        o.finish()
    };
    let mut o = json::Obj::new();
    o.raw("left", &entity(&pair.left))
        .raw("right", &entity(&pair.right));
    o.finish()
}

/// One fixture model for the whole binary.
fn fixture_arc() -> std::sync::Arc<ModelHost> {
    static HOST: OnceLock<std::sync::Arc<ModelHost>> = OnceLock::new();
    std::sync::Arc::clone(HOST.get_or_init(|| {
        std::sync::Arc::new(
            ModelSpec {
                scale: 0.3,
                budget_hours: 0.1,
                ..ModelSpec::fixture()
            }
            .train()
            .expect("fixture training failed"),
        )
    }))
}

/// The tentpole e2e: a drifting event stream trips the drift monitor,
/// the background re-search runs to its deadline, and the winning bundle
/// is promoted through `/admin/reload` while clients hammer `/match` —
/// every in-flight request gets exactly one correct response, versions
/// advance monotonically per connection, and post-promotion traffic is
/// served by the new model.
#[test]
fn drifting_stream_triggers_research_and_zero_drop_promotion_under_load() {
    let _g = guard();
    let dir = tmp_dir("e2e");
    let host_a = fixture_arc();
    let base_spec = host_a.spec().clone();
    let pairs = &host_a.dataset().split(Split::Test)[..4];
    let schema = host_a.schema().clone();
    let offline_a: Vec<u32> = host_a
        .match_proba(pairs)
        .iter()
        .map(|p| p.to_bits())
        .collect();

    let handle = serve(
        fixture_arc(),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind failed");
    let addr = handle.addr();

    // promotion = the production path: POST the bundle to /admin/reload
    // and report back the swapped-in version
    let promote: em_stream::PromoteFn = Box::new(move |bundle: &std::path::Path| {
        let body = format!("{{\"path\":\"{}\"}}", bundle.display());
        let rsp = roundtrip(addr, &post("/admin/reload", &body));
        if !rsp.starts_with("HTTP/1.1 200") {
            return Err(format!("reload rejected: {rsp}"));
        }
        json::parse(body_of(&rsp))
            .ok()
            .and_then(|v| v.get("version")?.as_u64())
            .ok_or_else(|| "reload response had no version".to_owned())
    });

    let mut em = ContinuousEm::open(
        base_spec,
        ContinuousConfig {
            drift: DriftConfig {
                window_events: 32,
                churn_threshold: 0.55,
                score_shift_threshold: 0.25,
            },
            research_deadline: Duration::from_secs(30),
            ..ContinuousConfig::new(dir.clone())
        },
        promote,
    )
    .expect("open continuous instance");

    let events = generate_events(
        restaurant_domain().as_ref(),
        &ScenarioConfig {
            seed: 17,
            initial_pairs: 24,
            events: 260,
            drift_after: 96,
            ..ScenarioConfig::default()
        },
    );

    let stop = std::sync::atomic::AtomicBool::new(false);
    let (drift_fired, promoted_version, client_obs) = std::thread::scope(|s| {
        // clients hammer /match for the whole ingest + research window
        let clients: Vec<_> = (0..3)
            .map(|c: usize| {
                let stop = &stop;
                let schema = &schema;
                s.spawn(move || {
                    let mut seen: Vec<(usize, u64, u32)> = Vec::new();
                    let mut bad = 0usize;
                    let mut last_version = 0u64;
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut i = c;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let idx = i % pairs.len();
                        i += 1;
                        stream
                            .write_all(&post("/match", &pair_body(schema, &pairs[idx])))
                            .unwrap();
                        let rsp = read_one_response(&mut stream);
                        if !rsp.starts_with("HTTP/1.1 200") {
                            bad += 1;
                            continue;
                        }
                        let version = header_of(&rsp, "x-model-version")
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                        if version < last_version {
                            bad += 1; // a version rollback is a drop-equivalent defect
                        }
                        last_version = version;
                        let bits = json::parse(body_of(&rsp))
                            .unwrap()
                            .get("p_match")
                            .and_then(Json::as_f64)
                            .map(|p| (p as f32).to_bits())
                            .unwrap_or(0);
                        seen.push((idx, version, bits));
                    }
                    (bad, seen)
                })
            })
            .collect();

        // ingest the drifting stream; drift launches the background
        // re-search from inside `ingest`
        let mut drift_fired = 0usize;
        for (i, ev) in events.iter().enumerate() {
            if em.ingest(ev).expect("ingest").is_some() {
                drift_fired += 1;
            }
            if i % 32 == 31 {
                em.sync().expect("sync");
            }
        }
        em.sync().expect("sync");
        assert!(
            drift_fired > 0,
            "the drifting stream never tripped the monitor"
        );
        assert!(
            em.research_running() || !em.promotions().is_empty(),
            "drift fired but no research was launched"
        );
        // wait for the research + promotion while clients keep firing
        let record = em
            .drain()
            .expect("research/promotion failed")
            .expect("no research was in flight")
            .clone();
        // keep load on the swapped host a little longer, then stop
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let obs: ClientObs = clients
            .into_iter()
            .map(|c| {
                let (bad, seen) = c.join().unwrap();
                (bad, seen)
            })
            .collect();
        (drift_fired, record.version, obs)
    });

    assert!(drift_fired >= 1);
    assert_eq!(promoted_version, 2, "promotion must advance the version");
    assert_eq!(handle.model_version(), 2);
    let promotions = em.promotions();
    assert_eq!(promotions.len(), 1);
    assert!(promotions[0].report.val_f1.is_finite());

    // exactly-one-correct-response accounting: every 200 matches the
    // model named by its version header, bit for bit
    let host_b = load_model(&em.config().bundle_path(promotions[0].epoch))
        .expect("promoted bundle must load back");
    let offline_b: Vec<u32> = host_b
        .match_proba(pairs)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let mut total = 0usize;
    let mut v2 = 0usize;
    for (bad, seen) in &client_obs {
        assert_eq!(*bad, 0, "dropped/rolled-back responses under promotion");
        for (idx, version, bits) in seen {
            let want = match version {
                1 => offline_a[*idx],
                2 => offline_b[*idx],
                v => panic!("unknown model version {v}"),
            };
            assert_eq!(*bits, want, "cross-version response mixing");
            total += 1;
            if *version == 2 {
                v2 += 1;
            }
        }
    }
    assert!(total > 0, "clients never got a response in");
    assert!(v2 > 0, "no traffic observed on the promoted model");

    // a fresh cold start of the streaming layer replays the ledger to
    // the exact same derived state the live instance reached
    let live_digest = em.state().digest();
    let applied = em.state().applied();
    drop(em);
    let em2 = ContinuousEm::open(
        fixture_arc().spec().clone(),
        ContinuousConfig::new(dir.clone()),
        Box::new(|_| Ok(0)),
    )
    .expect("cold start");
    assert_eq!(em2.state().digest(), live_digest);
    assert_eq!(em2.state().applied(), applied);

    assert!(handle.shutdown());
    std::fs::remove_dir_all(&dir).ok();
}

/// The id-keyed cache protocol end to end through `ContinuousEm`:
/// ingesting updates invalidates exactly the touched records' vectors.
#[test]
fn continuous_ingest_invalidates_exactly_the_touched_records() {
    let _g = guard();
    let dir = tmp_dir("inval");
    let mut em = ContinuousEm::open(
        fixture_arc().spec().clone(),
        ContinuousConfig {
            drift: DriftConfig {
                window_events: usize::MAX, // never evaluate: isolate the cache
                ..DriftConfig::default()
            },
            ..ContinuousConfig::new(dir.clone())
        },
        Box::new(|_| Ok(0)),
    )
    .unwrap();
    let domain = restaurant_domain();
    let e1 = domain.generate(&mut linalg::Rng::new(1));
    let e2 = domain.generate(&mut linalg::Rng::new(2));
    em.ingest(&RecordEvent::Insert {
        side: Side::Right,
        id: 7,
        entity: e1.clone(),
    })
    .unwrap();
    // warm the id-keyed entry, then update the record
    let v_old = em
        .state()
        .encode_record(Side::Right, 7, em.cache())
        .unwrap();
    let before = em.cache().invalidations();
    em.ingest(&RecordEvent::Update {
        side: Side::Right,
        id: 7,
        entity: e2.clone(),
    })
    .unwrap();
    assert_eq!(em.cache().invalidations(), before + 1);
    let v_new = em
        .state()
        .encode_record(Side::Right, 7, em.cache())
        .unwrap();
    assert_ne!(v_old, v_new, "stale vector survived the update");
    // an update to a record whose vector was never cached is a no-op on
    // the cache (nothing to invalidate, nothing accounted)
    em.ingest(&RecordEvent::Insert {
        side: Side::Left,
        id: 8,
        entity: e1,
    })
    .unwrap();
    let mid = em.cache().invalidations();
    em.ingest(&RecordEvent::Update {
        side: Side::Left,
        id: 8,
        entity: e2,
    })
    .unwrap();
    assert_eq!(
        em.cache().invalidations(),
        mid,
        "invalidation accounted for a vector that was never cached"
    );
    // the key really is per-record: id 7's entry was repopulated above
    // and survives other records' churn
    assert_eq!(
        em.state()
            .encode_record(Side::Right, 7, em.cache())
            .unwrap(),
        v_new
    );
    let _ = record_key(Side::Right, 7); // exercised implicitly above
    em.sync().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
