//! The trial write-ahead log: crash-safe checkpointing for a search.
//!
//! Long budgeted runs (the paper's 6-hour Table 5 cells) must survive a
//! process kill without losing the whole search. Every engine submits its
//! trials through the crate-internal search driver (`journal::driver`),
//! which appends one JSONL record per planned / completed / failed trial
//! to an append-only journal and fsyncs at trial boundaries. A later run pointed at the same journal
//! ([`ResumePolicy::Resume`]) replays it instead of repeating work:
//!
//! * **Failed trials are not re-run.** Their recorded [`TrialError`] and
//!   charged budget are restored verbatim — essential for
//!   [`TrialError::DeadlineExceeded`] quarantines, whose outcome depends
//!   on a wall clock that will read differently on the resumed run, and
//!   it is what keeps an abandoned trial's charge from being
//!   double-charged.
//! * **Completed trials are re-fit but not re-charged.** The budget
//!   ledger is deterministic units, not wall-clock, so re-running a
//!   recorded trial is free *by construction*: the recorded charge is
//!   used, and the recomputed score must agree bit-for-bit with the
//!   journal (any disagreement aborts with
//!   [`TrialError::ResumeMismatch`] rather than silently diverging).
//!   Re-fitting regains the live model state (ensembles, stackers,
//!   prediction) that a journal cannot carry.
//! * **Unrecorded trials run fresh**, appending to the same journal.
//!
//! Because the whole search is deterministic at any thread count (see
//! `par`), a journal prefix written before a kill is *identical* to the
//! prefix an uninterrupted run would have written — so a resumed run's
//! [`crate::FitReport`] is byte-identical to the uninterrupted one.
//!
//! ## Journal format
//!
//! Line 1 is a header binding the journal to one search configuration:
//!
//! ```json
//! {"v":1,"engine":"AutoSklearn","seed":7,"config":"9e3779b97f4a7c15","budget_units":7.2}
//! ```
//!
//! `config` is a fingerprint of the search space and data shape; resuming
//! with a different engine, seed, budget or fingerprint is refused.
//! Subsequent lines are trial events:
//!
//! ```json
//! {"ev":"planned","trial":0,"model":"gbm[...]","cost":1.23}
//! {"ev":"done","trial":0,"model":"gbm[...]","val_f1":71.5,"charged":1.23}
//! {"ev":"failed","trial":1,"model":"knn[...]","kind":"fit_panic","a":"boom","charged":0.9}
//! ```
//!
//! Recovery tolerates a torn tail: the journal is truncated to the last
//! fully parseable line before appending resumes — exactly the state an
//! fsync-at-trial-boundary WAL guarantees after a mid-write crash.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::budget::Budget;
use ml::TrialError;
use obs::json::{Json, Obj};
use par::{CancelToken, Deadline};

pub(crate) mod driver;

/// Journal format version written into (and required of) the header.
const JOURNAL_VERSION: u64 = 1;

/// How a search relates to an on-disk journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumePolicy {
    /// No journal: the search runs exactly as it did before this module
    /// existed. The production default.
    Fresh,
    /// Write a new journal at this path (truncating any existing file),
    /// but do not replay anything.
    Checkpoint(PathBuf),
    /// Replay the journal at this path if it exists (verifying
    /// compatibility), then continue appending to it. A missing file
    /// behaves like [`ResumePolicy::Checkpoint`] — so one policy works
    /// for both the first attempt and every retry.
    Resume(PathBuf),
}

impl ResumePolicy {
    /// The journal path, if the policy involves one.
    pub fn journal_path(&self) -> Option<&Path> {
        match self {
            ResumePolicy::Fresh => None,
            ResumePolicy::Checkpoint(p) | ResumePolicy::Resume(p) => Some(p),
        }
    }
}

/// A trial outcome reconstructed from the journal.
#[derive(Debug, Clone, PartialEq)]
enum Recorded {
    /// The trial completed; `val_f1` and the charged units were recorded.
    Done { val_f1: f64, charged: f64 },
    /// The trial failed; the error and the charged units were recorded.
    Failed { error: TrialError, charged: f64 },
}

impl Recorded {
    fn charged(&self) -> f64 {
        match self {
            Recorded::Done { charged, .. } | Recorded::Failed { charged, .. } => *charged,
        }
    }
}

/// Fingerprint of a search configuration: the shared WAL fingerprint
/// primitive ([`obs::wal::fnv1a_hex`]).
fn config_fingerprint(parts: &[&str]) -> String {
    obs::wal::fnv1a_hex(parts)
}

fn encode_error(o: &mut Obj, e: &TrialError) {
    o.str("kind", e.kind());
    match e {
        TrialError::NonFiniteScore { stage } => {
            o.str("a", stage);
        }
        TrialError::DegenerateInput(s)
        | TrialError::FitPanic(s)
        | TrialError::InvalidBudget(s)
        | TrialError::ResumeMismatch(s)
        | TrialError::JournalIo(s) => {
            o.str("a", s);
        }
        TrialError::BudgetExceeded { needed, remaining } => {
            o.str("a", needed).str("b", remaining);
        }
        TrialError::Injected(s) => {
            o.str("a", s);
        }
        TrialError::AllTrialsFailed { attempted } => {
            o.u64("a_n", *attempted as u64);
        }
        TrialError::DeadlineExceeded => {}
    }
}

fn decode_error(v: &Json) -> Option<TrialError> {
    let kind = v.get("kind")?.as_str()?;
    let a = || v.get("a").and_then(Json::as_str).map(str::to_owned);
    Some(match kind {
        "non_finite_score" => TrialError::NonFiniteScore {
            // `stage` is `&'static str`; map back onto the known stages.
            stage: match v.get("a").and_then(Json::as_str) {
                Some("probability") => "probability",
                _ => "score",
            },
        },
        "degenerate_input" => TrialError::DegenerateInput(a()?),
        "budget_exceeded" => TrialError::BudgetExceeded {
            needed: a()?,
            remaining: v.get("b")?.as_str()?.to_owned(),
        },
        "fit_panic" => TrialError::FitPanic(a()?),
        "invalid_budget" => TrialError::InvalidBudget(a()?),
        // `Injected` is `&'static str`; the only value the fault layer
        // produces is "trial failure".
        "injected" => TrialError::Injected("trial failure"),
        "all_trials_failed" => TrialError::AllTrialsFailed {
            attempted: v.get("a_n")?.as_u64()? as usize,
        },
        "deadline_exceeded" => TrialError::DeadlineExceeded,
        "resume_mismatch" => TrialError::ResumeMismatch(a()?),
        "journal_io" => TrialError::JournalIo(a()?),
        _ => return None,
    })
}

/// Append-side of the WAL. I/O errors after a successful open degrade
/// loudly but non-fatally: the search continues *unjournaled* (a crashed
/// disk should cost the checkpoint, not the run) with a stderr warning
/// and an `obs` event.
struct JournalWriter {
    file: File,
    path: PathBuf,
    dead: bool,
}

impl JournalWriter {
    fn append(&mut self, line: &str) {
        if self.dead {
            return;
        }
        if let Err(e) = self.file.write_all(format!("{line}\n").as_bytes()) {
            self.disable("append", &e);
        }
    }

    fn sync(&mut self) {
        if self.dead {
            return;
        }
        // fsync is the journal's dominant cost; book it to the ledger so
        // "where the budget went" tables show WAL durability overhead
        let _t = obs::ledger::phase("journal_fsync");
        if let Err(e) = self.file.sync_data() {
            self.disable("fsync", &e);
        }
    }

    fn disable(&mut self, op: &str, e: &std::io::Error) {
        eprintln!(
            "warning: search journal {} disabled after {op} error: {e}; \
             the search continues without checkpointing",
            self.path.display()
        );
        obs::emit(
            "journal.error",
            &[
                ("path", obs::Value::Str(self.path.display().to_string())),
                ("op", obs::Value::Str(op.to_owned())),
                ("error", obs::Value::Str(e.to_string())),
            ],
        );
        self.dead = true;
    }
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> TrialError {
    TrialError::JournalIo(format!("{what} {}: {e}", path.display()))
}

/// Parse the journal bytes into (header, outcomes, end-of-good-data).
///
/// The torn-tail scan is the shared [`obs::wal::scan_jsonl`]; on top of
/// it this stops at the first structurally valid line that is not a
/// journal record, so `good_end` is the byte offset the file must be
/// truncated to before appending resumes.
#[allow(clippy::type_complexity)]
fn replay_bytes(bytes: &[u8]) -> (Option<Json>, BTreeMap<u64, Recorded>, usize) {
    let mut header = None;
    let mut outcomes = BTreeMap::new();
    let mut good_end = 0usize;
    for line in obs::wal::scan_jsonl(bytes) {
        if header.is_none() {
            header = Some(line.value);
        } else if let Some((trial, outcome)) = decode_trial_line(&line.value) {
            if let Some(outcome) = outcome {
                outcomes.insert(trial, outcome);
            }
        } else {
            break; // structurally valid JSON that isn't a journal record
        }
        good_end = line.end;
    }
    (header, outcomes, good_end)
}

/// Decode one post-header line: `Some((trial, None))` for a `planned`
/// record, `Some((trial, Some(..)))` for an outcome, `None` for garbage.
fn decode_trial_line(v: &Json) -> Option<(u64, Option<Recorded>)> {
    let ev = v.get("ev")?.as_str()?;
    let trial = v.get("trial")?.as_u64()?;
    match ev {
        "planned" => Some((trial, None)),
        "done" => {
            let val_f1 = v.get("val_f1")?.as_f64()?;
            let charged = v.get("charged")?.as_f64()?;
            Some((trial, Some(Recorded::Done { val_f1, charged })))
        }
        "failed" => {
            let error = decode_error(v)?;
            let charged = v.get("charged")?.as_f64()?;
            Some((trial, Some(Recorded::Failed { error, charged })))
        }
        _ => None,
    }
}

/// Per-`fit` crash-safety state: the journal writer, the replay map
/// reconstructed from a prior run, and the wall-clock deadline.
///
/// Private to this module and the search driver, which owns the only
/// instance per `fit`; with [`ResumePolicy::Fresh`] and no deadline every
/// method is a cheap no-op.
struct SearchRun {
    engine: &'static str,
    deadline: Deadline,
    token: CancelToken,
    journal: Option<JournalWriter>,
    outcomes: BTreeMap<u64, Recorded>,
    replayed: usize,
    deadline_noted: bool,
}

impl SearchRun {
    /// Open (or replay) the journal for one `fit` call.
    ///
    /// `config_parts` fingerprint the search space and data shape; a
    /// journal whose header disagrees on engine, seed, budget or
    /// fingerprint is refused with [`TrialError::ResumeMismatch`].
    fn start(
        engine: &'static str,
        seed: u64,
        budget: &Budget,
        config_parts: &[&str],
        policy: &ResumePolicy,
        deadline: Deadline,
    ) -> Result<Self, TrialError> {
        let config = config_fingerprint(config_parts);
        let mut run = SearchRun {
            engine,
            deadline,
            token: deadline.token(),
            journal: None,
            outcomes: BTreeMap::new(),
            replayed: 0,
            deadline_noted: false,
        };
        match policy {
            ResumePolicy::Fresh => {}
            ResumePolicy::Resume(path) if path.exists() => {
                let (writer, outcomes, truncated) =
                    open_resume(path, engine, seed, budget, &config)?;
                run.replayed = outcomes.len();
                run.outcomes = outcomes;
                run.journal = Some(writer);
                obs::emit(
                    "journal.resume",
                    &[
                        ("engine", obs::Value::Str(engine.to_owned())),
                        ("path", obs::Value::Str(path.display().to_string())),
                        ("replayed", obs::Value::U64(run.replayed as u64)),
                        ("truncated_bytes", obs::Value::U64(truncated)),
                    ],
                );
            }
            // a missing journal under `Resume` starts one, like `Checkpoint`
            ResumePolicy::Checkpoint(path) | ResumePolicy::Resume(path) => {
                run.journal = Some(create_journal(path, engine, seed, budget, &config)?);
                obs::emit(
                    "journal.checkpoint",
                    &[
                        ("engine", obs::Value::Str(engine.to_owned())),
                        ("path", obs::Value::Str(path.display().to_string())),
                    ],
                );
            }
        }
        Ok(run)
    }

    /// How many trial outcomes were replayed from the journal (test
    /// introspection; production code reports this via the
    /// `journal.resume` obs event instead, never via the `FitReport`,
    /// which must stay byte-identical between fresh and resumed runs).
    #[cfg(test)]
    fn replayed_count(&self) -> usize {
        self.replayed
    }

    /// A clone of the run's cancellation token.
    fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// The recorded failure for `trial`, if the journal says it failed.
    fn replayed_failure(&self, trial: u64) -> Option<TrialError> {
        match self.outcomes.get(&trial) {
            Some(Recorded::Failed { error, .. }) => Some(error.clone()),
            _ => None,
        }
    }

    /// Whether the wall-clock deadline has passed.
    fn deadline_expired(&self) -> bool {
        self.deadline.expired()
    }

    /// Emit the one-shot `search.deadline` event when an engine stops
    /// early; idempotent.
    fn note_deadline(&mut self) {
        if self.deadline_noted {
            return;
        }
        self.deadline_noted = true;
        obs::counter("automl.deadline_stops").add(1);
        obs::emit(
            "search.deadline",
            &[("engine", obs::Value::Str(self.engine.to_owned()))],
        );
    }

    /// The units to charge for `trial`: the journal's recorded charge
    /// when the trial was replayed (so an inflated or abandoned trial is
    /// never double-charged), else `computed`.
    fn charge(&self, trial: u64, computed: f64) -> f64 {
        match self.outcomes.get(&trial) {
            Some(rec) => rec.charged(),
            None => computed,
        }
    }

    /// Record that `trial` has been planned (WAL intent record). Not
    /// fsync'd; call [`SearchRun::sync`] once per planning batch.
    fn note_planned(&mut self, trial: u64, model: &str, cost: f64) {
        if self.outcomes.contains_key(&trial) {
            return; // already journaled with an outcome by a prior run
        }
        if let Some(j) = self.journal.as_mut() {
            let mut o = Obj::new();
            o.str("ev", "planned")
                .u64("trial", trial)
                .str("model", model);
            o.f64("cost", cost);
            j.append(&o.finish());
        }
    }

    /// Fsync buffered journal writes (the trial-boundary barrier).
    fn sync(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.sync();
        }
    }

    /// Record a completed trial. For a replayed trial this *verifies*
    /// instead of rewriting: the recomputed score must agree bit-for-bit
    /// with the journal, otherwise the run aborts with
    /// [`TrialError::ResumeMismatch`] (a silent divergence would break
    /// the byte-identity contract).
    fn record_done(
        &mut self,
        trial: u64,
        model: &str,
        val_f1: f64,
        charged: f64,
    ) -> Result<(), TrialError> {
        match self.outcomes.get(&trial) {
            Some(Recorded::Done {
                val_f1: recorded, ..
            }) => {
                if recorded.to_bits() != val_f1.to_bits() {
                    return Err(TrialError::ResumeMismatch(format!(
                        "trial {trial} ({model}) recomputed val_f1 {val_f1} != journaled {recorded}; \
                         the search is not deterministic w.r.t. the journal"
                    )));
                }
                Ok(())
            }
            Some(Recorded::Failed { .. }) => Err(TrialError::ResumeMismatch(format!(
                "trial {trial} ({model}) completed on replay but the journal records a failure"
            ))),
            None => {
                if let Some(j) = self.journal.as_mut() {
                    let mut o = Obj::new();
                    o.str("ev", "done").u64("trial", trial).str("model", model);
                    o.f64("val_f1", val_f1).f64("charged", charged);
                    j.append(&o.finish());
                    j.sync();
                }
                Ok(())
            }
        }
    }

    /// Record a failed (quarantined) trial and its charged units.
    /// Replayed failures are verified for agreement the same way
    /// completed trials are.
    fn record_failed(
        &mut self,
        trial: u64,
        model: &str,
        error: &TrialError,
        charged: f64,
    ) -> Result<(), TrialError> {
        match self.outcomes.get(&trial) {
            Some(Recorded::Failed {
                error: recorded, ..
            }) => {
                if recorded != error {
                    return Err(TrialError::ResumeMismatch(format!(
                        "trial {trial} ({model}) replayed failure '{error}' != journaled '{recorded}'"
                    )));
                }
                Ok(())
            }
            Some(Recorded::Done { .. }) => Err(TrialError::ResumeMismatch(format!(
                "trial {trial} ({model}) failed on replay but the journal records a success"
            ))),
            None => {
                if let Some(j) = self.journal.as_mut() {
                    let mut o = Obj::new();
                    o.str("ev", "failed")
                        .u64("trial", trial)
                        .str("model", model);
                    encode_error(&mut o, error);
                    o.f64("charged", charged);
                    j.append(&o.finish());
                    j.sync();
                }
                Ok(())
            }
        }
    }
}

fn header_line(engine: &str, seed: u64, budget: &Budget, config: &str) -> String {
    let mut o = Obj::new();
    o.u64("v", JOURNAL_VERSION)
        .str("engine", engine)
        .u64("seed", seed)
        .str("config", config)
        .f64("budget_units", budget.limit_units());
    o.finish()
}

fn create_journal(
    path: &Path,
    engine: &str,
    seed: u64,
    budget: &Budget,
    config: &str,
) -> Result<JournalWriter, TrialError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create journal dir", &e))?;
        }
    }
    let file = File::create(path).map_err(|e| io_err(path, "create journal", &e))?;
    let mut writer = JournalWriter {
        file,
        path: path.to_owned(),
        dead: false,
    };
    writer.append(&header_line(engine, seed, budget, config));
    writer.sync();
    Ok(writer)
}

#[allow(clippy::type_complexity)]
fn open_resume(
    path: &Path,
    engine: &str,
    seed: u64,
    budget: &Budget,
    config: &str,
) -> Result<(JournalWriter, BTreeMap<u64, Recorded>, u64), TrialError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, "read journal", &e))?;
    let (header, outcomes, good_end) = replay_bytes(&bytes);
    let truncated = (bytes.len() - good_end) as u64;
    match header {
        None => {
            // Nothing usable (empty file or torn header): start over.
            let writer = create_journal(path, engine, seed, budget, config)?;
            return Ok((writer, BTreeMap::new(), truncated));
        }
        Some(h) => {
            let mismatch = |what: &str, want: &str, got: &str| {
                TrialError::ResumeMismatch(format!(
                    "journal {} was written for {what} {got}, this run is {what} {want}; \
                     refusing to mix searches",
                    path.display()
                ))
            };
            if h.get("v").and_then(Json::as_u64) != Some(JOURNAL_VERSION) {
                return Err(TrialError::ResumeMismatch(format!(
                    "journal {} has unsupported version {:?}",
                    path.display(),
                    h.get("v")
                )));
            }
            let j_engine = h.get("engine").and_then(Json::as_str).unwrap_or("?");
            if j_engine != engine {
                return Err(mismatch("engine", engine, j_engine));
            }
            let j_seed = h.get("seed").and_then(Json::as_u64);
            if j_seed != Some(seed) {
                return Err(mismatch(
                    "seed",
                    &seed.to_string(),
                    &j_seed.map_or_else(|| "?".into(), |s| s.to_string()),
                ));
            }
            let j_config = h.get("config").and_then(Json::as_str).unwrap_or("?");
            if j_config != config {
                return Err(mismatch("search-space fingerprint", config, j_config));
            }
            let j_budget = h.get("budget_units").and_then(Json::as_f64);
            if j_budget.map(f64::to_bits) != Some(budget.limit_units().to_bits()) {
                return Err(mismatch(
                    "budget (units)",
                    &budget.limit_units().to_string(),
                    &j_budget.map_or_else(|| "?".into(), |b| b.to_string()),
                ));
            }
        }
    }
    if truncated > 0 {
        eprintln!(
            "warning: search journal {} had a torn tail; truncating {truncated} byte(s) \
             back to the last complete record",
            path.display()
        );
        obs::wal::truncate_to(path, good_end as u64)
            .map_err(|e| io_err(path, "truncate torn journal tail", &e))?;
    }
    let file = OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, "open journal for append", &e))?;
    Ok((
        JournalWriter {
            file,
            path: path.to_owned(),
            dead: false,
        },
        outcomes,
        truncated,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "automl_em_journal_{}_{}_{name}.jsonl",
            std::process::id(),
            n
        ))
    }

    fn budget() -> Budget {
        Budget::hours(0.5).expect("valid budget")
    }

    #[test]
    fn fingerprint_is_stable_and_separator_safe() {
        let a = config_fingerprint(&["ab", "c"]);
        let b = config_fingerprint(&["a", "bc"]);
        assert_ne!(a, b);
        assert_eq!(a, config_fingerprint(&["ab", "c"]));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn errors_roundtrip_through_the_journal_codec() {
        let errors = [
            TrialError::NonFiniteScore { stage: "score" },
            TrialError::NonFiniteScore {
                stage: "probability",
            },
            TrialError::DegenerateInput("x\"y\n".into()),
            TrialError::budget_exceeded(2.0, 0.5),
            TrialError::FitPanic("boom".into()),
            TrialError::InvalidBudget("bad".into()),
            TrialError::Injected("trial failure"),
            TrialError::AllTrialsFailed { attempted: 7 },
            TrialError::DeadlineExceeded,
            TrialError::ResumeMismatch("m".into()),
            TrialError::JournalIo("io".into()),
        ];
        for e in errors {
            let mut o = Obj::new();
            encode_error(&mut o, &e);
            let v = obs::json::parse(&o.finish()).expect("valid json");
            assert_eq!(decode_error(&v).as_ref(), Some(&e), "{e:?}");
        }
    }

    #[test]
    fn fresh_policy_is_inert() {
        let run = SearchRun::start(
            "X",
            1,
            &budget(),
            &["p"],
            &ResumePolicy::Fresh,
            Deadline::none(),
        )
        .expect("fresh run");
        assert_eq!(run.replayed_count(), 0);
        assert!(run.replayed_failure(0).is_none());
        assert_eq!(run.charge(0, 1.5), 1.5);
        assert!(!run.deadline_expired());
    }

    #[test]
    fn checkpoint_then_resume_replays_outcomes_and_charges() {
        let path = tmp("roundtrip");
        let mut run = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Checkpoint(path.clone()),
            Deadline::none(),
        )
        .expect("checkpoint");
        run.note_planned(0, "m0", 1.0);
        run.note_planned(1, "m1", 2.0);
        run.sync();
        run.record_done(0, "m0", 71.25, 1.0).expect("done");
        run.record_failed(1, "m1", &TrialError::DeadlineExceeded, 0.75)
            .expect("failed");
        drop(run);

        let run2 = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Resume(path.clone()),
            Deadline::none(),
        )
        .expect("resume");
        assert_eq!(run2.replayed_count(), 2);
        assert_eq!(run2.replayed_failure(0), None);
        assert_eq!(run2.replayed_failure(1), Some(TrialError::DeadlineExceeded));
        // recorded charges win over recomputed ones — no double-charging
        assert_eq!(run2.charge(0, 99.0), 1.0);
        assert_eq!(run2.charge(1, 99.0), 0.75);
        // unrecorded trials charge what the engine computes
        assert_eq!(run2.charge(2, 3.25), 3.25);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_verifies_recomputed_scores_bit_for_bit() {
        let path = tmp("verify");
        let mut run = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Checkpoint(path.clone()),
            Deadline::none(),
        )
        .expect("checkpoint");
        run.record_done(0, "m0", 71.25, 1.0).expect("done");
        drop(run);
        let mut run2 = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Resume(path.clone()),
            Deadline::none(),
        )
        .expect("resume");
        assert!(run2.record_done(0, "m0", 71.25, 1.0).is_ok());
        let err = run2.record_done(0, "m0", 71.26, 1.0).unwrap_err();
        assert_eq!(err.kind(), "resume_mismatch");
        let err = run2
            .record_failed(0, "m0", &TrialError::DeadlineExceeded, 0.0)
            .unwrap_err();
        assert_eq!(err.kind(), "resume_mismatch");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_changed_configuration() {
        let path = tmp("config");
        drop(
            SearchRun::start(
                "X",
                7,
                &budget(),
                &["space-v1"],
                &ResumePolicy::Checkpoint(path.clone()),
                Deadline::none(),
            )
            .expect("checkpoint"),
        );
        for (engine, seed, hours, parts) in [
            ("Y", 7u64, 0.5f64, "space-v1"),
            ("X", 8, 0.5, "space-v1"),
            ("X", 7, 0.6, "space-v1"),
            ("X", 7, 0.5, "space-v2"),
        ] {
            let err = SearchRun::start(
                engine,
                seed,
                &Budget::hours(hours).expect("valid"),
                &[parts],
                &ResumePolicy::Resume(path.clone()),
                Deadline::none(),
            )
            .err()
            .unwrap_or_else(|| panic!("{engine}/{seed}/{hours}/{parts} must be refused"));
            assert_eq!(err.kind(), "resume_mismatch");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let path = tmp("torn");
        let mut run = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Checkpoint(path.clone()),
            Deadline::none(),
        )
        .expect("checkpoint");
        run.record_done(0, "m0", 50.0, 1.0).expect("done");
        drop(run);
        // simulate a mid-write crash: a torn, newline-less partial record
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"{\"ev\":\"done\",\"trial\":1,\"val_")
                .expect("tear");
        }
        let mut run2 = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Resume(path.clone()),
            Deadline::none(),
        )
        .expect("resume past torn tail");
        assert_eq!(run2.replayed_count(), 1);
        // the torn record is gone; trial 1 runs fresh and appends cleanly
        run2.record_done(1, "m1", 60.0, 2.0)
            .expect("append after truncation");
        drop(run2);
        let run3 = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Resume(path.clone()),
            Deadline::none(),
        )
        .expect("second resume");
        assert_eq!(run3.replayed_count(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_of_missing_file_checkpoints_fresh() {
        let path = tmp("missing");
        std::fs::remove_file(&path).ok();
        let run = SearchRun::start(
            "X",
            7,
            &budget(),
            &["space"],
            &ResumePolicy::Resume(path.clone()),
            Deadline::none(),
        )
        .expect("fresh via resume");
        assert_eq!(run.replayed_count(), 0);
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
