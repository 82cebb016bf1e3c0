//! Fault-tolerance contract: a poisoned trial must never take down a run.
//!
//! Each AutoML engine is fitted with deterministic faults injected at
//! exact trial indices — NaN scores, mid-fit panics, hard failures,
//! inflated costs — and must (a) complete the search, (b) quarantine the
//! poisoned candidate on the leaderboard with its failure reason, (c)
//! surface the failure in the obs trial stream, and (d) stay byte-
//! identical across thread counts even while failing.
//!
//! The thread override and the obs event ring are process-global, so the
//! engine tests serialize on one lock (this binary is its own process;
//! other test binaries are unaffected).

use automl::fault::silence_injected_panic_output;
use automl::gluon_like::AutoGluonStyle;
use automl::h2o_like::H2oStyle;
use automl::halving::SuccessiveHalving;
use automl::sklearn_like::AutoSklearnStyle;
use automl::{AutoMlSystem, Budget, Deadline, Fault, FaultPlan, FitReport, ResumePolicy};
use linalg::{Matrix, Rng};
use ml::calibrate::{average_precision, pr_curve, PlattScaler};
use ml::dataset::TabularData;
use ml::metrics::{best_f1_threshold, f1_at_threshold, roc_auc};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes tests that flip the global `par` thread override or read
/// the global obs event ring.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn blob_data(n: usize, seed: u64) -> TabularData {
    let mut rng = Rng::new(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let pos = rng.chance(0.3);
        let c = if pos { 1.1f32 } else { -1.1 };
        rows.push(vec![c + rng.normal(), -c + rng.normal(), rng.normal()]);
        y.push(if pos { 1.0 } else { 0.0 });
    }
    TabularData::new(Matrix::from_rows(&rows), y)
}

type MakeEngine = fn(FaultPlan) -> Box<dyn AutoMlSystem>;

/// Every engine, constructible with an explicit fault plan.
fn engines() -> Vec<(&'static str, MakeEngine)> {
    vec![
        ("AutoSklearn", |p| {
            Box::new(AutoSklearnStyle::with_faults(7, p))
        }),
        ("AutoGluon", |p| Box::new(AutoGluonStyle::with_faults(7, p))),
        ("H2OAutoML", |p| Box::new(H2oStyle::with_faults(7, p))),
        ("SuccessiveHalving", |p| {
            Box::new(SuccessiveHalving::with_faults(7, p))
        }),
    ]
}

fn fit_with(make: MakeEngine, plan: FaultPlan, hours: f64) -> (FitReport, Vec<f32>) {
    let train = blob_data(220, 31);
    let valid = blob_data(80, 32);
    let mut sys = make(plan);
    let mut budget = Budget::hours(hours).unwrap();
    let report = sys.fit(&train, &valid, &mut budget).unwrap();
    let probs = sys.predict_proba(&valid.x);
    (report, probs)
}

/// [`fit_with`] through the crash-safe entry point.
fn fit_resumable_with(
    make: MakeEngine,
    plan: FaultPlan,
    hours: f64,
    policy: &ResumePolicy,
    deadline: Deadline,
) -> Result<(FitReport, Vec<f32>), automl::TrialError> {
    let train = blob_data(220, 31);
    let valid = blob_data(80, 32);
    let mut sys = make(plan);
    let mut budget = Budget::hours(hours).unwrap();
    let report = sys.fit_resumable(&train, &valid, &mut budget, policy, deadline)?;
    let probs = sys.predict_proba(&valid.x);
    Ok((report, probs))
}

/// Unique scratch journal path for one test scenario.
fn tmp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "em_fault_tolerance_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// The shared contract: the run completes, the poisoned candidate is on
/// the leaderboard as a failure with the expected reason, it never wins,
/// and the obs trial stream carries the error.
fn poisoned_run_is_quarantined(fault: Fault, expected_kind: &str) {
    let _g = guard();
    silence_injected_panic_output();
    for (name, make) in engines() {
        obs::reset();
        let (report, probs) = fit_with(make, FaultPlan::none().inject(1, fault), 0.4);

        let failed = report.failed_trials();
        assert!(
            !failed.is_empty(),
            "{name}: injected fault left no failed trial on the leaderboard"
        );
        for entry in &failed {
            let err = entry.error.as_ref().unwrap();
            assert_eq!(err.kind(), expected_kind, "{name}: wrong failure reason");
            assert_eq!(
                entry.val_f1,
                f64::NEG_INFINITY,
                "{name}: failed entry must score -inf, never NaN"
            );
        }
        // the run still produced a usable predictor from the survivors
        let best = report.leaderboard.best().unwrap();
        assert!(best.succeeded(), "{name}: a failed trial won the board");
        assert!(
            report.leaderboard.len() > report.leaderboard.n_failed(),
            "{name}: no surviving trials"
        );
        assert!(report.val_f1.is_finite(), "{name}: non-finite run score");
        assert!(
            probs.iter().all(|p| p.is_finite()),
            "{name}: non-finite predictions after quarantine"
        );
        // the failure is visible in the telemetry stream too
        let events = obs::recent_trials(Some(name));
        let errored: Vec<_> = events.iter().filter(|e| e.error.is_some()).collect();
        assert!(
            !errored.is_empty(),
            "{name}: no errored trial event in the obs stream"
        );
        assert!(
            errored
                .iter()
                .all(|e| e.val_f1 == f64::NEG_INFINITY && !e.val_f1.is_nan()),
            "{name}: errored events must carry -inf scores"
        );
    }
}

#[test]
fn nan_poisoned_trial_is_quarantined_and_run_completes() {
    poisoned_run_is_quarantined(Fault::NanScore, "non_finite_score");
}

#[test]
fn panicking_trial_is_quarantined_and_run_completes() {
    poisoned_run_is_quarantined(Fault::Panic, "fit_panic");
}

#[test]
fn failing_trial_is_quarantined_and_run_completes() {
    poisoned_run_is_quarantined(Fault::Fail, "injected");
}

#[test]
fn faulted_reports_are_thread_count_invariant() {
    // the acceptance bar: byte-identical FitReports at 1 and 4 workers
    // *while trials are failing* — a lost worker or a reordered failure
    // would show up here
    let _g = guard();
    silence_injected_panic_output();
    let plan = || {
        FaultPlan::none()
            .inject(0, Fault::Fail)
            .inject(1, Fault::NanScore)
            .inject(2, Fault::Panic)
            .inject(3, Fault::InflateCost(2.5))
    };
    for (name, make) in engines() {
        // enough budget that every engine retains at least one survivor
        par::set_threads(1);
        let (r1, p1) = fit_with(make, plan(), 1.0);
        par::reset_threads();
        par::set_threads(4);
        let (r4, p4) = fit_with(make, plan(), 1.0);
        par::reset_threads();
        assert_eq!(
            r1, r4,
            "{name}: faulted FitReport differs across thread counts"
        );
        assert_eq!(
            p1, p4,
            "{name}: faulted predictions differ across thread counts"
        );
        assert!(
            r1.leaderboard.n_failed() >= 1,
            "{name}: plan injected nothing"
        );
    }
}

/// The leaderboard, the obs trial stream and the journal's outcome records
/// all come from the one search driver: under faults they must name the
/// same models, with the same charges, in the same order, and failures
/// must score `-inf` (never NaN).
#[test]
fn leaderboard_trial_events_and_journal_agree_under_faults() {
    let _g = guard();
    silence_injected_panic_output();
    for (name, make) in engines() {
        obs::reset();
        let path = tmp_journal(&format!("streams_{name}"));
        let plan = FaultPlan::none()
            .inject(1, Fault::Fail)
            .inject(2, Fault::InflateCost(2.5));
        let (report, _) = fit_resumable_with(
            make,
            plan,
            1.0,
            &ResumePolicy::Checkpoint(path.clone()),
            Deadline::none(),
        )
        .unwrap_or_else(|e| panic!("{name}: faulted run failed: {e}"));

        let board: Vec<(String, f64, f64)> = report
            .leaderboard
            .entries()
            .iter()
            .map(|e| (e.model.clone(), e.val_f1, e.cost_units))
            .collect();
        let events: Vec<(String, f64, f64)> = obs::recent_trials(Some(name))
            .into_iter()
            .map(|e| (e.model, e.val_f1, e.cost_units))
            .collect();
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<obs::json::Json> = text
            .lines()
            .skip(1) // header
            .map(|l| obs::json::parse(l).unwrap())
            .collect();
        let field = |r: &obs::json::Json, k: &str| r.get(k).and_then(|v| v.as_f64()).unwrap();
        let journal: Vec<(String, f64, f64)> = records
            .iter()
            .filter_map(|r| {
                let val_f1 = match r.get("ev")?.as_str()? {
                    "done" => field(r, "val_f1"),
                    "failed" => f64::NEG_INFINITY,
                    _ => return None,
                };
                let model = r.get("model")?.as_str()?.to_owned();
                Some((model, val_f1, field(r, "charged")))
            })
            .collect();
        assert!(board.len() > 2, "{name}: the faulted trials never ran");
        assert_eq!(board, events, "{name}: leaderboard vs trial events");
        assert_eq!(board, journal, "{name}: leaderboard vs journal outcomes");

        assert_eq!(board[1].1, f64::NEG_INFINITY, "{name}: trial 1 must fail");
        assert_eq!(report.failed_trials().len(), 1, "{name}: one failure");
        let planned_cost = records
            .iter()
            .find(|r| {
                r.get("ev").and_then(|v| v.as_str()) == Some("planned")
                    && r.get("trial").and_then(|v| v.as_u64()) == Some(2)
            })
            .map(|r| field(r, "cost"))
            .unwrap();
        assert_eq!(
            board[2].2,
            planned_cost * 2.5,
            "{name}: trial 2 must be charged its inflated cost"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// `with_faults` uses the plan it is given: building an engine with an
/// explicit plan must not parse `AUTOML_EM_FAULTS`, whose malformed values
/// exit the process. Re-executes this test binary with a malformed spec;
/// the child builds every engine and must exit cleanly.
#[test]
fn with_faults_ignores_the_fault_environment() {
    const CHILD: &str = "EM_FAULT_ENV_CHILD";
    if std::env::var_os(CHILD).is_some() {
        for (_, make) in engines() {
            drop(make(FaultPlan::none()));
        }
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "with_faults_ignores_the_fault_environment",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .env("AUTOML_EM_FAULTS", "panic@x")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child exited with {:?}: {stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 passed"), "child ran no test: {stdout}");
}

#[test]
fn inflated_cost_is_charged_to_the_trial() {
    let _g = guard();
    for (name, make) in engines() {
        let (base, _) = fit_with(make, FaultPlan::none(), 0.4);
        let (inflated, _) = fit_with(
            make,
            FaultPlan::none().inject(0, Fault::InflateCost(3.0)),
            0.4,
        );
        let b0 = &base.leaderboard.entries()[0];
        let i0 = &inflated.leaderboard.entries()[0];
        assert!(
            (i0.cost_units - b0.cost_units * 3.0).abs() < 1e-9,
            "{name}: trial 0 charged {} units, expected {}",
            i0.cost_units,
            b0.cost_units * 3.0
        );
        assert!(
            i0.succeeded(),
            "{name}: cost inflation must not fail the trial"
        );
    }
}

#[test]
fn all_trials_failing_is_a_typed_run_error_not_a_panic() {
    let _g = guard();
    // fail every trial the engines could possibly plan under this budget
    let mut plan = FaultPlan::none();
    for i in 0..512 {
        plan = plan.inject(i, Fault::Fail);
    }
    for (name, make) in engines() {
        let train = blob_data(220, 31);
        let valid = blob_data(80, 32);
        let mut sys = make(plan.clone());
        let mut budget = Budget::hours(0.4).unwrap();
        match sys.fit(&train, &valid, &mut budget) {
            Err(err) => assert_eq!(err.kind(), "all_trials_failed", "{name}"),
            // AutoGluon deliberately degrades to a majority-class
            // constant predictor instead of erroring
            Ok(report) => {
                assert_eq!(name, "AutoGluon", "{name}: expected a run error");
                assert!(
                    report.val_f1.is_finite(),
                    "{name}: fallback must score finitely"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Metric-level properties: poisoned probabilities and degenerate labels
// must never panic or hang the scoring path.
// ---------------------------------------------------------------------------

fn poisoned_probs(seed: u64) -> (Vec<f32>, Vec<bool>) {
    let mut rng = Rng::new(seed);
    let n = 40 + rng.below(60);
    let mut probs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let p = match rng.below(8) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => rng.f64() as f32,
        };
        probs.push(p);
        labels.push(i % 3 == 0);
    }
    (probs, labels)
}

#[test]
fn metrics_survive_non_finite_probabilities() {
    for seed in 0..32u64 {
        let (probs, labels) = poisoned_probs(seed);
        // none of these may panic or loop forever; scores that come back
        // must be usable (finite or at worst NaN — never an abort)
        let (thr, f1) = best_f1_threshold(&probs, &labels);
        assert!(!f1.is_infinite(), "seed {seed}: infinite F1");
        let _ = f1_at_threshold(&probs, &labels, thr);
        let _ = roc_auc(&probs, &labels);
        let _ = average_precision(&probs, &labels);
        let curve = pr_curve(&probs, &labels);
        assert!(
            curve.len() <= probs.len() + 2,
            "seed {seed}: runaway PR curve"
        );
        let scaler = PlattScaler::fit(&probs, &labels);
        for p in scaler.transform(&probs) {
            assert!(!p.is_infinite(), "seed {seed}: calibration blew up");
        }
    }
}

#[test]
fn metrics_survive_single_class_labels() {
    let mut rng = Rng::new(99);
    let probs: Vec<f32> = (0..50).map(|_| rng.f64() as f32).collect();
    for constant in [false, true] {
        let labels = vec![constant; probs.len()];
        let (thr, f1) = best_f1_threshold(&probs, &labels);
        assert!(
            f1.is_finite(),
            "single-class F1 must follow the 0.0 convention"
        );
        assert!(f1_at_threshold(&probs, &labels, thr).is_finite());
        assert!(!average_precision(&probs, &labels).is_infinite());
        let _ = roc_auc(&probs, &labels);
        let _ = pr_curve(&probs, &labels);
        let scaler = PlattScaler::fit(&probs, &labels);
        assert!(scaler.transform(&probs).iter().all(|p| !p.is_infinite()));
    }
}

#[test]
fn engines_survive_single_class_training_data() {
    let _g = guard();
    // all-negative training labels: every fold and threshold sweep sees
    // one class; the run must end in Ok or a typed error, never a panic
    let mut rng = Rng::new(5);
    let rows: Vec<Vec<f32>> = (0..120)
        .map(|_| vec![rng.normal(), rng.normal(), rng.normal()])
        .collect();
    let train = TabularData::new(Matrix::from_rows(&rows), vec![0.0; 120]);
    let valid = blob_data(60, 6);
    for (name, make) in engines() {
        let mut sys = make(FaultPlan::none());
        let mut budget = Budget::hours(0.2).unwrap();
        if let Ok(report) = sys.fit(&train, &valid, &mut budget) {
            assert!(
                report.val_f1.is_finite(),
                "{name}: NaN leaked into the report"
            );
            assert!(
                report
                    .leaderboard
                    .entries()
                    .iter()
                    .all(|e| !e.val_f1.is_nan()),
                "{name}: NaN on the leaderboard"
            );
        }
    }
}

#[test]
fn fault_plan_env_spec_matches_builder() {
    // the documented EXPERIMENTS.md reproduction spec parses to the same
    // plan the tests build programmatically
    let parsed = FaultPlan::parse("fail@0, nan@1, panic@2, cost@3=2.5, hang@4, kill@5");
    let built = FaultPlan::none()
        .inject(0, Fault::Fail)
        .inject(1, Fault::NanScore)
        .inject(2, Fault::Panic)
        .inject(3, Fault::InflateCost(2.5))
        .inject(4, Fault::Hang)
        .inject(5, Fault::Kill);
    assert_eq!(parsed, Ok(built));
}

// ---------------------------------------------------------------------------
// Crash safety: kill-and-resume byte-identity, deadline-bounded anytime
// results, and journaled budget accounting.
// ---------------------------------------------------------------------------

/// The tentpole acceptance bar: for every engine, a search SIGKILL'd (in
/// process: an unwinding abort outside the trial boundary) after K trials
/// and then resumed from its journal must produce a `FitReport` — and
/// predictions — byte-identical to the run that was never interrupted, at
/// 1 and at 4 threads.
#[test]
fn kill_and_resume_is_byte_identical_to_the_uninterrupted_run() {
    let _g = guard();
    silence_injected_panic_output();
    for threads in [1usize, 4] {
        par::set_threads(threads);
        for (name, make) in engines() {
            let (baseline, base_probs) = fit_with(make, FaultPlan::none(), 0.6);
            let planned = baseline.leaderboard.len() as u64;
            // kill early (first parallel batch, nothing journaled yet) and
            // late (prior batches already journaled, so resume must replay)
            let mut kills = vec![1u64];
            if planned > 3 {
                kills.push(planned - 2);
            }
            for k in kills {
                let path = tmp_journal(&format!("kill_{name}_{threads}t_{k}"));
                let _ = std::fs::remove_file(&path);
                let policy = ResumePolicy::Resume(path.clone());
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    fit_resumable_with(
                        make,
                        FaultPlan::none().inject(k, Fault::Kill),
                        0.6,
                        &policy,
                        Deadline::none(),
                    )
                }));
                assert!(
                    unwound.is_err(),
                    "{name}@{threads}t: kill@{k} did not abort the search"
                );
                assert!(
                    path.exists(),
                    "{name}@{threads}t: no journal survived the kill"
                );
                let (resumed, resumed_probs) =
                    fit_resumable_with(make, FaultPlan::none(), 0.6, &policy, Deadline::none())
                        .unwrap_or_else(|e| panic!("{name}@{threads}t: resume failed: {e}"));
                assert_eq!(
                    baseline, resumed,
                    "{name}@{threads}t: kill@{k} resumed FitReport differs from uninterrupted"
                );
                assert_eq!(
                    base_probs, resumed_probs,
                    "{name}@{threads}t: kill@{k} resumed predictions differ"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
        par::reset_threads();
    }
}

/// Resume equivalence must also hold while *other* faults are firing: a
/// quarantined failure recorded before the kill is replayed from the
/// journal (never re-run), and an inflated charge is restored verbatim.
#[test]
fn kill_and_resume_replays_failures_and_charges_under_concurrent_faults() {
    let _g = guard();
    silence_injected_panic_output();
    let plan = || {
        FaultPlan::none()
            .inject(0, Fault::InflateCost(2.5))
            .inject(2, Fault::NanScore)
    };
    par::set_threads(4);
    for (name, make) in engines() {
        let (baseline, base_probs) = fit_with(make, plan(), 0.6);
        let planned = baseline.leaderboard.len() as u64;
        // the last trial the engine actually plans under this budget —
        // guaranteed to execute, so the kill is guaranteed to fire (a
        // collision with a faulted index just means kill wins that trial)
        let k = (planned - 1).clamp(1, 5);
        let path = tmp_journal(&format!("faulted_kill_{name}"));
        let _ = std::fs::remove_file(&path);
        let policy = ResumePolicy::Resume(path.clone());
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            fit_resumable_with(
                make,
                plan().inject(k, Fault::Kill),
                0.6,
                &policy,
                Deadline::none(),
            )
        }));
        assert!(unwound.is_err(), "{name}: kill@{k} did not abort");
        let (resumed, resumed_probs) =
            fit_resumable_with(make, plan(), 0.6, &policy, Deadline::none())
                .unwrap_or_else(|e| panic!("{name}: faulted resume failed: {e}"));
        assert_eq!(baseline, resumed, "{name}: faulted resume diverged");
        assert_eq!(base_probs, resumed_probs, "{name}: predictions diverged");
        assert!(
            resumed.leaderboard.n_failed() >= 1,
            "{name}: the NaN fault should have quarantined a trial"
        );
        let _ = std::fs::remove_file(&path);
    }
    par::reset_threads();
}

/// Resume refuses a journal written by a different search configuration
/// instead of silently mixing incompatible trials.
#[test]
fn resume_refuses_a_journal_from_a_different_configuration() {
    let _g = guard();
    let path = tmp_journal("config_mismatch");
    let _ = std::fs::remove_file(&path);
    let policy = ResumePolicy::Resume(path.clone());
    // seed 7 writes the journal…
    fit_resumable_with(
        |p| Box::new(AutoSklearnStyle::with_faults(7, p)),
        FaultPlan::none(),
        0.4,
        &policy,
        Deadline::none(),
    )
    .unwrap();
    // …and a seed-8 search must refuse to resume from it
    let err = fit_resumable_with(
        |p| Box::new(AutoSklearnStyle::with_faults(8, p)),
        FaultPlan::none(),
        0.4,
        &policy,
        Deadline::none(),
    )
    .unwrap_err();
    assert_eq!(err.kind(), "resume_mismatch", "got: {err}");
    let _ = std::fs::remove_file(&path);
}

/// Deadline-bounded anytime behavior: a search with a hung trial and a
/// tight wall-clock deadline still returns a valid best-so-far report,
/// with the hung trial quarantined as `deadline_exceeded`, well within
/// deadline + one trial-cancellation grace period (and far under the
/// 60 s hang safety valve).
#[test]
fn deadline_returns_best_so_far_with_hung_trials_quarantined() {
    let _g = guard();
    silence_injected_panic_output();
    for (name, make) in engines() {
        let start = Instant::now();
        let result = fit_resumable_with(
            make,
            FaultPlan::none().inject(2, Fault::Hang),
            0.8,
            &ResumePolicy::Fresh,
            Deadline::within(Duration::from_millis(300)),
        );
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(30),
            "{name}: deadline overrun: took {elapsed:?}"
        );
        let (report, probs) =
            result.unwrap_or_else(|e| panic!("{name}: no best-so-far report: {e}"));
        assert!(report.val_f1.is_finite(), "{name}: non-finite best-so-far");
        assert!(
            probs.iter().all(|p| p.is_finite()),
            "{name}: non-finite predictions"
        );
        let abandoned = report
            .failed_trials()
            .iter()
            .filter(|e| {
                e.error
                    .as_ref()
                    .is_some_and(|err| err.kind() == "deadline_exceeded")
            })
            .count();
        assert!(
            abandoned >= 1,
            "{name}: hung trial not quarantined as deadline_exceeded"
        );
    }
}

/// Satellite 6: the units charged to a deadline-abandoned trial are
/// recorded in the journal and restored — not recomputed, not re-run
/// (re-running would hang again), not double-charged — when the search
/// resumes without the deadline.
#[test]
fn deadline_abandoned_charge_is_replayed_not_double_charged() {
    let _g = guard();
    silence_injected_panic_output();
    let make: MakeEngine = |p| Box::new(AutoSklearnStyle::with_faults(7, p));
    let plan = || FaultPlan::none().inject(1, Fault::Hang);
    let path = tmp_journal("deadline_charge");
    let _ = std::fs::remove_file(&path);
    let policy = ResumePolicy::Resume(path.clone());
    // first run: the hang at trial 1 is abandoned when the 250 ms
    // deadline fires, charged, journaled, and the run ends early
    let (first, _) = fit_resumable_with(
        make,
        plan(),
        0.6,
        &policy,
        Deadline::within(Duration::from_millis(250)),
    )
    .unwrap();
    let a1 = &first.leaderboard.entries()[1];
    assert_eq!(
        a1.error.as_ref().map(|e| e.kind()),
        Some("deadline_exceeded"),
        "trial 1 should have been abandoned at the deadline"
    );
    // resumed run, no deadline: the abandoned trial is replayed from the
    // journal — if it re-ran, the hang fault would spin for the 60 s
    // safety valve, so finishing quickly proves the replay
    let start = Instant::now();
    let (second, _) = fit_resumable_with(make, plan(), 0.6, &policy, Deadline::none()).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "resume re-ran the hung trial instead of replaying it"
    );
    let b1 = &second.leaderboard.entries()[1];
    assert_eq!(
        b1.error.as_ref().map(|e| e.kind()),
        Some("deadline_exceeded"),
        "the journaled abandonment must survive the resume"
    );
    assert_eq!(
        a1.cost_units.to_bits(),
        b1.cost_units.to_bits(),
        "abandoned-trial charge must be restored verbatim, not recomputed"
    );
    // the resumed (undeadlined) run continues past where the first stopped
    assert!(
        second.leaderboard.len() >= first.leaderboard.len(),
        "resume lost journaled trials"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_plan_rejects_malformed_specs() {
    for bad in [
        "fail",         // missing @trial
        "fail@x",       // bad trial index
        "explode@1",    // unknown kind
        "cost@1",       // missing multiplier
        "cost@1=zero",  // bad multiplier
        "cost@1=-2",    // non-positive multiplier
        "nan@1=3",      // argument on an arg-less kind
        "fail@0 nan@1", // missing comma separator
    ] {
        let err = FaultPlan::parse(bad).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("expected"),
            "{bad:?}: error should show the expected forms, got {msg:?}"
        );
    }
}
