//! The search driver: the one place the crash-safe trial protocol lives.
//!
//! Every engine is a *policy* — it decides what to plan (warm starts and
//! SMBO batches, a bagging roster, a random grid, halving rungs, stackers)
//! and what to do with the fitted models. Everything between "these
//! trials are planned" and "here are the ones that succeeded" is the
//! driver's. [`SearchDriver::batch`]:
//!
//! 1. writes one `planned` journal record per trial and fsyncs once;
//! 2. runs the batch through `par::map`, each trial inside the trial
//!    boundary (`crate::trial::guard_trial`) under the engine's
//!    cost-ledger scope, restoring failures journaled by a prior run
//!    instead of re-running them;
//! 3. in submission order, charges the budget (the journaled charge on
//!    replay, else the computed cost times any injected inflation),
//!    journals the outcome, emits the trial event and counters, and pushes
//!    the leaderboard row — so the three streams cannot disagree;
//! 4. hands back the successful `(model, probs, f1)` per slot.
//!
//! Sequential steps (an AutoGluon roster member, a GLM stacker) are
//! batches of one, which `par::map` runs inline on the calling thread.
//!
//! The driver lives under [`crate::journal`] so the journal's per-trial
//! methods stay private to the two of them: an engine cannot write the
//! WAL, charge a trial or emit trial telemetry except through a batch.

use super::{ResumePolicy, SearchRun};
use crate::budget::{fit_cost, Budget, ModelFamily};
use crate::fault::{Fault, FaultPlan};
use crate::leaderboard::{FitReport, Leaderboard};
use crate::trial::{guard_trial, Fitted, TrialOutcome};
use ml::dataset::TabularData;
use ml::TrialError;
use par::{CancelToken, Deadline};

/// One planned trial: the model label the journal, the leaderboard and
/// the trial event all carry, its family, and its computed cost in units.
pub(crate) type Plan = (String, ModelFamily, f64);

/// Per-`fit` search state. See the module docs.
pub(crate) struct SearchDriver<'b> {
    engine: &'static str,
    run: SearchRun,
    budget: &'b mut Budget,
    faults: FaultPlan,
    leaderboard: Leaderboard,
    /// Trials submitted so far, which is also the next trial's index.
    next: u64,
    /// Best validation F1 so far, carried by every trial event.
    best: f64,
    trials_counter: &'static obs::Counter,
    failed_counter: &'static obs::Counter,
    units_gauge: &'static obs::Gauge,
    span: obs::SpanGuard,
}

impl<'b> SearchDriver<'b> {
    /// Open the `automl.<engine>.fit` span and the run's journal.
    ///
    /// `config_parts` fingerprint the search space and data shape; a
    /// journal written under a different engine, seed, budget or
    /// fingerprint is refused with [`TrialError::ResumeMismatch`].
    pub(crate) fn start(
        engine: &'static str,
        seed: u64,
        faults: FaultPlan,
        budget: &'b mut Budget,
        config_parts: &[&str],
        policy: &ResumePolicy,
        deadline: Deadline,
    ) -> Result<Self, TrialError> {
        let span = obs::span(format!("automl.{engine}.fit"));
        let trials_counter = obs::counter(&format!("automl.{engine}.trials"));
        let failed_counter = obs::counter(&format!("automl.{engine}.failed_trials"));
        let units_gauge = obs::gauge(&format!("automl.{engine}.units_spent"));
        let run = SearchRun::start(engine, seed, budget, config_parts, policy, deadline)?;
        Ok(Self {
            engine,
            run,
            budget,
            faults,
            leaderboard: Leaderboard::new(),
            next: 0,
            best: f64::NEG_INFINITY,
            trials_counter,
            failed_counter,
            units_gauge,
            span,
        })
    }

    /// Trials submitted so far, which is also the index the next planned
    /// trial will get.
    pub(crate) fn trials(&self) -> u64 {
        self.next
    }

    /// The run's budget, for planning (affordability, simulated charges)
    /// and for work that is not a trial (H2O's out-of-fold refits,
    /// AutoSklearn's drain).
    pub(crate) fn budget(&mut self) -> &mut Budget {
        self.budget
    }

    /// The deadline checkpoint engines poll between planning steps: true
    /// once the wall-clock deadline has passed, in which case the
    /// one-shot `search.deadline` event is emitted.
    pub(crate) fn deadline_stop(&mut self) -> bool {
        let expired = self.run.deadline_expired();
        if expired {
            self.run.note_deadline();
        }
        expired
    }

    /// Whether any [`SearchDriver::deadline_stop`] fired during this run.
    pub(crate) fn stopped_by_deadline(&self) -> bool {
        self.run.deadline_noted
    }

    /// Run one batch of planned trials. `eval(slot)` builds, fits and
    /// scores the trial in slot `slot` of `plans`; it runs on a `par`
    /// worker (inline for a batch of one) inside the trial boundary.
    /// Returns, per slot, the successful outcome or `None` for a
    /// quarantined failure. `Err` only when a replayed trial disagrees
    /// with its journal record.
    pub(crate) fn batch<T: Send>(
        &mut self,
        plans: Vec<Plan>,
        eval: impl Fn(usize) -> TrialOutcome<T> + Sync,
    ) -> Result<Vec<Option<Fitted<T>>>, TrialError> {
        let first = self.next;
        for ((label, _, cost), trial) in plans.iter().zip(first..) {
            self.run.note_planned(trial, label, *cost);
        }
        self.run.sync(); // one fsync per batch

        let (run, faults, engine) = (&self.run, &self.faults, self.engine);
        let token = run.token();
        let outcomes = par::map_indexed(plans.len(), |slot| {
            let trial = first + slot as u64;
            match run.replayed_failure(trial) {
                // a journaled failure may have depended on a wall clock
                // (deadline abandonment) or a since-fixed bug: never re-run
                Some(err) => (Err(err), 0.0),
                None => guard_trial_timed(engine, faults.get(trial), &token, || eval(slot)),
            }
        });

        let mut results = Vec::with_capacity(plans.len());
        for (((label, family, cost), (outcome, wall_ms)), trial) in
            plans.into_iter().zip(outcomes).zip(first..)
        {
            // a replayed trial charges its journaled units, so an inflated
            // or abandoned trial is never double-charged on resume
            let charged = self
                .run
                .charge(trial, cost * self.faults.cost_multiplier(trial));
            self.budget.consume(charged);
            let (val_f1, error) = match outcome {
                Ok((model, probs, f1)) => {
                    self.run.record_done(trial, &label, f1, charged)?;
                    self.best = self.best.max(f1);
                    self.leaderboard.push(label.clone(), f1, charged);
                    results.push(Some((model, probs, f1)));
                    (f1, None)
                }
                Err(err) => {
                    self.run.record_failed(trial, &label, &err, charged)?;
                    self.failed_counter.inc();
                    let message = err.to_string();
                    self.leaderboard.push_failed(label.clone(), err, charged);
                    results.push(None);
                    (f64::NEG_INFINITY, Some(message))
                }
            };
            obs::events::emit_trial(obs::TrialEvent {
                engine: self.engine,
                trial: trial as usize,
                family: format!("{family:?}"),
                model: label,
                val_f1,
                cost_units: charged,
                wall_ms,
                best_so_far: self.best,
                error,
            });
            self.trials_counter.inc();
            self.units_gauge.add(charged);
        }
        self.next = first + results.len() as u64;
        Ok(results)
    }

    /// Close a run that produced a predictor.
    pub(crate) fn finish(self, val_f1: f64, threshold: f32) -> FitReport {
        self.span.add_units(self.budget.used());
        FitReport {
            system: self.engine,
            units_used: self.budget.used(),
            hours_used: self.budget.used_hours(),
            val_f1,
            threshold,
            leaderboard: self.leaderboard,
        }
    }

    /// Close a run that produced no usable model: every attempted trial
    /// failed ([`TrialError::AllTrialsFailed`]), or the budget never
    /// covered even the cheapest fit ([`TrialError::BudgetExceeded`]).
    pub(crate) fn fail(self, train_rows: usize) -> TrialError {
        self.span.add_units(self.budget.used());
        if self.leaderboard.is_empty() {
            TrialError::budget_exceeded(
                fit_cost(ModelFamily::NaiveBayes, train_rows),
                self.budget.remaining(),
            )
        } else {
            TrialError::AllTrialsFailed {
                attempted: self.leaderboard.len(),
            }
        }
    }
}

/// The data-shape part of an engine's config fingerprint, so a journal
/// is never resumed against different data.
pub(crate) fn data_shape(train: &TabularData, valid: &TabularData) -> String {
    let positives = train.y.iter().filter(|&&v| v >= 0.5).count();
    format!(
        "rows={} cols={} pos={positives} valid={}",
        train.len(),
        train.x.cols(),
        valid.len()
    )
}

/// Run one trial inside the fault boundary ([`guard_trial`]) with cost
/// attribution: the engine name is installed as the thread's cost-ledger
/// scope (so every instrumented phase the fit touches — GEMM, fit epochs,
/// cache misses — is charged to this engine), a `trial.<engine>` span
/// marks the evaluation in the span tree and the thread-aware trace, and
/// the trial's wall time is booked to the ledger's `trial` phase.
///
/// Also returns the evaluation's wall-clock milliseconds for the trial
/// event. Wall time is telemetry only: it never flows into the outcome,
/// so `FitReport` byte-identity is preserved.
fn guard_trial_timed<T>(
    engine: &'static str,
    fault: Option<Fault>,
    token: &CancelToken,
    f: impl FnOnce() -> TrialOutcome<T>,
) -> (TrialOutcome<T>, f64) {
    // both guards release during unwind too (an injected Kill panics
    // straight through this boundary), so the scope stack and span tree
    // stay well-formed even when a trial dies
    let _scope = obs::ledger::scope(engine);
    let _span = obs::span(format!("trial.{engine}"));
    let start = std::time::Instant::now();
    let out = guard_trial(fault, token, f);
    let wall = start.elapsed();
    obs::ledger::add("trial", wall.as_nanos() as u64);
    (out, wall.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::INJECTED_PANIC_MSG;

    fn start<'b>(
        engine: &'static str,
        faults: FaultPlan,
        budget: &'b mut Budget,
    ) -> SearchDriver<'b> {
        SearchDriver::start(
            engine,
            1,
            faults,
            budget,
            &["space"],
            &ResumePolicy::Fresh,
            Deadline::none(),
        )
        .expect("fresh run")
    }

    fn plan(label: &str, family: ModelFamily, cost: f64) -> Plan {
        (label.to_owned(), family, cost)
    }

    #[test]
    fn batch_emits_trial_events_and_counts() {
        let mut budget = Budget::units(10.0).expect("valid budget");
        let mut d = start("t.drv.Engine", FaultPlan::none(), &mut budget);
        let f1s = [61.0, 55.0];
        let out = d
            .batch(
                vec![
                    plan("gbm(rounds=50)", ModelFamily::Gbm, 1.5),
                    plan("logreg(l2=0.01)", ModelFamily::LogReg, 0.5),
                ],
                |slot| Ok(((), vec![0.5], f1s[slot])),
            )
            .expect("batch");
        assert!(out.iter().all(Option::is_some));
        assert_eq!(d.trials(), 2);
        let trials = obs::recent_trials(Some("t.drv.Engine"));
        assert_eq!(trials.len(), 2);
        assert_eq!(trials[0].best_so_far, 61.0);
        assert_eq!(trials[1].best_so_far, 61.0, "best-so-far is cumulative");
        assert!(trials[0].wall_ms >= 0.0, "wall time rides along per trial");
        assert_eq!(obs::counter("automl.t.drv.Engine.trials").get(), 2);
        let spent = obs::gauge("automl.t.drv.Engine.units_spent").get();
        assert!((spent - 2.0).abs() < 1e-12);
        let report = d.finish(61.0, 0.5);
        assert_eq!(report.units_used, 2.0);
        assert_eq!(report.leaderboard.len(), 2);
    }

    #[test]
    fn failed_trial_events_do_not_move_best() {
        let mut budget = Budget::units(10.0).expect("valid budget");
        let faults = FaultPlan::none().inject(1, Fault::NanScore);
        let mut d = start("t.drv.FailEngine", faults, &mut budget);
        let out = d
            .batch(
                vec![
                    plan("gbm(rounds=50)", ModelFamily::Gbm, 1.0),
                    plan("knn(k=5)", ModelFamily::Knn, 0.5),
                ],
                |_| Ok(((), vec![0.5], 70.0)),
            )
            .expect("batch");
        assert!(out[0].is_some() && out[1].is_none());
        let trials = obs::recent_trials(Some("t.drv.FailEngine"));
        assert_eq!(trials.len(), 2);
        let failed = &trials[1];
        assert_eq!(failed.val_f1, f64::NEG_INFINITY);
        assert_eq!(failed.best_so_far, 70.0, "failure must not advance best");
        assert!(failed.error.as_deref().unwrap().contains("non-finite"));
        assert_eq!(
            obs::counter("automl.t.drv.FailEngine.failed_trials").get(),
            1
        );
        assert_eq!(d.leaderboard.n_failed(), 1);
    }

    #[test]
    fn timed_guard_books_ledger_time_under_the_engine_scope() {
        let (out, wall_ms) =
            guard_trial_timed("t.guard.Ledger", None, &CancelToken::unbounded(), || {
                Ok(("model", vec![0.1, 0.9], 72.5))
            });
        assert!(out.is_ok());
        assert!(wall_ms >= 0.0);
        let booked = obs::ledger_snapshot()
            .into_iter()
            .find(|e| e.scope == "t.guard.Ledger" && e.phase == "trial")
            .expect("trial wall time booked to the engine scope");
        assert_eq!(booked.count, 1);
    }

    #[test]
    fn spans_survive_a_panicking_trial() {
        // the SpanGuard unwind audit: a panic inside a guarded trial must
        // close every span the trial opened, so the span tree and trace
        // export are never corrupted by a quarantined candidate
        crate::fault::silence_injected_panic_output();
        let (out, _) = guard_trial_timed::<()>(
            "t.guard.SpanEngine",
            None,
            &CancelToken::unbounded(),
            || {
                let _inner = obs::span("t.guard.inner");
                std::panic::panic_any(format!("{INJECTED_PANIC_MSG} (span unwind)"));
            },
        );
        assert_eq!(out.unwrap_err().kind(), "fit_panic");
        let tree = obs::span_tree();
        let root = tree
            .iter()
            .find(|r| r.name == "trial.t.guard.SpanEngine")
            .expect("trial span recorded despite the panic");
        assert!(
            root.children.iter().any(|c| c.name == "t.guard.inner"),
            "inner span closed during unwind: {root:?}"
        );
        // and the thread's span stack is clean again: a fresh span lands
        // at the root, not under a stale trial frame
        {
            let _g = obs::span("t.guard.after");
        }
        assert!(obs::span_tree().iter().any(|r| r.name == "t.guard.after"));
    }
}
