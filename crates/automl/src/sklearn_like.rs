//! AutoSklearn-style system: meta-learning warm starts → SMBO (random-forest
//! surrogate + expected improvement) → greedy ensemble selection.
//!
//! Budget semantics follow the real tool: the run keeps searching until the
//! time budget is gone and the reported training time is always the full
//! budget (Table 2 shows 1.00 h for every dataset).
//!
//! The SMBO loop is **batched**: each round proposes [`SMBO_BATCH`]
//! candidates from the same surrogate snapshot (constant-liar batch SMBO)
//! and fits them through the `par` worker pool. Candidate choice, model
//! seeds, budget charges and trial telemetry all happen on the driving
//! thread in submission order, so the full [`FitReport`] is byte-identical
//! for every thread count — threads only change wall-clock time.

use crate::budget::{fit_cost, Budget};
use crate::ensemble::{greedy_selection, weighted_average};
use crate::fault::FaultPlan;
use crate::journal::driver::{data_shape, SearchDriver};
use crate::journal::ResumePolicy;
use crate::leaderboard::FitReport;
use crate::smbo::{propose, warm_starts, Surrogate};
use crate::space::{sklearn_families, Candidate};
use crate::AutoMlSystem;
use linalg::{Matrix, Rng};
use ml::dataset::TabularData;
use ml::metrics::best_f1_threshold;
use ml::{Classifier, TrialError};
use par::Deadline;

/// Minimum random evaluations before the surrogate takes over.
const MIN_RANDOM_EVALS: usize = 8;
/// Surrogate forest size.
const SURROGATE_TREES: usize = 20;
/// Greedy-selection iterations.
const ENSEMBLE_ROUNDS: usize = 25;
/// Candidates proposed per SMBO round and fitted concurrently. Part of
/// the search algorithm, **not** tied to the worker count: the same batch
/// is planned whatever `par::threads()` says, so results never depend on
/// the machine.
pub const SMBO_BATCH: usize = 4;

/// The AutoSklearn-style engine. See module docs.
pub struct AutoSklearnStyle {
    seed: u64,
    faults: FaultPlan,
    members: Vec<Box<dyn Classifier>>,
    weights: Vec<f32>,
    threshold: f32,
}

impl AutoSklearnStyle {
    /// New engine with a deterministic seed (faults come from the
    /// `AUTOML_EM_FAULTS` environment variable, usually none).
    pub fn new(seed: u64) -> Self {
        Self::with_faults(seed, FaultPlan::from_env())
    }

    /// New engine with an explicit fault-injection plan (tests).
    pub fn with_faults(seed: u64, faults: FaultPlan) -> Self {
        Self {
            seed,
            faults,
            members: Vec::new(),
            weights: Vec::new(),
            threshold: 0.5,
        }
    }
}

impl AutoMlSystem for AutoSklearnStyle {
    fn name(&self) -> &'static str {
        "AutoSklearn"
    }

    fn fit_resumable(
        &mut self,
        train: &TabularData,
        valid: &TabularData,
        budget: &mut Budget,
        policy: &ResumePolicy,
        deadline: Deadline,
    ) -> Result<FitReport, TrialError> {
        let mut rng = Rng::new(self.seed ^ 0xA51);
        let families = sklearn_families();
        let valid_labels = valid.labels_bool();
        let mut driver = SearchDriver::start(
            self.name(),
            self.seed,
            self.faults.clone(),
            budget,
            &[
                &format!("families={families:?}"),
                &data_shape(train, valid),
                &format!(
                    "batch={SMBO_BATCH} min_random={MIN_RANDOM_EVALS} \
                     trees={SURROGATE_TREES} rounds={ENSEMBLE_ROUNDS}"
                ),
            ],
            policy,
            deadline,
        )?;

        let mut warm = warm_starts(train.len(), train.positive_ratio());
        warm.reverse(); // pop() yields them in priority order
        let mut history: Vec<(Candidate, f64)> = Vec::new();
        let mut fitted: Vec<(Box<dyn Classifier>, Vec<f32>)> = Vec::new();

        let seed = self.seed;
        // stop planning once the deadline has passed: best-so-far report
        while !driver.deadline_stop() {
            // --- plan one batch on the driving thread (deterministic) ---
            // one surrogate snapshot per round; every proposal in the
            // round maximizes EI against it (constant-liar batch SMBO)
            let surrogate = if warm.is_empty() && history.len() >= MIN_RANDOM_EVALS {
                let rows: Vec<Vec<f32>> =
                    history.iter().map(|(c, _)| c.encode(&families)).collect();
                let scores: Vec<f64> = history.iter().map(|(_, s)| *s).collect();
                Some(Surrogate::fit(
                    &Matrix::from_rows(&rows),
                    &scores,
                    SURROGATE_TREES,
                    &mut rng,
                ))
            } else {
                None
            };
            let mut sim = driver.budget().clone();
            let mut planned: Vec<(Candidate, u64)> = Vec::new();
            let mut plans = Vec::new();
            let mut starved = false;
            while planned.len() < SMBO_BATCH {
                let candidate = if let Some(c) = warm.pop() {
                    c
                } else if let Some(s) = surrogate
                    .as_ref()
                    .filter(|_| history.len() + planned.len() >= MIN_RANDOM_EVALS)
                {
                    propose(s, &families, &history, &mut rng)
                } else {
                    Candidate::sample(&families, &mut rng)
                };
                let cost = fit_cost(candidate.family, train.len());
                if !sim.can_afford(cost) {
                    starved = true;
                    break;
                }
                sim.consume(cost);
                let idx = driver.trials() + planned.len() as u64;
                let label = candidate.build(seed.wrapping_add(idx)).name();
                plans.push((label, candidate.family, cost));
                planned.push((candidate, idx));
            }
            if planned.is_empty() {
                break;
            }
            let fits = driver.batch(plans, |slot| {
                let (candidate, idx) = &planned[slot];
                let mut model = candidate.build(seed.wrapping_add(*idx));
                model.fit(&train.x, &train.y)?;
                let probs = model.predict_proba(&valid.x);
                let (_, f1) = best_f1_threshold(&probs, &valid_labels);
                Ok((model, probs, f1))
            })?;
            for ((candidate, _), fit) in planned.into_iter().zip(fits) {
                if let Some((model, probs, f1)) = fit {
                    history.push((candidate, f1 / 100.0));
                    fitted.push((model, probs));
                }
            }
            if starved {
                break;
            }
        }

        // greedy ensemble selection over everything evaluated
        if fitted.is_empty() {
            return Err(driver.fail(train.len()));
        }
        let val_probs: Vec<Vec<f32>> = fitted.iter().map(|(_, p)| p.clone()).collect();
        let weights = greedy_selection(&val_probs, &valid_labels, ENSEMBLE_ROUNDS);
        let ens_val = weighted_average(&val_probs, &weights);
        let (threshold, val_f1) = best_f1_threshold(&ens_val, &valid_labels);

        self.members = Vec::new();
        self.weights = Vec::new();
        for ((model, _), &w) in fitted.into_iter().zip(&weights) {
            if w > 0.0 {
                self.members.push(model);
                self.weights.push(w);
            }
        }
        self.threshold = threshold;

        // the real AutoSklearn always runs out its clock — unless a
        // wall-clock deadline cut the run short, in which case reporting
        // the drained budget would overstate the work done
        if !driver.stopped_by_deadline() {
            driver.budget().drain();
        }
        Ok(driver.finish(val_f1, threshold))
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.members.is_empty(), "predict before fit");
        let probs: Vec<Vec<f32>> = self.members.iter().map(|m| m.predict_proba(x)).collect();
        weighted_average(&probs, &self.weights)
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use ml::metrics::f1_score;

    fn blob_data(n: usize, seed: u64) -> TabularData {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = rng.chance(0.25);
            let c = if pos { 1.2f32 } else { -1.2 };
            rows.push(vec![c + rng.normal(), -c + rng.normal(), rng.normal()]);
            y.push(if pos { 1.0 } else { 0.0 });
        }
        TabularData::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn end_to_end_on_separable_data() {
        let train = blob_data(300, 1);
        let valid = blob_data(120, 2);
        let test = blob_data(120, 3);
        let mut sys = AutoSklearnStyle::new(7);
        let mut budget = Budget::hours(1.0).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        assert!(budget.exhausted(), "AutoSklearn must drain its budget");
        assert!(
            report.leaderboard.len() >= 4,
            "{}",
            report.leaderboard.len()
        );
        let preds = sys.predict(&test.x);
        let f1 = f1_score(&preds, &test.labels_bool());
        assert!(f1 > 85.0, "F1 {f1}");
    }

    #[test]
    fn reported_hours_equal_budget() {
        let train = blob_data(150, 4);
        let valid = blob_data(60, 5);
        let mut sys = AutoSklearnStyle::new(1);
        let mut budget = Budget::hours(0.5).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        assert!((report.hours_used - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blob_data(150, 6);
        let valid = blob_data(60, 7);
        let run = |seed| {
            let mut sys = AutoSklearnStyle::new(seed);
            let mut budget = Budget::hours(0.3).unwrap();
            sys.fit(&train, &valid, &mut budget).unwrap();
            sys.predict_proba(&valid.x)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn larger_budget_evaluates_more_models() {
        let train = blob_data(200, 8);
        let valid = blob_data(80, 9);
        let mut small_sys = AutoSklearnStyle::new(3);
        let mut small_budget = Budget::hours(0.3).unwrap();
        let small = small_sys.fit(&train, &valid, &mut small_budget).unwrap();
        let mut big_sys = AutoSklearnStyle::new(3);
        let mut big_budget = Budget::hours(2.0).unwrap();
        let big = big_sys.fit(&train, &valid, &mut big_budget).unwrap();
        assert!(big.leaderboard.len() > small.leaderboard.len());
    }
}
