//! Successive halving: a budget-aware search strategy that trains many
//! cheap configurations on a data subsample and promotes only the top
//! fraction to larger subsamples.
//!
//! Not one of the paper's three systems — included as the natural "next
//! generation" search the AutoML literature proposes (Hyperband/ASHA class)
//! and used by the `ablations` bench to compare search strategies under
//! the same budget accounting.
//!
//! Each rung's population sweep is embarrassingly parallel and runs as
//! one batch of the search driver; the affordable prefix of the rung is
//! planned on the driving thread with a simulated budget and charges are
//! replayed in submission order afterwards, so the report is byte-for-byte
//! the one a sequential sweep produces, at any thread count. Rungs are
//! journaled through [`crate::journal`] like every other engine, so an
//! interrupted halving run resumes mid-rung.

use crate::budget::{fit_cost, Budget};
use crate::fault::FaultPlan;
use crate::journal::driver::{data_shape, SearchDriver};
use crate::journal::ResumePolicy;
use crate::leaderboard::FitReport;
use crate::space::{sklearn_families, Candidate};
use crate::AutoMlSystem;
use linalg::{Matrix, Rng};
use ml::cv::stratified_holdout;
use ml::dataset::TabularData;
use ml::metrics::best_f1_threshold;
use ml::{Classifier, TrialError};
use par::Deadline;

/// Configurations sampled in the first rung.
const INITIAL_POPULATION: usize = 18;
/// Fraction promoted between rungs (η⁻¹; 1/3 is the ASHA default).
const KEEP_FRACTION: f64 = 1.0 / 3.0;
/// Training-subsample fraction of the first rung (doubles per rung,
/// capped at 1.0).
const INITIAL_SUBSAMPLE: f64 = 0.25;

/// The successive-halving engine.
pub struct SuccessiveHalving {
    seed: u64,
    faults: FaultPlan,
    best: Option<Box<dyn Classifier>>,
    threshold: f32,
}

impl SuccessiveHalving {
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
            best: None,
            threshold: 0.5,
        }
    }
}

/// One evaluated configuration: the candidate, its fitted model, its
/// validation probabilities and its validation score.
type Evaluated = (Candidate, Box<dyn Classifier>, Vec<f32>, f64);

impl AutoMlSystem for SuccessiveHalving {
    fn name(&self) -> &'static str {
        "SuccessiveHalving"
    }

    fn fit_resumable(
        &mut self,
        train: &TabularData,
        valid: &TabularData,
        budget: &mut Budget,
        policy: &ResumePolicy,
        deadline: Deadline,
    ) -> Result<FitReport, TrialError> {
        let mut rng = Rng::new(self.seed ^ 0x5A1);
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
                    "pop={INITIAL_POPULATION} keep={KEEP_FRACTION:?} \
                     subsample={INITIAL_SUBSAMPLE:?}"
                ),
            ],
            policy,
            deadline,
        )?;

        // rung 0 population
        let mut population: Vec<(Candidate, f64)> = (0..INITIAL_POPULATION)
            .map(|_| (Candidate::sample(&families, &mut rng), f64::MIN))
            .collect();
        let mut subsample = INITIAL_SUBSAMPLE;
        let mut survivors: Vec<Evaluated> = Vec::new();
        let seed = self.seed;
        let mut rung = 0usize;
        // stop opening new rungs once the deadline has passed; the
        // previous rung's survivors are the result
        while !driver.deadline_stop() {
            let rows = ((train.len() as f64 * subsample) as usize)
                .clamp(2.max(valid_labels.len().min(8)), train.len());
            // deterministic per-rung subsample (stratified so tiny rungs
            // keep both classes)
            let subset = if rows < train.len() {
                let mut sub_rng = rng.fork(rung as u64);
                let (keep, _) = stratified_holdout(
                    &train.y,
                    1.0 - rows as f64 / train.len() as f64,
                    &mut sub_rng,
                );
                train.select(&keep)
            } else {
                train.clone()
            };
            // --- plan the affordable prefix of the rung (same order and
            //     budget arithmetic as a sequential sweep); the whole rung
            //     is one independent batch ---
            let mut sim = driver.budget().clone();
            let mut planned: Vec<(usize, u64)> = Vec::new();
            let mut plans = Vec::new();
            for (pop_idx, (cand, _)) in population.iter().enumerate() {
                let cost = fit_cost(cand.family, subset.len());
                if !sim.can_afford(cost) {
                    break;
                }
                sim.consume(cost);
                let idx = driver.trials() + planned.len() as u64;
                let name = cand.build(seed.wrapping_add(idx)).name();
                plans.push((format!("rung{rung}[{name}]"), cand.family, cost));
                planned.push((pop_idx, idx));
            }
            let fits = driver.batch(plans, |slot| {
                let (pop_idx, idx) = planned[slot];
                let mut model = population[pop_idx].0.build(seed.wrapping_add(idx));
                model.fit(&subset.x, &subset.y)?;
                let probs = model.predict_proba(&valid.x);
                let (_, f1) = best_f1_threshold(&probs, &valid_labels);
                Ok((model, probs, f1))
            })?;
            // a quarantined configuration keeps its f64::MIN score and is
            // never promoted to the next rung
            let mut rung_results: Vec<Evaluated> = Vec::new();
            for ((pop_idx, _), fit) in planned.into_iter().zip(fits) {
                if let Some((model, probs, f1)) = fit {
                    population[pop_idx].1 = f1;
                    rung_results.push((population[pop_idx].0.clone(), model, probs, f1));
                }
            }
            if rung_results.is_empty() {
                // nothing usable came out of this rung (unaffordable, or
                // every attempted fit failed); keep the previous rung's
                // survivors as the final population
                break;
            }
            survivors = rung_results;
            // promote the top fraction (scores are guard-validated finite,
            // but keep the sort NaN-safe regardless)
            survivors.sort_by(|a, b| linalg::stats::nan_worst_cmp(b.3, a.3));
            let keep = ((survivors.len() as f64 * KEEP_FRACTION).ceil() as usize).max(1);
            if keep == 1 || subsample >= 1.0 || driver.budget().exhausted() {
                break;
            }
            population = survivors
                .iter()
                .take(keep)
                .map(|(c, _, _, s)| (c.clone(), *s))
                .collect();
            subsample = (subsample * 2.0).min(1.0);
            rung += 1;
        }

        if survivors.is_empty() {
            return Err(driver.fail(train.len()));
        }
        let (_, model, probs, _) = survivors.swap_remove(0);
        let (threshold, val_f1) = best_f1_threshold(&probs, &valid_labels);
        self.best = Some(model);
        self.threshold = threshold;
        Ok(driver.finish(val_f1, threshold))
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        // usage-contract violation, not a trial failure: fit() must have
        // returned Ok before predicting
        #[allow(clippy::expect_used)]
        self.best
            .as_ref()
            .expect("predict before fit")
            .predict_proba(x)
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data(n: usize, seed: u64) -> TabularData {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = rng.chance(0.3);
            let c = if pos { 1.3f32 } else { -1.3 };
            rows.push(vec![c + rng.normal(), -c + rng.normal()]);
            y.push(if pos { 1.0 } else { 0.0 });
        }
        TabularData::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn end_to_end() {
        let train = blob_data(400, 1);
        let valid = blob_data(150, 2);
        let test = blob_data(150, 3);
        let mut sys = SuccessiveHalving::new(7);
        let mut budget = Budget::hours(1.0).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        assert!(report.leaderboard.len() >= INITIAL_POPULATION / 2);
        let f1 = ml::metrics::f1_score(&sys.predict(&test.x), &test.labels_bool());
        assert!(f1 > 85.0, "F1 {f1}");
    }

    #[test]
    fn rungs_promote_fewer_models_on_more_data() {
        let train = blob_data(600, 4);
        let valid = blob_data(150, 5);
        let mut sys = SuccessiveHalving::new(3);
        let mut budget = Budget::hours(2.0).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        // rung labels must show at least two rungs and rung-1 strictly
        // smaller than rung-0
        let rung0 = report
            .leaderboard
            .entries()
            .iter()
            .filter(|e| e.model.starts_with("rung0"))
            .count();
        let rung1 = report
            .leaderboard
            .entries()
            .iter()
            .filter(|e| e.model.starts_with("rung1"))
            .count();
        assert!(rung0 > 0);
        assert!(rung1 > 0, "expected a second rung");
        assert!(rung1 < rung0, "rung1 {rung1} !< rung0 {rung0}");
    }

    #[test]
    fn deterministic() {
        let train = blob_data(200, 6);
        let valid = blob_data(80, 7);
        let run = || {
            let mut sys = SuccessiveHalving::new(5);
            let mut budget = Budget::hours(0.5).unwrap();
            sys.fit(&train, &valid, &mut budget).unwrap();
            sys.predict_proba(&valid.x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cheap_budget_still_yields_a_model() {
        let train = blob_data(300, 8);
        let valid = blob_data(100, 9);
        let mut sys = SuccessiveHalving::new(1);
        let mut budget = Budget::units(1.5).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        assert!(!report.leaderboard.is_empty());
        assert!((0.0..=1.0).contains(&sys.threshold()));
    }
}
