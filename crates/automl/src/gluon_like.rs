//! AutoGluon-style system: no hyperparameter search — a fixed roster of
//! model families, k-fold bagging, and multi-layer stacking on out-of-fold
//! predictions (Erickson et al., 2020, as summarized in the paper's §2).
//!
//! Characteristic behaviours this reproduces:
//!
//! * training time is dominated by the roster × bagging cost, so it *varies
//!   with dataset size* instead of filling a fixed clock (Table 2 shows
//!   4.4 h on S-DG, 4 minutes on S-BR);
//! * under a tight budget the tail of the roster and the stacker are
//!   skipped, degrading quality (the paper's 1-hour AutoGluon experiment
//!   lost ~6 F1 points on average);
//! * on very small datasets k-fold stacking is brittle (S-BR collapses in
//!   Table 2).

use crate::budget::{fit_cost, Budget, ModelFamily};
use crate::ensemble::{greedy_selection, weighted_average, BaggedModel, GlmMetalearner};
use crate::fault::FaultPlan;
use crate::journal::driver::{data_shape, SearchDriver};
use crate::journal::ResumePolicy;
use crate::leaderboard::FitReport;
use crate::AutoMlSystem;
use linalg::{Matrix, Rng};
use ml::boosting::{BoostConfig, GradientBoosting, ObliviousBoosting};
use ml::dataset::TabularData;
use ml::forest::{ForestConfig, RandomForest};
use ml::knn::{KNearest, KnnConfig};
use ml::metrics::best_f1_threshold;
use ml::{Classifier, TrialError};
use par::Deadline;

/// Bagging folds (AutoGluon default is 8; 5 keeps small datasets viable).
const K_FOLDS: usize = 5;

fn roster(seed: u64) -> Vec<(ModelFamily, Box<dyn Classifier>)> {
    vec![
        (
            ModelFamily::Gbm,
            Box::new(GradientBoosting::new(BoostConfig {
                n_rounds: 110,
                lr: 0.08,
                max_depth: 6,
                seed,
                ..BoostConfig::default()
            })) as Box<dyn Classifier>,
        ),
        (
            ModelFamily::CatGbm,
            Box::new(ObliviousBoosting::new(BoostConfig {
                n_rounds: 90,
                lr: 0.1,
                max_depth: 5,
                seed: seed ^ 1,
                ..BoostConfig::default()
            })),
        ),
        (
            ModelFamily::RandomForest,
            Box::new(RandomForest::new(ForestConfig::random_forest(60, seed ^ 2))),
        ),
        (
            ModelFamily::ExtraTrees,
            Box::new(RandomForest::new(ForestConfig::extra_trees(60, seed ^ 3))),
        ),
        (
            ModelFamily::Knn,
            Box::new(KNearest::new(KnnConfig {
                k: 11,
                distance_weighted: true,
            })),
        ),
    ]
}

/// The AutoGluon-style engine. See module docs.
pub struct AutoGluonStyle {
    seed: u64,
    faults: FaultPlan,
    bags: Vec<BaggedModel>,
    meta: Option<GlmMetalearner>,
    /// Greedy fallback weights over bags when the stacker is skipped/worse.
    weights: Vec<f32>,
    threshold: f32,
    /// Constant fallback probability when nothing could be trained.
    fallback: Option<f32>,
}

impl AutoGluonStyle {
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
            bags: Vec::new(),
            meta: None,
            weights: Vec::new(),
            threshold: 0.5,
            fallback: None,
        }
    }
}

impl AutoMlSystem for AutoGluonStyle {
    fn name(&self) -> &'static str {
        "AutoGluon"
    }

    fn fit_resumable(
        &mut self,
        train: &TabularData,
        valid: &TabularData,
        budget: &mut Budget,
        policy: &ResumePolicy,
        deadline: Deadline,
    ) -> Result<FitReport, TrialError> {
        let mut rng = Rng::new(self.seed ^ 0x61u64);
        let valid_labels = valid.labels_bool();
        self.bags = Vec::new();
        self.meta = None;
        self.fallback = None;

        let members = roster(self.seed);
        let roster_desc: Vec<String> = members
            .iter()
            .map(|(family, template)| format!("{family:?}:{}", template.name()))
            .collect();
        let mut driver = SearchDriver::start(
            self.name(),
            self.seed,
            self.faults.clone(),
            budget,
            &[
                &format!("k_folds={K_FOLDS}"),
                &format!("roster={}", roster_desc.join(",")),
                &data_shape(train, valid),
            ],
            policy,
            deadline,
        )?;

        // --- layer 1: bagged base models -------------------------------
        for (family, template) in members {
            if driver.deadline_stop() {
                break; // keep what is already trained: best-so-far
            }
            // k fold-fits, each on (k-1)/k of the data
            let cost = K_FOLDS as f64 * fit_cost(family, train.len() * (K_FOLDS - 1) / K_FOLDS);
            if !driver.budget().can_afford(cost) {
                continue; // tight budgets silently drop roster tails
            }
            // attempted roster members are trials: a failing bag is
            // quarantined and the roster continues (budget-skipped
            // members above are not trials and get no leaderboard entry).
            // Each gets its own rng stream, forked on the driving thread
            // whether or not the trial body runs — so a failure replayed
            // from the journal (which skips the body) leaves every later
            // trial's randomness untouched.
            let bag_rng = rng.fork(driver.trials());
            let label = format!("bag[{}]", template.name());
            let fits = driver.batch(vec![(label, family, cost)], |_| {
                let bag =
                    BaggedModel::fit(template.as_ref(), train, K_FOLDS, &mut bag_rng.clone())?;
                let val_probs = bag.predict_proba(&valid.x);
                let (_, f1) = best_f1_threshold(&val_probs, &valid_labels);
                Ok((bag, val_probs, f1))
            })?;
            self.bags
                .extend(fits.into_iter().flatten().map(|(bag, _, _)| bag));
        }

        if self.bags.is_empty() {
            if driver.trials() > 0 {
                // trials were attempted and every one failed — that is a
                // run-level error, not the budget-starvation fallback
                return Err(driver.fail(train.len()));
            }
            // nothing affordable: majority-class predictor (this is the
            // degenerate outcome the paper observed on starved runs)
            self.fallback = Some(train.positive_ratio() as f32);
            self.threshold = 0.5;
            return Ok(driver.finish(0.0, 0.5));
        }

        // --- layer 2: GLM stacker on out-of-fold probabilities ----------
        let oof = Matrix::from_fn(train.len(), self.bags.len(), |i, m| self.bags[m].oof[i]);
        let stack_cost = fit_cost(ModelFamily::LogReg, train.len());
        let bag_val_probs: Vec<Vec<f32>> = self
            .bags
            .iter()
            .map(|b| b.predict_proba(&valid.x))
            .collect();

        // greedy weighted ensemble is always available
        let weights = greedy_selection(&bag_val_probs, &valid_labels, 15);
        let greedy_val = weighted_average(&bag_val_probs, &weights);
        let (gt, gf1) = best_f1_threshold(&greedy_val, &valid_labels);
        self.weights = weights;
        let mut best = (gf1, gt); // (val F1, threshold)

        if !driver.stopped_by_deadline() && driver.budget().can_afford(stack_cost) {
            // the stacker is a trial like any other: a degenerate GLM solve
            // (NaN coefficients on collinear folds) is quarantined and the
            // greedy ensemble keeps the run alive
            let plan = ("stacker[glm]".to_owned(), ModelFamily::LogReg, stack_cost);
            let fits = driver.batch(vec![plan], |_| {
                let meta = GlmMetalearner::fit(&oof, &train.y, 1e-2);
                let stacked_val = meta.predict(&bag_val_probs);
                let (st, sf1) = best_f1_threshold(&stacked_val, &valid_labels);
                Ok(((meta, st), stacked_val, sf1))
            })?;
            if let Some(((meta, st), _, sf1)) = fits.into_iter().flatten().next() {
                if sf1 > best.0 {
                    best = (sf1, st);
                    self.meta = Some(meta);
                }
            }
        }

        self.threshold = best.1;
        Ok(driver.finish(best.0, best.1))
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        if let Some(p) = self.fallback {
            return vec![p; x.rows()];
        }
        assert!(!self.bags.is_empty(), "predict before fit");
        let base: Vec<Vec<f32>> = self.bags.iter().map(|b| b.predict_proba(x)).collect();
        match &self.meta {
            Some(meta) => meta.predict(&base),
            None => weighted_average(&base, &self.weights),
        }
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::metrics::f1_score;

    fn blob_data(n: usize, seed: u64) -> TabularData {
        let mut rng = Rng::new(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = rng.chance(0.3);
            let c = if pos { 1.2f32 } else { -1.2 };
            rows.push(vec![c + rng.normal(), -c + rng.normal()]);
            y.push(if pos { 1.0 } else { 0.0 });
        }
        TabularData::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn end_to_end() {
        let train = blob_data(300, 1);
        let valid = blob_data(120, 2);
        let test = blob_data(120, 3);
        let mut sys = AutoGluonStyle::new(5);
        let mut budget = Budget::hours(4.0).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        assert!(
            report.leaderboard.len() >= 5,
            "{}",
            report.leaderboard.len()
        );
        let f1 = f1_score(&sys.predict(&test.x), &test.labels_bool());
        assert!(f1 > 85.0, "F1 {f1}");
    }

    #[test]
    fn time_used_scales_with_dataset_not_budget() {
        let valid = blob_data(60, 4);
        let mut small_sys = AutoGluonStyle::new(1);
        let mut b1 = Budget::hours(10.0).unwrap();
        small_sys.fit(&blob_data(100, 5), &valid, &mut b1).unwrap();
        let mut large_sys = AutoGluonStyle::new(1);
        let mut b2 = Budget::hours(10.0).unwrap();
        large_sys.fit(&blob_data(2000, 6), &valid, &mut b2).unwrap();
        assert!(
            b2.used() > 2.0 * b1.used(),
            "{} vs {}",
            b2.used(),
            b1.used()
        );
        assert!(!b1.exhausted(), "AutoGluon should not drain a huge budget");
    }

    #[test]
    fn starved_budget_degrades_to_fallback() {
        let train = blob_data(500, 7);
        let valid = blob_data(100, 8);
        let mut sys = AutoGluonStyle::new(1);
        let mut budget = Budget::units(0.2).unwrap(); // can't afford anything
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        assert_eq!(report.val_f1, 0.0);
        let probs = sys.predict_proba(&valid.x);
        assert!(probs.iter().all(|&p| p == probs[0]), "constant fallback");
    }

    #[test]
    fn tight_budget_trains_fewer_models() {
        let train = blob_data(400, 9);
        let valid = blob_data(100, 10);
        let mut rich_sys = AutoGluonStyle::new(2);
        let mut rich = Budget::hours(10.0).unwrap();
        let r1 = rich_sys.fit(&train, &valid, &mut rich).unwrap();
        let mut poor_sys = AutoGluonStyle::new(2);
        // enough for roughly half the roster
        let mut poor = Budget::units(rich.used() * 0.45).unwrap();
        let r2 = poor_sys.fit(&train, &valid, &mut poor).unwrap();
        assert!(r2.leaderboard.len() < r1.leaderboard.len());
    }

    #[test]
    fn deterministic() {
        let train = blob_data(200, 11);
        let valid = blob_data(80, 12);
        let run = || {
            let mut sys = AutoGluonStyle::new(3);
            let mut budget = Budget::hours(5.0).unwrap();
            sys.fit(&train, &valid, &mut budget).unwrap();
            sys.predict_proba(&valid.x)
        };
        assert_eq!(run(), run());
    }
}
