//! H2OAutoML-style system: fast random search over the model space plus
//! stacked ensembles ("super learner") with a ridge-GLM metalearner —
//! the combination the paper's §2 describes in place of Bayesian
//! optimization.
//!
//! Like the real tool, the run can finish *before* the budget is gone: the
//! random search is capped, which is why Table 2 reports 0.74–0.97 h
//! against a 1-hour limit.
//!
//! The random grid is fully independent, so the whole affordable search is
//! planned up front (same rng stream and budget arithmetic as a sequential
//! search) and fitted through the `par` worker pool; charges and telemetry
//! replay in submission order, keeping the report byte-identical to the
//! sequential one at any thread count.

use crate::budget::{fit_cost, Budget, ModelFamily};
use crate::ensemble::{out_of_fold, GlmMetalearner};
use crate::fault::FaultPlan;
use crate::journal::driver::{data_shape, SearchDriver};
use crate::journal::ResumePolicy;
use crate::leaderboard::FitReport;
use crate::space::{h2o_families, Candidate};
use crate::AutoMlSystem;
use linalg::{Matrix, Rng};
use ml::dataset::TabularData;
use ml::metrics::best_f1_threshold;
use ml::{Classifier, TrialError};
use par::Deadline;

/// Random-search cap (the tool's `max_models` knob).
const MAX_MODELS: usize = 24;
/// Members of the super learner (top models by validation F1).
const STACK_TOP: usize = 6;
/// Folds used to build leak-free metalearner features.
const K_FOLDS: usize = 4;

/// The H2OAutoML-style engine. See module docs.
pub struct H2oStyle {
    seed: u64,
    faults: FaultPlan,
    members: Vec<Box<dyn Classifier>>,
    meta: Option<GlmMetalearner>,
    threshold: f32,
}

impl H2oStyle {
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
            meta: None,
            threshold: 0.5,
        }
    }
}

impl AutoMlSystem for H2oStyle {
    fn name(&self) -> &'static str {
        "H2OAutoML"
    }

    fn fit_resumable(
        &mut self,
        train: &TabularData,
        valid: &TabularData,
        budget: &mut Budget,
        policy: &ResumePolicy,
        deadline: Deadline,
    ) -> Result<FitReport, TrialError> {
        let mut rng = Rng::new(self.seed ^ 0x420);
        let families = h2o_families();
        let valid_labels = valid.labels_bool();
        let mut driver = SearchDriver::start(
            self.name(),
            self.seed,
            self.faults.clone(),
            budget,
            &[
                &format!("families={families:?}"),
                &format!("max_models={MAX_MODELS} stack_top={STACK_TOP} k_folds={K_FOLDS}"),
                &data_shape(train, valid),
            ],
            policy,
            deadline,
        )?;

        // --- fast random search -----------------------------------------
        // reserve a slice of the budget for the stacking stage
        let stack_reserve =
            K_FOLDS as f64 * fit_cost(ModelFamily::Gbm, train.len()) * STACK_TOP as f64 * 0.3;
        type Evaluated = (Candidate, Box<dyn Classifier>, Vec<f32>, f64);
        // --- plan the whole random grid on the driving thread: identical
        //     rng stream and budget arithmetic to a sequential search ---
        let seed = self.seed;
        let mut sim = driver.budget().clone();
        let mut planned: Vec<(Candidate, u64)> = Vec::new();
        let mut plans = Vec::new();
        while planned.len() < MAX_MODELS {
            let candidate = Candidate::sample(&families, &mut rng);
            let cost = fit_cost(candidate.family, train.len());
            if sim.remaining() - cost < stack_reserve.min(sim.remaining() * 0.5)
                || !sim.can_afford(cost)
            {
                break;
            }
            sim.consume(cost);
            let idx = driver.trials() + planned.len() as u64;
            let label = candidate.build(seed.wrapping_add(idx)).name();
            plans.push((label, candidate.family, cost));
            planned.push((candidate, idx));
        }
        // the grid is fully independent: one batch
        let fits = driver.batch(plans, |slot| {
            let (candidate, idx) = &planned[slot];
            let mut model = candidate.build(seed.wrapping_add(*idx));
            model.fit(&train.x, &train.y)?;
            let probs = model.predict_proba(&valid.x);
            let (_, f1) = best_f1_threshold(&probs, &valid_labels);
            Ok((model, probs, f1))
        })?;
        let mut evaluated: Vec<Evaluated> = planned
            .into_iter()
            .zip(fits)
            .filter_map(|((candidate, _), fit)| {
                fit.map(|(model, probs, f1)| (candidate, model, probs, f1))
            })
            .collect();
        if evaluated.is_empty() {
            return Err(driver.fail(train.len()));
        }

        // rank by validation F1, keep the stack members (scores are
        // guard-validated finite, but keep the sort NaN-safe regardless)
        evaluated.sort_by(|a, b| linalg::stats::nan_worst_cmp(b.3, a.3));
        evaluated.truncate(STACK_TOP.max(1));

        // --- super learner ------------------------------------------------
        // leak-free metalearner features: out-of-fold probabilities
        let mut oof_cols: Vec<Vec<f32>> = Vec::new();
        // indices into `kept` that contributed an oof column — the stack
        // membership (NOT necessarily a prefix of `kept`: a member whose
        // fold refits fail is dropped from the stack but stays ranked)
        let mut oof_members: Vec<usize> = Vec::new();
        let mut kept: Vec<Evaluated> = Vec::new();
        for (cand, model, vprobs, f1) in evaluated {
            if driver.deadline_stop() {
                kept.push((cand, model, vprobs, f1));
                continue; // keep the member ranked, skip its oof refits
            }
            let oof_cost =
                K_FOLDS as f64 * fit_cost(cand.family, train.len() * (K_FOLDS - 1) / K_FOLDS) * 0.5; // folds are smaller and reuse binning work
            if driver.budget().can_afford(oof_cost) {
                let mut fold_rng = rng.fork(oof_cols.len() as u64);
                // the member already fitted once, but its fold refits run
                // through the panic boundary too: a crashing fold drops
                // this member from the stacker, never the whole run
                let oof =
                    par::catch_panic(|| out_of_fold(model.as_ref(), train, K_FOLDS, &mut fold_rng));
                if let Ok(Ok((oof, _))) = oof {
                    driver.budget().consume(oof_cost);
                    oof_cols.push(oof);
                    oof_members.push(kept.len());
                }
            }
            kept.push((cand, model, vprobs, f1));
        }

        let single_val = kept[0].2.clone();
        let (single_t, single_f1) = best_f1_threshold(&single_val, &valid_labels);
        let mut best = (single_f1, single_t, false);

        if oof_cols.len() >= 2 && !driver.stopped_by_deadline() {
            let oof = Matrix::from_fn(train.len(), oof_cols.len(), |i, m| oof_cols[m][i]);
            let member_val: Vec<Vec<f32>> =
                oof_members.iter().map(|&i| kept[i].2.clone()).collect();
            // the super learner is a trial like any other (charged
            // nothing): a degenerate GLM solve is quarantined and the best
            // single model wins
            let plan = ("super_learner[glm]".to_owned(), ModelFamily::LogReg, 0.0);
            let fits = driver.batch(vec![plan], |_| {
                let meta = GlmMetalearner::fit(&oof, &train.y, 1e-2);
                let stacked_val = meta.predict(&member_val);
                let (st, sf1) = best_f1_threshold(&stacked_val, &valid_labels);
                Ok(((meta, st), stacked_val, sf1))
            })?;
            if let Some(((meta, st), _, sf1)) = fits.into_iter().flatten().next() {
                if sf1 >= best.0 {
                    best = (sf1, st, true);
                    self.meta = Some(meta);
                }
            }
        }

        if best.2 {
            // serve exactly the stacked members, in oof-column order
            let mut models: Vec<Option<Box<dyn Classifier>>> =
                kept.into_iter().map(|(_, m, _, _)| Some(m)).collect();
            self.members = oof_members
                .iter()
                .filter_map(|&i| models[i].take())
                .collect();
        } else {
            self.members = kept.into_iter().map(|(_, m, _, _)| m).collect();
        }
        self.threshold = best.1;
        Ok(driver.finish(best.0, best.1))
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f32> {
        assert!(!self.members.is_empty(), "predict before fit");
        match &self.meta {
            Some(meta) => {
                let base: Vec<Vec<f32>> = self.members.iter().map(|m| m.predict_proba(x)).collect();
                meta.predict(&base)
            }
            // no stacker: the members are ranked, best single model first
            None => self.members[0].predict_proba(x),
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
            let pos = rng.chance(0.25);
            let c = if pos { 1.3f32 } else { -1.3 };
            rows.push(vec![c + rng.normal(), rng.normal()]);
            y.push(if pos { 1.0 } else { 0.0 });
        }
        TabularData::new(Matrix::from_rows(&rows), y)
    }

    #[test]
    fn end_to_end() {
        let train = blob_data(300, 1);
        let valid = blob_data(120, 2);
        let test = blob_data(120, 3);
        let mut sys = H2oStyle::new(11);
        let mut budget = Budget::hours(1.0).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        assert!(report.leaderboard.len() >= 3);
        let f1 = f1_score(&sys.predict(&test.x), &test.labels_bool());
        assert!(f1 > 85.0, "F1 {f1}");
    }

    #[test]
    fn can_finish_under_budget() {
        // tiny dataset: the MAX_MODELS cap stops the search early
        let train = blob_data(80, 4);
        let valid = blob_data(40, 5);
        let mut sys = H2oStyle::new(2);
        let mut budget = Budget::hours(10.0).unwrap();
        sys.fit(&train, &valid, &mut budget).unwrap();
        assert!(!budget.exhausted());
        assert!(budget.used_hours() < 5.0);
    }

    #[test]
    fn deterministic() {
        let train = blob_data(200, 6);
        let valid = blob_data(80, 7);
        let run = || {
            let mut sys = H2oStyle::new(3);
            let mut budget = Budget::hours(1.0).unwrap();
            sys.fit(&train, &valid, &mut budget).unwrap();
            sys.predict_proba(&valid.x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stacking_never_selected_when_worse() {
        // with a nearly perfect single model the chosen val F1 must be at
        // least the best single model's F1
        let train = blob_data(250, 8);
        let valid = blob_data(100, 9);
        let mut sys = H2oStyle::new(4);
        let mut budget = Budget::hours(2.0).unwrap();
        let report = sys.fit(&train, &valid, &mut budget).unwrap();
        let best_single = report
            .leaderboard
            .entries()
            .iter()
            .filter(|e| !e.model.starts_with("super_learner"))
            .map(|e| e.val_f1)
            .fold(f64::MIN, f64::max);
        assert!(report.val_f1 >= best_single - 1e-9);
    }
}
