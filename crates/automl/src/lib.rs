//! # automl — AutoML engines in the style of the paper's systems
//!
//! The paper pipelines its EM adapter with AutoSklearn, AutoGluon and
//! H2OAutoML. None exists in Rust, so this crate reimplements the *search
//! strategy* that defines each system, on top of the `ml` model zoo, plus
//! one search strategy the paper does not use:
//!
//! * [`sklearn_like::AutoSklearnStyle`] — meta-learning warm starts, then
//!   **Bayesian optimization** (SMBO with a random-forest surrogate and
//!   expected improvement), finished by **greedy ensemble selection**
//!   (Caruana). Always consumes its full budget, like the real system.
//! * [`gluon_like::AutoGluonStyle`] — **no hyperparameter search**: a fixed
//!   roster of model families (GBM, CatBoost-style oblivious GBM, random
//!   forest, extra-trees, kNN), k-fold **bagging** and **multi-layer
//!   stacking** with out-of-fold features.
//! * [`h2o_like::H2oStyle`] — **fast random search** over the space plus a
//!   **super learner**: a stacked ensemble whose metalearner is a
//!   ridge-regularized GLM over out-of-fold predictions.
//! * [`halving::SuccessiveHalving`] — **successive halving**: many cheap
//!   configurations on a data subsample, the top third promoted to twice
//!   the data each rung (the Hyperband/ASHA class), for the `ablations`
//!   bench's search-strategy comparison.
//!
//! Each engine is only a policy — what to plan and how to combine the
//! fitted models. Journaling, guarded execution, budget charging, trial
//! telemetry and the leaderboard live in one crate-internal search driver
//! under [`journal`], so every engine gets the same crash-safety and
//! fault-isolation contract.
//!
//! Budgets ([`budget::Budget`]) are counted in deterministic *units* rather
//! than wall-clock seconds so every experiment is reproducible; the unit
//! scale is calibrated so one paper-hour ≈ [`budget::UNITS_PER_HOUR`] units
//! and a model's cost grows with training-set size — which reproduces the
//! paper's observed training-time patterns (e.g. AutoGluon taking > 4 h on
//! DBLP-GoogleScholar but minutes on the beer dataset).

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod budget;
pub mod ensemble;
pub mod fault;
pub mod gluon_like;
pub mod h2o_like;
pub mod halving;
pub mod journal;
pub mod leaderboard;
pub mod sklearn_like;
pub mod smbo;
pub mod space;
pub(crate) mod trial;

use linalg::Matrix;
use ml::dataset::TabularData;

pub use budget::Budget;
pub use fault::{Fault, FaultPlan, FaultSpecError};
pub use journal::ResumePolicy;
pub use leaderboard::{FitReport, Leaderboard, LeaderboardEntry};
pub use ml::TrialError;
pub use par::{CancelToken, Deadline};

/// A complete AutoML system: give it train/validation data and a budget,
/// get a fitted predictor with a validation-tuned decision threshold.
pub trait AutoMlSystem {
    /// System name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Run the system's full search under `budget`. Models are trained on
    /// `train`; all selection, stacking and threshold tuning uses `valid`.
    ///
    /// Individual candidate failures (NaN scores, panicking fits,
    /// injected faults) are quarantined on the report's leaderboard and
    /// the search continues; `Err` means the *run itself* could not
    /// produce a predictor — every trial failed
    /// ([`TrialError::AllTrialsFailed`]) or the budget could not cover a
    /// single fit ([`TrialError::BudgetExceeded`]).
    ///
    /// Equivalent to [`AutoMlSystem::fit_resumable`] with no journal and
    /// no deadline.
    fn fit(
        &mut self,
        train: &TabularData,
        valid: &TabularData,
        budget: &mut Budget,
    ) -> Result<FitReport, TrialError> {
        self.fit_resumable(train, valid, budget, &ResumePolicy::Fresh, Deadline::none())
    }

    /// Crash-safe variant of [`AutoMlSystem::fit`].
    ///
    /// `policy` connects the search to an on-disk write-ahead journal
    /// (see [`journal`]): with [`ResumePolicy::Resume`] a prior
    /// interrupted run's trials are replayed instead of repeated, and the
    /// final report is byte-identical to the uninterrupted run's.
    /// `deadline` is a wall-clock ceiling: once it passes the engine
    /// stops planning new trials, abandons in-flight fits cooperatively
    /// (quarantined as [`TrialError::DeadlineExceeded`]) and returns its
    /// best-so-far report — total overrun is bounded by one
    /// trial-cancellation grace period.
    fn fit_resumable(
        &mut self,
        train: &TabularData,
        valid: &TabularData,
        budget: &mut Budget,
        policy: &ResumePolicy,
        deadline: Deadline,
    ) -> Result<FitReport, TrialError>;

    /// Match probability per row (requires a prior `fit`).
    fn predict_proba(&self, x: &Matrix) -> Vec<f32>;

    /// The decision threshold tuned on validation data during `fit`.
    fn threshold(&self) -> f32;

    /// Hard predictions using the tuned threshold.
    fn predict(&self, x: &Matrix) -> Vec<bool> {
        let t = self.threshold();
        self.predict_proba(x).iter().map(|&p| p >= t).collect()
    }
}

/// The three systems, boxed, in the order the paper's tables list them.
pub fn all_systems(seed: u64) -> Vec<Box<dyn AutoMlSystem>> {
    vec![
        Box::new(sklearn_like::AutoSklearnStyle::new(seed)),
        Box::new(gluon_like::AutoGluonStyle::new(seed)),
        Box::new(h2o_like::H2oStyle::new(seed)),
    ]
}
