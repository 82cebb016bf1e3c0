//! Drift detection over the event stream: candidate-pair churn plus
//! score-distribution shift, evaluated on a sliding window of events.
//!
//! Both signals are cheap, deterministic functions of state the stream
//! already maintains — no model retraining is needed to *notice* drift:
//!
//! * **Candidate churn** — the symmetric difference between the blocking
//!   index's candidate set now and at the last window boundary, as a
//!   fraction of the larger set. Records drifting to new vocabulary
//!   rewire the candidate graph long before F1 visibly decays. The
//!   blocker counts the pairs whose candidate status flipped since the
//!   last boundary ([`IncrementalBlocker::mark_window`]), so a window
//!   close costs O(1), not a copy of the candidate set.
//! * **Score shift** — total-variation distance between the normalized
//!   histogram of match scores observed in this window and the baseline
//!   window's. A matcher drifting off its training distribution stops
//!   being bimodal-confident; mass migrates toward the middle bins.
//!
//! Crossing either threshold at a window boundary yields a
//! [`DriftReport`], and the caller launches the background re-search
//! (`crate::continuous`). The monitor then re-baselines so the same
//! drift is not reported twice.

use em_data::IncrementalBlocker;

/// Histogram bins for match scores in `[0, 1]`.
const SCORE_BINS: usize = 10;

/// Thresholds and window size for drift detection.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Events per evaluation window.
    pub window_events: usize,
    /// Candidate churn fraction (symmetric difference / larger set) at or
    /// above which drift fires.
    pub churn_threshold: f64,
    /// Total-variation distance between score histograms at or above
    /// which drift fires.
    pub score_shift_threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window_events: 64,
            churn_threshold: 0.35,
            score_shift_threshold: 0.25,
        }
    }
}

/// One detected drift episode.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// 1-based index of the drift episode (drives snapshot derivation).
    pub epoch: u64,
    /// Candidate churn fraction in the closing window.
    pub churn: f64,
    /// Score-histogram total-variation distance in the closing window.
    pub score_shift: f64,
    /// Events applied when the report fired.
    pub at_event: u64,
}

/// The sliding-window drift monitor. One monitor observes one blocker:
/// its window closes are the blocker's churn marks.
pub struct DriftMonitor {
    config: DriftConfig,
    /// Candidate count at the last window close.
    baseline_candidates: usize,
    baseline_hist: Option<[f64; SCORE_BINS]>,
    window_scores: Vec<f64>,
    window_events: usize,
    total_events: u64,
    epochs: u64,
    primed: bool,
}

impl DriftMonitor {
    /// A monitor with `config`, baselined on an empty state.
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            baseline_candidates: 0,
            baseline_hist: None,
            window_scores: Vec::new(),
            window_events: 0,
            total_events: 0,
            epochs: 0,
            primed: false,
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Drift episodes reported so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Record one match score observed in the current window.
    pub fn note_score(&mut self, score: f64) {
        if score.is_finite() {
            self.window_scores.push(score.clamp(0.0, 1.0));
        }
    }

    /// Record one applied event and, at window boundaries, evaluate both
    /// drift signals against `blocker`'s current candidate set. Returns
    /// a report (and re-baselines) when a threshold is crossed.
    pub fn observe(&mut self, blocker: &IncrementalBlocker) -> Option<DriftReport> {
        self.window_events += 1;
        self.total_events += 1;
        if self.window_events < self.config.window_events {
            return None;
        }
        self.window_events = 0;
        obs::counter("stream.drift.windows").inc();

        let current = blocker.candidate_count();
        let flips = blocker.mark_window();
        // before the first close the baseline is the empty set, so every
        // live candidate counts as churn
        let sym_diff = match flips {
            Some(flips) if self.primed => flips,
            _ => current,
        };
        let denom = current.max(self.baseline_candidates).max(1);
        let churn = sym_diff as f64 / denom as f64;

        let hist = Self::histogram(&self.window_scores);
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

        obs::gauge("stream.drift.churn").set(churn);
        obs::gauge("stream.drift.score_shift").set(score_shift);

        // the very first window only primes the baselines — there is no
        // previous window for "change since last window" to mean anything
        let fired = self.primed
            && (churn >= self.config.churn_threshold
                || score_shift >= self.config.score_shift_threshold);
        self.primed = true;

        // re-baseline on every window close: drift is measured against
        // the *previous* window, not against t=0 — but keep the score
        // baseline when this window had no scores to compare
        self.baseline_candidates = current;
        if hist.is_some() {
            self.baseline_hist = hist;
        }
        self.window_scores.clear();

        if !fired {
            return None;
        }
        self.epochs += 1;
        obs::counter("stream.drift.triggers").inc();
        obs::emit(
            "stream.drift",
            &[
                ("epoch", obs::Value::U64(self.epochs)),
                ("churn", obs::Value::F64(churn)),
                ("score_shift", obs::Value::F64(score_shift)),
            ],
        );
        Some(DriftReport {
            epoch: self.epochs,
            churn,
            score_shift,
            at_event: self.total_events,
        })
    }

    fn histogram(scores: &[f64]) -> Option<[f64; SCORE_BINS]> {
        if scores.is_empty() {
            return None;
        }
        let mut hist = [0.0f64; SCORE_BINS];
        for &s in scores {
            let bin = ((s * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1);
            hist[bin] += 1.0;
        }
        let n = scores.len() as f64;
        for h in &mut hist {
            *h /= n;
        }
        Some(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{AttrType, Attribute, BlockerConfig, Entity, Schema, Side};

    fn blocker() -> IncrementalBlocker {
        let schema = Schema::new(vec![Attribute::new("name", AttrType::Text)]);
        IncrementalBlocker::new(
            &schema,
            BlockerConfig {
                max_token_frequency: 1.0,
                ..BlockerConfig::default()
            },
        )
    }

    fn ent(name: &str) -> Entity {
        Entity::new(vec![Some(name.to_owned())])
    }

    #[test]
    fn stable_stream_never_fires() {
        let mut b = blocker();
        b.upsert(Side::Left, 1, &ent("alpha beta"));
        b.upsert(Side::Right, 2, &ent("alpha gamma"));
        let mut m = DriftMonitor::new(DriftConfig {
            window_events: 4,
            ..DriftConfig::default()
        });
        for _ in 0..3 {
            // same candidate set, same (empty) score stream, every window
            for _ in 0..4 {
                assert_eq!(m.observe(&b), None);
            }
        }
        assert_eq!(m.epochs(), 0);
    }

    #[test]
    fn candidate_churn_fires_and_rebaselines() {
        let mut b = blocker();
        b.upsert(Side::Left, 1, &ent("alpha"));
        b.upsert(Side::Right, 100, &ent("alpha"));
        let mut m = DriftMonitor::new(DriftConfig {
            window_events: 2,
            churn_threshold: 0.5,
            score_shift_threshold: 2.0, // unreachable: isolate churn
        });
        // first window only primes the baseline on the 1-pair set
        m.observe(&b);
        m.observe(&b);
        // rewire the candidate graph completely
        b.remove(Side::Right, 100);
        b.upsert(Side::Right, 200, &ent("beta"));
        b.upsert(Side::Left, 2, &ent("beta"));
        m.observe(&b);
        let report = m.observe(&b).expect("churn must fire");
        assert!(report.churn >= 0.5, "churn {}", report.churn);
        // …and after re-baselining, the same state is quiet
        m.observe(&b);
        assert_eq!(m.observe(&b), None);
    }

    #[test]
    fn score_distribution_shift_fires() {
        let b = blocker();
        let mut m = DriftMonitor::new(DriftConfig {
            window_events: 4,
            churn_threshold: 2.0, // unreachable: isolate score shift
            score_shift_threshold: 0.5,
        });
        // bimodal-confident baseline window
        for s in [0.05, 0.95, 0.02, 0.98] {
            m.note_score(s);
        }
        for _ in 0..4 {
            assert_eq!(m.observe(&b), None);
        }
        // drifted window: everything lands mid-scale
        for s in [0.45, 0.52, 0.48, 0.55] {
            m.note_score(s);
        }
        for _ in 0..3 {
            assert_eq!(m.observe(&b), None);
        }
        let report = m.observe(&b).expect("score shift must fire");
        assert!(report.score_shift >= 0.5, "shift {}", report.score_shift);
    }
}
