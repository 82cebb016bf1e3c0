//! The guarded trial boundary the search driver runs every trial through.
//!
//! [`guard_trial`] is the single place where a candidate fit can go wrong
//! without taking the search down with it. It applies any injected
//! [`Fault`], installs the run's cancellation token so model fit loops
//! can abandon work once the wall-clock deadline passes, catches panics
//! from model code via [`par::catch_panic`], and validates that the
//! trial's outputs are finite — so by the time an engine sees `Ok`, the
//! probabilities and score are safe to store in a [`crate::FitReport`]
//! (which must stay NaN-free to keep its `PartialEq` byte-identity
//! contract across thread counts).

use crate::fault::{Fault, INJECTED_KILL_MSG, INJECTED_PANIC_MSG};
use ml::TrialError;
use par::CancelToken;

/// A successful trial: the fitted model, its validation probabilities
/// and its validation score.
pub(crate) type Fitted<T> = (T, Vec<f32>, f64);

/// Outcome of one guarded candidate evaluation.
pub(crate) type TrialOutcome<T> = Result<Fitted<T>, TrialError>;

/// Ceiling on how long a [`Fault::Hang`] may spin when no deadline is
/// set, so a misconfigured fault plan cannot wedge a test run forever.
const HANG_SAFETY_VALVE: std::time::Duration = std::time::Duration::from_secs(60);

/// Run one candidate evaluation inside the fault boundary.
///
/// `fault` is the injected fault scheduled for this trial (if any);
/// `token` is the run's cancellation token, installed around `f` so fit
/// loops deep in `ml` can poll [`par::cancel_requested`]; `f` builds,
/// fits, predicts and scores the candidate, returning
/// `(model, validation probabilities, score)`. On success the
/// probabilities and the score are checked for finiteness — a NaN or
/// infinity anywhere quarantines the trial as
/// [`TrialError::NonFiniteScore`] rather than letting it poison a sort or
/// a stored report. A trial whose deadline already passed (or that was
/// abandoned mid-fit) is quarantined as [`TrialError::DeadlineExceeded`].
pub(crate) fn guard_trial<T>(
    fault: Option<Fault>,
    token: &CancelToken,
    f: impl FnOnce() -> TrialOutcome<T>,
) -> TrialOutcome<T> {
    if matches!(fault, Some(Fault::Fail)) {
        return Err(TrialError::Injected("trial failure"));
    }
    if matches!(fault, Some(Fault::Kill)) {
        // Simulated process death: raised *outside* `catch_panic` so the
        // unwind escapes the trial boundary, aborts the whole engine
        // scope, and leaves only fsync'd journal records behind — the
        // in-process stand-in for SIGKILL that the kill-and-resume tests
        // are built on. Only reachable through an injected fault plan,
        // never on a clean run.
        #[allow(clippy::panic)]
        std::panic::panic_any(INJECTED_KILL_MSG.to_owned());
    }
    if token.is_cancelled() {
        // Deadline passed before this trial even started: abandon it
        // without doing any work so the engine's overrun stays bounded
        // by the one trial that was already in flight.
        return Err(TrialError::DeadlineExceeded);
    }
    let inner_token = token.clone();
    let caught = par::catch_panic(move || {
        par::with_cancel(&inner_token, || {
            if matches!(fault, Some(Fault::Panic)) {
                // Payload deliberately matches INJECTED_PANIC_MSG so the
                // test-only panic hook can keep it off stderr. This panic
                // is the fault being injected — it is caught by the same
                // `catch_panic` boundary that guards real fits.
                #[allow(clippy::panic)]
                std::panic::panic_any(INJECTED_PANIC_MSG.to_owned());
            }
            if matches!(fault, Some(Fault::Hang)) {
                // Simulated hung trial: spin until the deadline's token
                // cancels us (the path a wedged fit would take), with a
                // safety valve so a plan without a deadline terminates.
                let start = std::time::Instant::now();
                loop {
                    if par::cancel_requested() {
                        return Err(TrialError::DeadlineExceeded);
                    }
                    if start.elapsed() > HANG_SAFETY_VALVE {
                        eprintln!(
                            "warning: hang fault ran {}s with no deadline; abandoning trial",
                            HANG_SAFETY_VALVE.as_secs()
                        );
                        return Err(TrialError::DeadlineExceeded);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            let mut out = f();
            if matches!(fault, Some(Fault::NanScore)) {
                if let Ok((_, _, score)) = &mut out {
                    *score = f64::NAN;
                }
            }
            out
        })
    });
    let (model, probs, score) = match caught {
        Ok(result) => result?,
        Err(panic_msg) => return Err(TrialError::FitPanic(panic_msg)),
    };
    if probs.iter().any(|p| !p.is_finite()) {
        return Err(TrialError::NonFiniteScore {
            stage: "probability",
        });
    }
    if !score.is_finite() {
        return Err(TrialError::NonFiniteScore { stage: "score" });
    }
    Ok((model, probs, score))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_trial() -> TrialOutcome<&'static str> {
        Ok(("model", vec![0.1, 0.9], 72.5))
    }

    fn free() -> CancelToken {
        CancelToken::unbounded()
    }

    #[test]
    fn clean_trial_passes_through() {
        let (m, probs, score) = guard_trial(None, &free(), ok_trial).unwrap();
        assert_eq!(m, "model");
        assert_eq!(probs, vec![0.1, 0.9]);
        assert_eq!(score, 72.5);
    }

    #[test]
    fn fail_fault_short_circuits() {
        let err = guard_trial::<&'static str>(Some(Fault::Fail), &free(), || {
            unreachable!("Fail must not run the trial")
        })
        .unwrap_err();
        assert_eq!(err.kind(), "injected");
    }

    #[test]
    fn nan_fault_is_quarantined_as_non_finite_score() {
        let err = guard_trial(Some(Fault::NanScore), &free(), ok_trial).unwrap_err();
        assert_eq!(err, TrialError::NonFiniteScore { stage: "score" });
    }

    #[test]
    fn panic_fault_is_caught_at_the_boundary() {
        crate::fault::silence_injected_panic_output();
        let err = guard_trial(Some(Fault::Panic), &free(), ok_trial).unwrap_err();
        assert_eq!(err.kind(), "fit_panic");
        assert!(err.to_string().contains("injected fault: panic"));
    }

    #[test]
    fn real_panics_are_caught_too() {
        crate::fault::silence_injected_panic_output();
        let err: TrialError = guard_trial::<()>(None, &free(), || {
            std::panic::panic_any(format!("{INJECTED_PANIC_MSG} (simulated model bug)"));
        })
        .unwrap_err();
        assert_eq!(err.kind(), "fit_panic");
    }

    #[test]
    fn kill_fault_escapes_the_boundary() {
        crate::fault::silence_injected_panic_output();
        let unwound = std::panic::catch_unwind(|| {
            let _ = guard_trial(Some(Fault::Kill), &free(), ok_trial);
        });
        assert!(unwound.is_err(), "Kill must unwind through guard_trial");
    }

    #[test]
    fn cancelled_token_abandons_the_trial_before_it_starts() {
        let token = free();
        token.cancel();
        let err = guard_trial::<&'static str>(Some(Fault::Hang), &token, || {
            unreachable!("cancelled trial must not run")
        })
        .unwrap_err();
        assert_eq!(err, TrialError::DeadlineExceeded);
    }

    #[test]
    fn hang_fault_is_abandoned_when_the_deadline_fires() {
        let deadline = par::Deadline::within(std::time::Duration::from_millis(30));
        let err = guard_trial(Some(Fault::Hang), &deadline.token(), ok_trial).unwrap_err();
        assert_eq!(err, TrialError::DeadlineExceeded);
    }

    #[test]
    fn token_is_visible_to_the_trial_body() {
        let token = free();
        let inner = token.clone();
        let (seen, _, _) = guard_trial(None, &token, move || {
            inner.cancel();
            Ok((par::cancel_requested(), vec![0.5], 1.0))
        })
        .unwrap();
        assert!(seen, "ml fit loops must observe the installed token");
    }

    #[test]
    fn non_finite_probabilities_are_quarantined() {
        let err = guard_trial(None, &free(), || Ok(("m", vec![0.2, f32::NAN], 50.0))).unwrap_err();
        assert_eq!(
            err,
            TrialError::NonFiniteScore {
                stage: "probability"
            }
        );
        let err = guard_trial(None, &free(), || Ok(("m", vec![f32::INFINITY], 50.0))).unwrap_err();
        assert_eq!(err.kind(), "non_finite_score");
    }

    #[test]
    fn non_finite_score_is_quarantined() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = guard_trial(None, &free(), || Ok(("m", vec![0.5], bad))).unwrap_err();
            assert_eq!(err, TrialError::NonFiniteScore { stage: "score" });
        }
    }

    #[test]
    fn inflate_cost_does_not_alter_the_outcome() {
        // cost inflation is applied by the driver's budget accounting, not
        // by the guard — the trial itself must be untouched
        let (_, _, score) = guard_trial(Some(Fault::InflateCost(3.0)), &free(), ok_trial).unwrap();
        assert_eq!(score, 72.5);
    }
}
