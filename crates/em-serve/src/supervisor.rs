//! Worker supervision: keep the batch workers alive across panics.
//!
//! Each supervised thread runs [`Batcher::run_supervised`] in a loop. A
//! [`WorkerExit::Drained`] ends the thread (normal shutdown); a
//! [`WorkerExit::Panicked`] records a failure on the shared
//! [`par::CircuitBreaker`], sleeps an exponential-with-jitter [`Backoff`]
//! delay, and restarts the worker loop. A worker that scored at least
//! one batch before dying resets its backoff — only *consecutive*
//! zero-progress deaths escalate the delay.
//!
//! The breaker is the coupling point to admission: once
//! `restart_max` failures land inside `restart_window`, the breaker
//! trips and [`Batcher::submit`](crate::batcher::Batcher::submit) starts
//! refusing with `503` + `Retry-After` until the cooldown half-opens it;
//! the first successfully scored batch after that closes it again. The
//! supervisor itself never stops restarting — an open breaker sheds
//! *new* load while restarts keep draining whatever is already queued.
//!
//! Backoff sleeps are chopped into short ticks and cut short when the
//! batcher starts draining, so shutdown never waits out a restart delay.

use crate::batcher::{Batcher, WorkerExit};
use crate::reload::HostCell;
use par::Backoff;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Restart policy for one server's worker pool.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// First restart delay (doubles per consecutive failure).
    pub backoff_base: Duration,
    /// Pre-jitter ceiling on the restart delay.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter (worker index is
    /// folded in so siblings don't restart in lockstep).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(1000),
            seed: 0xE55E_12E5,
        }
    }
}

/// Spawn `n` supervised worker threads over a shared batcher and model
/// cell. Threads exit when the batcher drains; join the handles after
/// calling [`Batcher::shutdown`].
pub fn spawn_workers(
    n: usize,
    batcher: &Batcher,
    cell: &Arc<HostCell>,
    cfg: &SupervisorConfig,
) -> Vec<JoinHandle<()>> {
    (0..n.max(1))
        .map(|i| {
            let batcher = batcher.clone();
            let cell = Arc::clone(cell);
            let cfg = cfg.clone();
            thread::Builder::new()
                .name(format!("em-serve-worker-{i}"))
                .spawn(move || supervise(i, &batcher, &cell, &cfg))
                .expect("spawn worker thread")
        })
        .collect()
}

/// The supervision loop for one worker slot.
fn supervise(index: usize, batcher: &Batcher, cell: &HostCell, cfg: &SupervisorConfig) {
    let mut backoff = Backoff::new(
        cfg.backoff_base,
        cfg.backoff_cap,
        cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    loop {
        // belt and braces: run_supervised already catches per-batch
        // panics, but a panic in the batching machinery itself (queue,
        // condvar, obs) must not kill the supervision thread either
        let exit = par::catch_panic({
            let batcher = batcher.clone();
            move || batcher.run_supervised(cell)
        });
        let (message, batches_done) = match exit {
            Ok(WorkerExit::Drained) => return,
            Ok(WorkerExit::Panicked {
                message,
                batches_done,
            }) => (message, batches_done),
            Err(message) => (message, 0),
        };
        obs::counter("serve.worker.restarts").inc();
        obs::emit(
            "serve.worker.panic",
            &[
                ("worker", obs::Value::U64(index as u64)),
                ("batches_done", obs::Value::U64(batches_done)),
                ("message", obs::Value::Str(message.clone())),
            ],
        );
        if batcher.breaker().record_failure() {
            obs::counter("serve.breaker.trips").inc();
        }
        if batches_done > 0 {
            // the worker was healthy before this death: fresh schedule
            backoff.reset();
        }
        sleep_interruptible(batcher, backoff.next_delay());
    }
}

/// Sleep up to `delay`, returning early once the batcher starts
/// draining so queued jobs are picked up without waiting out a backoff.
fn sleep_interruptible(batcher: &Batcher, delay: Duration) {
    let tick = Duration::from_millis(5);
    let mut remaining = delay;
    while remaining > Duration::ZERO {
        if batcher.is_draining() {
            return;
        }
        let step = remaining.min(tick);
        thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automl::fault::ServeFaultPlan;
    use em_core::model::{ModelHost, ModelSpec};
    use em_data::Split;
    use par::CircuitBreaker;

    fn tiny_host() -> ModelHost {
        ModelSpec {
            scale: 0.25,
            budget_hours: 0.1,
            ..ModelSpec::fixture()
        }
        .train()
        .unwrap()
    }

    #[test]
    fn supervisor_restarts_worker_after_injected_panic() {
        automl::fault::silence_injected_panic_output();
        let host = tiny_host();
        let pairs = host.dataset().split(Split::Test).to_vec();
        let direct = host.match_proba(&pairs[..2]);
        let cell = HostCell::new(Arc::new(host), 1);
        let batcher = Batcher::new(
            1, // one pair per batch: batch index == request index
            1024,
            ServeFaultPlan::none().panic_batcher_at(0),
            CircuitBreaker::new(100, Duration::from_secs(60), Duration::from_millis(50)),
        );
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            seed: 7,
        };
        let handles = spawn_workers(1, &batcher, &cell, &cfg);
        // batch 0 panics → typed failure; batch 1 succeeds after restart
        let w0 = batcher.submit(vec![pairs[0].clone()], "match").unwrap();
        assert!(w0.wait().is_err(), "batch 0 carries the injected panic");
        let w1 = batcher.submit(vec![pairs[1].clone()], "match").unwrap();
        let scored = w1.wait().expect("restarted worker scores batch 1");
        assert_eq!(scored.probs[0].to_bits(), direct[1].to_bits());
        batcher.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn repeated_panics_trip_the_breaker_into_typed_refusals() {
        automl::fault::silence_injected_panic_output();
        let host = tiny_host();
        let pairs = host.dataset().split(Split::Test).to_vec();
        let cell = HostCell::new(Arc::new(host), 1);
        let batcher = Batcher::new(
            1,
            1024,
            ServeFaultPlan::none()
                .panic_batcher_at(0)
                .panic_batcher_at(1),
            CircuitBreaker::new(2, Duration::from_secs(60), Duration::from_secs(30)),
        );
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            seed: 7,
        };
        let handles = spawn_workers(1, &batcher, &cell, &cfg);
        let w0 = batcher.submit(vec![pairs[0].clone()], "match").unwrap();
        assert!(w0.wait().is_err());
        let w1 = batcher.submit(vec![pairs[1].clone()], "match").unwrap();
        assert!(w1.wait().is_err());
        // two restart failures in the window → breaker open → refusal
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match batcher.submit(vec![pairs[2].clone()], "match") {
                Err(crate::batcher::Rejected::Unavailable { retry_after_secs }) => {
                    assert!(retry_after_secs >= 1);
                    break;
                }
                Ok(w) => {
                    // supervisor hasn't recorded the second failure yet
                    let _ = w.wait();
                }
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
            assert!(std::time::Instant::now() < deadline, "breaker never opened");
            thread::sleep(Duration::from_millis(2));
        }
        batcher.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }
}
