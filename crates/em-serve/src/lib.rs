//! # em-serve — online entity matching as a service
//!
//! A long-running, std-only HTTP/1.1 server that turns a trained
//! [`em_core::model::ModelHost`] into an online matcher: `POST /match`
//! takes two entity descriptions and answers `P(match)` under the
//! winner's validation-tuned threshold; `POST /match/batch` scores many
//! pairs in one call. The serving contract is **bit-identity**: every
//! probability equals what the offline `predict` path produces for the
//! same pair, whatever microbatch it happened to ride in — see
//! [`batcher`] for why coalescing cannot change answers.
//!
//! Five moving parts:
//!
//! * [`http`] — incremental HTTP/1.1 parsing with keep-alive,
//!   pipelining and hard caps (no chunked bodies, `Content-Length`
//!   only).
//! * [`batcher`] — the request coalescer: a bounded queue where
//!   concurrent small requests merge into GEMM-sized microbatches (a
//!   free worker takes whatever is queued, up to `max_batch` pairs, with
//!   no timer), with typed admission control (`429 overloaded` / `503
//!   draining` / `503 breaker_open` + `Retry-After`).
//! * [`supervisor`] — keeps batch workers alive across panics:
//!   exponential-backoff restarts, typed `500`s for the batch that
//!   died, and a circuit breaker that sheds load after repeated
//!   failures instead of crash-looping.
//! * [`reload`] — zero-drop model hot-swap: `POST /admin/reload` loads
//!   and bit-verifies a new bundle off the hot path, then flips an
//!   `Arc` between microbatches; every response names the exact model
//!   version that scored it (`x-model-version`), and a WAL journal
//!   makes crash-mid-swap recovery well-defined.
//! * [`server`] — accept loop, per-connection threads behind a
//!   [`par::Gate`], and graceful shutdown that answers everything
//!   admitted before hanging up.
//!
//! Chaos-testing hooks ride the `AUTOML_EM_FAULTS` grammar
//! ([`automl::fault::ServeFaultPlan`]): `panic@batcher:K`,
//! `err@predict:K`, `slow@embed:MS`, `torn@client`, `loris@client:MS`.
//! `serve_bench --chaos` drives them and asserts the serving invariant:
//! every accepted request gets exactly one correct-or-typed-error
//! response, and post-fault responses stay bit-identical to offline
//! predict.
//!
//! Configuration comes from `AUTOML_EM_SERVE_*` environment variables
//! ([`ServeConfig::from_env`]); every route increments `serve.*`
//! counters and latency histograms in the [`obs`] registry, exposed
//! live at `GET /metrics`. The serving handbook lives in
//! `docs/SERVING.md`; `bench/src/bin/serve_bench.rs` measures p50/p99
//! latency and sustained QPS into `results/BENCH_serve.json`.

#![warn(missing_docs)]

pub mod batcher;
pub mod http;
pub mod reload;
pub mod server;
pub mod supervisor;

pub use batcher::{Batcher, Rejected, Scored, ServeFailure, Waiter, WorkerExit};
pub use http::{parse_request, render_response, HttpError, Request};
pub use reload::{HostCell, ReloadError, Reloader, SwapJournal, VersionedHost};
pub use server::{serve, ServerHandle};
pub use supervisor::SupervisorConfig;

/// Exponential latency buckets in microseconds (64 µs … ~4 s), shared by
/// the per-route latency and the per-stage histograms.
const LATENCY_BOUNDS_US: &[f64] = &[
    64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 32768.0, 65536.0, 131072.0,
    262144.0, 524288.0, 1048576.0, 2097152.0, 4194304.0,
];

/// Server tuning knobs, each overridable via an `AUTOML_EM_SERVE_*`
/// environment variable (see [`from_env`](Self::from_env)).
///
/// ```
/// let config = em_serve::ServeConfig::default();
/// assert_eq!(config.addr, "127.0.0.1:8642");
/// assert_eq!(config.max_batch, 32);
/// // struct-update syntax is the idiomatic way to tweak one knob:
/// let test_config = em_serve::ServeConfig { addr: "127.0.0.1:0".into(), ..config };
/// assert_eq!(test_config.workers, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`AUTOML_EM_SERVE_ADDR`, default `127.0.0.1:8642`;
    /// use port `0` to let the OS pick — read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Maximum pairs fused into one predict microbatch
    /// (`AUTOML_EM_SERVE_MAX_BATCH`, default 32).
    pub max_batch: usize,
    /// Admission cap: maximum pairs queued and not yet scored
    /// (`AUTOML_EM_SERVE_QUEUE`, default 256). Beyond it, submissions
    /// get `429 overloaded`.
    pub queue_pairs: usize,
    /// Maximum accepted request body in bytes
    /// (`AUTOML_EM_SERVE_MAX_BODY`, default 1 MiB → `413` beyond).
    pub max_body: usize,
    /// Maximum concurrent connections (`AUTOML_EM_SERVE_MAX_CONNS`,
    /// default 64 → `429 too_many_connections` beyond).
    pub max_conns: usize,
    /// Graceful-shutdown drain window in milliseconds
    /// (`AUTOML_EM_SERVE_DRAIN_MS`, default 5000).
    pub drain_ms: u64,
    /// Batch worker threads (`AUTOML_EM_SERVE_WORKERS`, default 1 —
    /// the predict pass already parallelizes internally over the `par`
    /// pool, so more workers only help when batches are small).
    pub workers: usize,
    /// Worker restarts within [`restart_window_ms`](Self::restart_window_ms)
    /// that trip the circuit breaker (`AUTOML_EM_SERVE_RESTART_MAX`,
    /// default 5).
    pub restart_max: usize,
    /// Sliding window for counting worker restarts, in milliseconds
    /// (`AUTOML_EM_SERVE_RESTART_WINDOW_MS`, default 30000).
    pub restart_window_ms: u64,
    /// How long a tripped breaker refuses work before half-opening, in
    /// milliseconds (`AUTOML_EM_SERVE_BREAKER_COOLDOWN_MS`, default
    /// 1000). Also the basis of the `Retry-After` header on `503
    /// breaker_open` responses.
    pub breaker_cooldown_ms: u64,
    /// First worker-restart backoff delay, in milliseconds
    /// (`AUTOML_EM_SERVE_BACKOFF_BASE_MS`, default 10). Doubles per
    /// consecutive zero-progress restart.
    pub backoff_base_ms: u64,
    /// Pre-jitter ceiling on the restart backoff, in milliseconds
    /// (`AUTOML_EM_SERVE_BACKOFF_CAP_MS`, default 1000).
    pub backoff_cap_ms: u64,
    /// Path of the hot-swap WAL journal
    /// (`AUTOML_EM_SERVE_SWAP_JOURNAL`; unset → swaps work but are not
    /// journaled and crash-mid-swap recovery is unavailable).
    pub swap_journal: Option<String>,
    /// Serve-path fault plan, parsed from the serve productions of
    /// `AUTOML_EM_FAULTS` (`panic@batcher:K`, `err@predict:K`,
    /// `slow@embed:MS`, `torn@client`, `loris@client:MS`). Empty by
    /// default; only chaos harnesses set this.
    pub faults: automl::fault::ServeFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8642".into(),
            max_batch: 32,
            queue_pairs: 256,
            max_body: 1 << 20,
            max_conns: 64,
            drain_ms: 5000,
            workers: 1,
            restart_max: 5,
            restart_window_ms: 30_000,
            breaker_cooldown_ms: 1000,
            backoff_base_ms: 10,
            backoff_cap_ms: 1000,
            swap_journal: None,
            faults: automl::fault::ServeFaultPlan::none(),
        }
    }
}

impl ServeConfig {
    /// Read the configuration from `AUTOML_EM_SERVE_*` environment
    /// variables, falling back to the defaults field by field.
    /// Unparseable values fall back silently — the server should come
    /// up with defaults rather than refuse to start over a typo'd
    /// tuning knob (the bind address is taken verbatim and *will*
    /// surface as a bind error, which is the one mistake that must not
    /// be papered over).
    pub fn from_env() -> Self {
        let d = Self::default();
        Self {
            addr: std::env::var("AUTOML_EM_SERVE_ADDR").unwrap_or(d.addr),
            max_batch: env_parse("AUTOML_EM_SERVE_MAX_BATCH", d.max_batch),
            queue_pairs: env_parse("AUTOML_EM_SERVE_QUEUE", d.queue_pairs),
            max_body: env_parse("AUTOML_EM_SERVE_MAX_BODY", d.max_body),
            max_conns: env_parse("AUTOML_EM_SERVE_MAX_CONNS", d.max_conns),
            drain_ms: env_parse("AUTOML_EM_SERVE_DRAIN_MS", d.drain_ms),
            workers: env_parse("AUTOML_EM_SERVE_WORKERS", d.workers),
            restart_max: env_parse("AUTOML_EM_SERVE_RESTART_MAX", d.restart_max),
            restart_window_ms: env_parse("AUTOML_EM_SERVE_RESTART_WINDOW_MS", d.restart_window_ms),
            breaker_cooldown_ms: env_parse(
                "AUTOML_EM_SERVE_BREAKER_COOLDOWN_MS",
                d.breaker_cooldown_ms,
            ),
            backoff_base_ms: env_parse("AUTOML_EM_SERVE_BACKOFF_BASE_MS", d.backoff_base_ms),
            backoff_cap_ms: env_parse("AUTOML_EM_SERVE_BACKOFF_CAP_MS", d.backoff_cap_ms),
            swap_journal: std::env::var("AUTOML_EM_SERVE_SWAP_JOURNAL").ok(),
            faults: automl::fault::FaultPlan::from_env().serve().clone(),
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_documented_values() {
        let c = ServeConfig::default();
        assert_eq!(c.addr, "127.0.0.1:8642");
        assert_eq!(c.max_batch, 32);
        assert_eq!(c.queue_pairs, 256);
        assert_eq!(c.max_body, 1 << 20);
        assert_eq!(c.max_conns, 64);
        assert_eq!(c.drain_ms, 5000);
        assert_eq!(c.workers, 1);
        assert_eq!(c.restart_max, 5);
        assert_eq!(c.restart_window_ms, 30_000);
        assert_eq!(c.breaker_cooldown_ms, 1000);
        assert_eq!(c.backoff_base_ms, 10);
        assert_eq!(c.backoff_cap_ms, 1000);
        assert_eq!(c.swap_journal, None);
        assert!(c.faults.is_empty());
    }

    #[test]
    fn env_parse_falls_back_on_garbage() {
        // uses a name no other test sets, to stay parallel-safe
        std::env::set_var("AUTOML_EM_SERVE_TEST_KNOB", "not-a-number");
        assert_eq!(env_parse("AUTOML_EM_SERVE_TEST_KNOB", 7usize), 7);
        std::env::set_var("AUTOML_EM_SERVE_TEST_KNOB", "12");
        assert_eq!(env_parse("AUTOML_EM_SERVE_TEST_KNOB", 7usize), 12);
        std::env::remove_var("AUTOML_EM_SERVE_TEST_KNOB");
    }
}
