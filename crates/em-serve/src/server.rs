//! The TCP accept loop, per-connection protocol driver and HTTP routes.
//!
//! Life of a request: the accept thread admits a connection through the
//! server's [`par::Gate`] (a closed gate answers `503 draining` and
//! hangs up), a per-connection thread incrementally parses HTTP/1.1
//! messages ([`crate::http`]), the route handler decodes entities
//! against the model's schema, and `/match` bodies flow through the
//! [`crate::batcher::Batcher`] into fused `match_proba` microbatches
//! scored by supervised workers ([`crate::supervisor`]). Every scored
//! response carries the `x-model-version` header of the exact model
//! that produced it; `POST /admin/reload` hot-swaps that model with
//! zero dropped requests ([`crate::reload`]). Shutdown
//! ([`ServerHandle::shutdown`]) closes the gate, drains the queue and
//! joins every thread — no admitted request is dropped.

use crate::batcher::{Batcher, Rejected, Scored, ServeFailure};
use crate::http::{self, error_body, render_response, render_response_with, Request};
use crate::reload::{HostCell, ReloadError, Reloader, SwapJournal};
use crate::supervisor::{self, SupervisorConfig};
use crate::{ServeConfig, LATENCY_BOUNDS_US};
use em_core::model::{load_model, ModelHost};
use em_data::{Entity, RecordPair, Schema};
use obs::json::{self, Json};
use par::CircuitBreaker;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra response headers attached by route handlers (`retry-after`,
/// `x-model-version`). Names are `&'static` lowercase literals.
type Headers = Vec<(&'static str, String)>;

/// The request path's fixed-name metric handles, resolved once per
/// server so a request never takes the registry lock or builds a name.
#[derive(Clone, Copy)]
struct RouteMeters {
    req_health: &'static obs::Counter,
    req_metrics: &'static obs::Counter,
    req_match: &'static obs::Counter,
    req_batch: &'static obs::Counter,
    req_reload: &'static obs::Counter,
    latency_match: &'static obs::Histogram,
    latency_batch: &'static obs::Histogram,
    latency_reload: &'static obs::Histogram,
    rsp_2xx: &'static obs::Counter,
    rsp_4xx: &'static obs::Counter,
    rsp_5xx: &'static obs::Counter,
}

impl RouteMeters {
    fn resolve() -> Self {
        Self {
            req_health: obs::counter("serve.req.health"),
            req_metrics: obs::counter("serve.req.metrics"),
            req_match: obs::counter("serve.req.match"),
            req_batch: obs::counter("serve.req.batch"),
            req_reload: obs::counter("serve.req.reload"),
            latency_match: obs::histogram("serve.latency_us.match", LATENCY_BOUNDS_US),
            latency_batch: obs::histogram("serve.latency_us.batch", LATENCY_BOUNDS_US),
            latency_reload: obs::histogram("serve.latency_us.reload", LATENCY_BOUNDS_US),
            rsp_2xx: obs::counter("serve.rsp.2xx"),
            rsp_4xx: obs::counter("serve.rsp.4xx"),
            rsp_5xx: obs::counter("serve.rsp.5xx"),
        }
    }

    fn observe_status(&self, status: u16) {
        match status {
            200..=299 => self.rsp_2xx,
            400..=499 => self.rsp_4xx,
            _ => self.rsp_5xx,
        }
        .inc();
    }
}

/// What every connection thread shares.
#[derive(Clone)]
struct Ctx {
    gate: par::Gate,
    batcher: Batcher,
    cell: Arc<HostCell>,
    reloader: Arc<Reloader>,
    max_body: usize,
    meters: RouteMeters,
}

/// Start serving `host` per `config`. Binds the listener synchronously
/// (so a returned handle is already accepting) and spawns the accept
/// loop plus `config.workers` batch workers.
///
/// ```no_run
/// use std::sync::Arc;
/// let host = Arc::new(em_core::model::ModelSpec::fixture().train().unwrap());
/// let config = em_serve::ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() };
/// let handle = em_serve::serve(host, &config).unwrap();
/// println!("listening on http://{}", handle.addr());
/// handle.shutdown();
/// ```
pub fn serve(host: Arc<ModelHost>, config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let gate = par::Gate::new();
    let breaker = CircuitBreaker::new(
        config.restart_max,
        Duration::from_millis(config.restart_window_ms),
        Duration::from_millis(config.breaker_cooldown_ms),
    );
    let batcher = Batcher::new(
        config.max_batch,
        config.queue_pairs,
        config.faults.clone(),
        breaker,
    );
    // crash recovery: a journaled commit from a previous process decides
    // which model version this process boots as (see crate::reload)
    let (boot_host, boot_version, journal) = match &config.swap_journal {
        Some(p) => {
            let path = Path::new(p);
            let (h, v) = match SwapJournal::recover(path) {
                Ok(Some(rec)) => match load_model(Path::new(&rec.bundle_path)) {
                    Ok(loaded) if loaded.fingerprint_digest() == rec.digest => {
                        obs::emit(
                            "serve.swap.recovered",
                            &[
                                ("version", obs::Value::U64(rec.version)),
                                ("path", obs::Value::Str(rec.bundle_path.clone())),
                            ],
                        );
                        (Arc::new(loaded), rec.version)
                    }
                    _ => {
                        // committed bundle is gone or no longer verifies:
                        // serve the boot model as a NEW version so stale
                        // journal state can never masquerade as current
                        obs::counter("serve.swap.recovery_failed").inc();
                        (Arc::clone(&host), rec.version + 1)
                    }
                },
                _ => (Arc::clone(&host), 1),
            };
            (h, v, Some(SwapJournal::open(path)?))
        }
        None => (Arc::clone(&host), 1, None),
    };
    let cell = HostCell::new(boot_host, boot_version);
    obs::gauge("serve.model.version").set(boot_version as f64);
    let reloader = Arc::new(Reloader::new(Arc::clone(&cell), journal));
    let sup = SupervisorConfig {
        backoff_base: Duration::from_millis(config.backoff_base_ms),
        backoff_cap: Duration::from_millis(config.backoff_cap_ms),
        ..SupervisorConfig::default()
    };
    let workers = supervisor::spawn_workers(config.workers, &batcher, &cell, &sup);
    let accept = {
        let ctx = Ctx {
            gate: gate.clone(),
            batcher: batcher.clone(),
            cell: Arc::clone(&cell),
            reloader,
            max_body: config.max_body,
            meters: RouteMeters::resolve(),
        };
        let max_conns = config.max_conns.max(1);
        std::thread::Builder::new()
            .name("em-serve-accept".into())
            .spawn(move || accept_loop(&listener, &ctx, max_conns))?
    };
    obs::emit(
        "serve.started",
        &[
            ("addr", obs::Value::Str(addr.to_string())),
            ("workers", obs::Value::U64(config.workers.max(1) as u64)),
            ("max_batch", obs::Value::U64(config.max_batch as u64)),
            ("model_version", obs::Value::U64(boot_version)),
        ],
    );
    Ok(ServerHandle {
        addr,
        gate,
        batcher,
        cell,
        accept: Some(accept),
        workers,
        drain: Duration::from_millis(config.drain_ms),
    })
}

/// A running server. Dropping the handle shuts the server down (with
/// drain); call [`shutdown`](Self::shutdown) explicitly to observe
/// whether the drain completed in time.
pub struct ServerHandle {
    addr: SocketAddr,
    gate: par::Gate,
    batcher: Batcher,
    cell: Arc<HostCell>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    drain: Duration,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` config port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model version currently serving (1 at boot, +1 per hot-swap;
    /// crash recovery may boot higher — see [`crate::reload`]).
    pub fn model_version(&self) -> u64 {
        self.cell.version()
    }

    /// Graceful shutdown: stop admitting connections and jobs, answer
    /// everything already accepted, then join all threads. Returns
    /// `true` when every connection finished inside the configured
    /// drain window.
    pub fn shutdown(mut self) -> bool {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> bool {
        if self.accept.is_none() {
            return true; // already shut down
        }
        // 1. close the front door: no new connections are admitted, and
        //    connection threads switch keep-alive responses to `close`
        self.gate.close();
        // 2. poke the blocking accept() so the accept thread observes
        //    the closed gate and exits
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // 3. stop admitting jobs; workers drain the queue, then exit —
        //    every job admitted before this line still gets its answer
        self.batcher.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // 4. wait for connection threads to flush responses and hang up
        let drained = self.gate.drain(self.drain);
        obs::emit("serve.stopped", &[("drained", obs::Value::Bool(drained))]);
        drained
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Ctx, max_conns: usize) {
    let gate = &ctx.gate;
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if gate.is_closed() {
                    return;
                }
                continue;
            }
        };
        let permit = match gate.enter() {
            Some(p) => p,
            None => {
                // draining: tell the client why before hanging up
                let body = error_body("draining", "server is shutting down");
                let _ = stream.write_all(&render_response_with(
                    503,
                    &body,
                    false,
                    &[("retry-after", "1".to_string())],
                ));
                return;
            }
        };
        if gate.in_flight() > max_conns {
            obs::counter("serve.rejected.conns").inc();
            let body = error_body("too_many_connections", "connection limit reached");
            let _ = stream.write_all(&render_response_with(
                429,
                &body,
                false,
                &[("retry-after", "1".to_string())],
            ));
            continue; // permit drops here
        }
        let ctx = ctx.clone();
        let spawned = std::thread::Builder::new()
            .name("em-serve-conn".into())
            .spawn(move || {
                let _permit = permit;
                handle_connection(stream, &ctx);
            });
        if spawned.is_err() {
            obs::counter("serve.rejected.conns").inc();
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &Ctx) {
    // short read timeout so idle keep-alive connections notice a drain
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // answer every complete pipelined request already buffered
        loop {
            match http::parse_request(&buf, ctx.max_body) {
                Ok(Some((req, used))) => {
                    buf.drain(..used);
                    let keep = req.keep_alive && !ctx.gate.is_closed();
                    let (status, body, headers) = route(&req, ctx);
                    ctx.meters.observe_status(status);
                    if stream
                        .write_all(&render_response_with(status, &body, keep, &headers))
                        .is_err()
                        || !keep
                    {
                        return;
                    }
                }
                Ok(None) => break, // torn: need more bytes
                Err(e) => {
                    ctx.meters.observe_status(e.status());
                    let body = error_body(e.code(), &e.message());
                    let _ = stream.write_all(&render_response(e.status(), &body, false));
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer hung up
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // idle tick: during a drain with no request in flight,
                // close instead of holding the permit forever
                if ctx.gate.is_closed() && buf.is_empty() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn route(req: &Request, ctx: &Ctx) -> (u16, String, Headers) {
    let _span = obs::span("serve.request");
    let start = Instant::now();
    let m = &ctx.meters;
    let (status, body, headers, latency) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            m.req_health.inc();
            let snap = ctx.cell.snapshot();
            (
                200,
                health_body(&snap.host, snap.version),
                vec![("x-model-version", snap.version.to_string())],
                None,
            )
        }
        ("GET", "/metrics") => {
            m.req_metrics.inc();
            (200, metrics_body(), Vec::new(), None)
        }
        ("POST", "/match") => {
            m.req_match.inc();
            let (s, b, h) = handle_match(&req.body, &ctx.batcher, &ctx.cell);
            (s, b, h, Some(m.latency_match))
        }
        ("POST", "/match/batch") => {
            m.req_batch.inc();
            let (s, b, h) = handle_batch(&req.body, &ctx.batcher, &ctx.cell);
            (s, b, h, Some(m.latency_batch))
        }
        ("POST", "/admin/reload") => {
            m.req_reload.inc();
            let (s, b, h) = handle_reload(&req.body, &ctx.reloader);
            (s, b, h, Some(m.latency_reload))
        }
        (_, "/healthz" | "/metrics" | "/match" | "/match/batch" | "/admin/reload") => (
            405,
            error_body("method_not_allowed", "wrong method for this route"),
            Vec::new(),
            None,
        ),
        (_, path) => (
            404,
            error_body("not_found", &format!("no route {path}")),
            Vec::new(),
            None,
        ),
    };
    if let Some(histogram) = latency {
        histogram.observe(start.elapsed().as_micros() as f64);
    }
    (status, body, headers)
}

fn health_body(host: &ModelHost, version: u64) -> String {
    let (hits, misses) = host.cache_stats();
    let mut o = json::Obj::new();
    o.str("status", "ok")
        .str("dataset", host.spec().dataset.code())
        .str("system", host.report().system)
        .f64("val_f1", host.report().val_f1)
        .f64("threshold", f64::from(host.threshold()))
        .u64("model_version", version)
        .str("digest", &host.fingerprint_digest())
        .u64("cache_hits", hits as u64)
        .u64("cache_misses", misses as u64);
    o.finish()
}

fn metrics_body() -> String {
    let mut o = json::Obj::new();
    for (name, snap) in obs::snapshot() {
        o.raw(&name, &snap.to_json());
    }
    o.finish()
}

fn handle_match(body: &[u8], batcher: &Batcher, cell: &HostCell) -> (u16, String, Headers) {
    // parse against the *current* schema; swaps are schema-compatible by
    // construction (Reloader refuses mismatches), so any snapshot works
    let schema = cell.snapshot();
    let pair = match parse_pair_body(body, schema.host.schema()) {
        Ok(p) => p,
        Err(msg) => return (400, error_body("bad_request", &msg), Vec::new()),
    };
    drop(schema);
    match batcher.submit(vec![pair], "match") {
        Ok(waiter) => match waiter.wait() {
            Ok(scored) => {
                let t = scored.threshold;
                let p = scored.probs[0];
                let mut o = json::Obj::new();
                o.f64("p_match", f64::from(p))
                    .bool("match", p >= t)
                    .f64("threshold", f64::from(t));
                (200, o.finish(), scored_headers(&scored))
            }
            Err(failure) => failure_response(&failure),
        },
        Err(rejection) => rejected_response(rejection),
    }
}

fn handle_batch(body: &[u8], batcher: &Batcher, cell: &HostCell) -> (u16, String, Headers) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            return (
                400,
                error_body("bad_request", "body is not UTF-8"),
                Vec::new(),
            )
        }
    };
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return (
                400,
                error_body("bad_request", &format!("invalid JSON: {e}")),
                Vec::new(),
            )
        }
    };
    let pairs_json = match v.get("pairs") {
        Some(Json::Arr(items)) => items,
        _ => {
            return (
                400,
                error_body("bad_request", "expected a 'pairs' array"),
                Vec::new(),
            )
        }
    };
    if pairs_json.is_empty() {
        return (
            400,
            error_body("bad_request", "'pairs' must not be empty"),
            Vec::new(),
        );
    }
    let schema = cell.snapshot();
    let mut pairs = Vec::with_capacity(pairs_json.len());
    for (i, item) in pairs_json.iter().enumerate() {
        match parse_pair(item, schema.host.schema()) {
            Ok(p) => pairs.push(p),
            Err(msg) => {
                return (
                    400,
                    error_body("bad_request", &format!("pairs[{i}]: {msg}")),
                    Vec::new(),
                )
            }
        }
    }
    drop(schema);
    let n = pairs.len();
    match batcher.submit(pairs, "batch") {
        Ok(waiter) => match waiter.wait() {
            Ok(scored) => {
                let t = scored.threshold;
                let results = json::array(scored.probs.iter().map(|&p| {
                    let mut o = json::Obj::new();
                    o.f64("p_match", f64::from(p)).bool("match", p >= t);
                    o.finish()
                }));
                let mut o = json::Obj::new();
                o.raw("results", &results)
                    .f64("threshold", f64::from(t))
                    .u64("batch", n as u64);
                (200, o.finish(), scored_headers(&scored))
            }
            Err(failure) => failure_response(&failure),
        },
        Err(rejection) => rejected_response(rejection),
    }
}

fn handle_reload(body: &[u8], reloader: &Reloader) -> (u16, String, Headers) {
    let parsed = std::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok());
    let path = parsed
        .as_ref()
        .and_then(|v| v.get("path"))
        .and_then(Json::as_str);
    let Some(path) = path else {
        return (
            400,
            error_body("bad_request", "expected {\"path\": \"<bundle.json>\"}"),
            Vec::new(),
        );
    };
    match reloader.reload_from_path(Path::new(path)) {
        Ok(outcome) => {
            let mut o = json::Obj::new();
            o.str("status", "swapped")
                .u64("previous_version", outcome.previous)
                .u64("version", outcome.version)
                .str("digest", &outcome.digest)
                .str("system", &outcome.system)
                .u64("load_ms", outcome.load_ms);
            (200, o.finish(), version_header(outcome.version))
        }
        Err(ReloadError::Busy) => (
            409,
            error_body("reload_busy", "another reload is already in progress"),
            Vec::new(),
        ),
        Err(ReloadError::SchemaMismatch) => (
            409,
            error_body(
                "schema_mismatch",
                "new model's schema differs from the serving model; rolled back",
            ),
            Vec::new(),
        ),
        Err(ReloadError::Load(e)) => (
            500,
            error_body(
                "reload_failed",
                &format!("bundle load failed: {e}; rolled back"),
            ),
            Vec::new(),
        ),
    }
}

fn version_header(version: u64) -> Headers {
    vec![("x-model-version", version.to_string())]
}

/// `x-model-version` plus a `server-timing` breakdown of the job's time
/// in the batcher: `queue` (submit → popped) and `predict` (its
/// microbatch's predict pass), in milliseconds with microsecond digits.
fn scored_headers(scored: &Scored) -> Headers {
    let ms = |us: u64| format!("{}.{:03}", us / 1000, us % 1000);
    vec![
        ("x-model-version", scored.version.to_string()),
        (
            "server-timing",
            format!(
                "queue;dur={}, predict;dur={}",
                ms(scored.queue_wait_us),
                ms(scored.predict_us)
            ),
        ),
    ]
}

fn rejected_response(r: Rejected) -> (u16, String, Headers) {
    match r {
        Rejected::Overloaded => (
            429,
            error_body("overloaded", "request queue is full, retry with backoff"),
            vec![("retry-after", "1".to_string())],
        ),
        Rejected::Draining => (
            503,
            error_body("draining", "server is shutting down"),
            vec![("retry-after", "1".to_string())],
        ),
        Rejected::Unavailable { retry_after_secs } => (
            503,
            error_body(
                "breaker_open",
                "circuit breaker is open after repeated worker failures",
            ),
            vec![("retry-after", retry_after_secs.to_string())],
        ),
    }
}

fn failure_response(f: &ServeFailure) -> (u16, String, Headers) {
    (500, error_body(f.code(), &f.message()), Vec::new())
}

fn parse_pair_body(body: &[u8], schema: &Schema) -> Result<RecordPair, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    parse_pair(&v, schema)
}

fn parse_pair(v: &Json, schema: &Schema) -> Result<RecordPair, String> {
    let left = parse_entity(
        v.get("left").ok_or_else(|| "missing 'left'".to_owned())?,
        schema,
    )
    .map_err(|m| format!("left: {m}"))?;
    let right = parse_entity(
        v.get("right").ok_or_else(|| "missing 'right'".to_owned())?,
        schema,
    )
    .map_err(|m| format!("right: {m}"))?;
    Ok(RecordPair::new(left, right, false))
}

fn parse_entity(v: &Json, schema: &Schema) -> Result<Entity, String> {
    let fields = match v {
        Json::Object(fields) => fields,
        _ => return Err("entity must be a JSON object".into()),
    };
    let mut values: Vec<Option<String>> = vec![None; schema.len()];
    for (key, value) in fields {
        let idx = schema.index_of(key).ok_or_else(|| {
            let known: Vec<&str> = schema
                .attributes()
                .iter()
                .map(|a| a.name.as_str())
                .collect();
            format!("unknown attribute '{key}' (schema: {})", known.join(", "))
        })?;
        values[idx] = match value {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            Json::Num(tok) => Some(tok.clone()),
            _ => {
                return Err(format!(
                    "attribute '{key}' must be a string, number or null"
                ))
            }
        };
    }
    Ok(Entity::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::{AttrType, Attribute};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("name", AttrType::Text),
            Attribute::new("price", AttrType::Numeric),
        ])
    }

    #[test]
    fn entity_parsing_fills_by_attribute_name() {
        let v = json::parse(r#"{"price":"9.99","name":"ipad"}"#).unwrap();
        let e = parse_entity(&v, &schema()).unwrap();
        assert_eq!(e.value(0), Some("ipad"));
        assert_eq!(e.value(1), Some("9.99"));
    }

    #[test]
    fn unknown_attribute_is_rejected_with_schema_hint() {
        let v = json::parse(r#"{"nam":"typo"}"#).unwrap();
        let err = parse_entity(&v, &schema()).unwrap_err();
        assert!(err.contains("unknown attribute 'nam'"), "{err}");
        assert!(err.contains("name, price"), "{err}");
    }

    #[test]
    fn missing_and_null_attributes_become_none() {
        let v = json::parse(r#"{"name":null}"#).unwrap();
        let e = parse_entity(&v, &schema()).unwrap();
        assert_eq!(e.value(0), None);
        assert_eq!(e.value(1), None);
    }

    #[test]
    fn pair_requires_both_sides() {
        let v = json::parse(r#"{"left":{"name":"a"}}"#).unwrap();
        assert!(parse_pair(&v, &schema()).unwrap_err().contains("right"));
    }
}
