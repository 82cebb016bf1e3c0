//! Serving-layer contract tests: the wire protocol survives hostile
//! inputs, served probabilities are bit-identical to offline `predict`
//! at any thread count and any batching, and a graceful shutdown
//! answers every request it admitted.
//!
//! The HTTP tests speak raw bytes over `TcpStream` on purpose — the
//! point is to exercise torn requests, pipelining and oversized frames
//! exactly as a socket would deliver them, not as a well-behaved client
//! library would.

use em_core::model::{ModelHost, ModelSpec};
use em_data::{RecordPair, Schema, Split};
use em_serve::{serve, ServeConfig};
use obs::json::{self, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes tests that flip the global `par` thread override.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// One fixture model for the whole binary — training takes a second,
/// every test shares the host read-only.
fn fixture_arc() -> std::sync::Arc<ModelHost> {
    static HOST: OnceLock<std::sync::Arc<ModelHost>> = OnceLock::new();
    std::sync::Arc::clone(HOST.get_or_init(|| {
        std::sync::Arc::new(
            ModelSpec {
                scale: 0.3,
                budget_hours: 0.1,
                ..ModelSpec::fixture()
            }
            .train()
            .expect("fixture training failed"),
        )
    }))
}

fn fixture() -> &'static ModelHost {
    static HOST: OnceLock<std::sync::Arc<ModelHost>> = OnceLock::new();
    HOST.get_or_init(fixture_arc)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

fn start_server() -> (em_serve::ServerHandle, SocketAddr) {
    start_server_with(test_config())
}

fn start_server_with(config: ServeConfig) -> (em_serve::ServerHandle, SocketAddr) {
    let handle = serve(fixture_arc(), &config).expect("bind failed");
    let addr = handle.addr();
    (handle, addr)
}

/// Send raw bytes, read until the peer closes or one full response
/// (head + content-length body) is buffered; return the raw response.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write");
    read_one_response(&mut stream)
}

fn read_one_response(stream: &mut TcpStream) -> String {
    read_next_response(stream, &mut Vec::new())
}

/// Read the next full response off `stream`. Bytes past it stay in `buf`
/// for the following call: pipelined responses can arrive in one read.
fn read_next_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> String {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let need: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .unwrap_or(0);
            let end = head_end + 4 + need;
            if buf.len() >= end {
                let rsp = String::from_utf8_lossy(&buf[..end]).to_string();
                buf.drain(..end);
                return rsp;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return String::from_utf8_lossy(&std::mem::take(buf)).to_string(),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Extract a response header value (case-insensitive name).
fn header_of(response: &str, name: &str) -> Option<String> {
    let head = response.split("\r\n\r\n").next()?;
    head.lines().skip(1).find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case(name)
            .then(|| v.trim().to_string())
    })
}

fn error_code_of(response: &str) -> Option<String> {
    json::parse(body_of(response))
        .ok()?
        .get("error")?
        .get("code")
        .and_then(Json::as_str)
        .map(str::to_owned)
}

fn pair_body(schema: &Schema, pair: &RecordPair) -> String {
    let entity = |e: &em_data::Entity| {
        let mut o = json::Obj::new();
        for (i, attr) in schema.attributes().iter().enumerate() {
            if let Some(v) = e.value(i) {
                o.str(&attr.name, v);
            }
        }
        o.finish()
    };
    let mut o = json::Obj::new();
    o.raw("left", &entity(&pair.left))
        .raw("right", &entity(&pair.right));
    o.finish()
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

// ---------------------------------------------------------------- protocol

#[test]
fn healthz_and_metrics_respond() {
    let _g = guard();
    let (handle, addr) = start_server();
    let rsp = roundtrip(addr, b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
    let v = json::parse(body_of(&rsp)).unwrap();
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    assert!(v.get("threshold").and_then(Json::as_f64).is_some());
    let rsp = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
    assert!(json::parse(body_of(&rsp)).is_ok(), "metrics must be JSON");
    assert!(handle.shutdown());
}

#[test]
fn torn_request_completes_when_rest_arrives() {
    let _g = guard();
    let (handle, addr) = start_server();
    let host = fixture();
    let pair = &host.dataset().split(Split::Test)[0];
    let raw = post("/match", &pair_body(host.schema(), pair));
    // drip-feed the request in three fragments with pauses: the parser
    // must wait for the tail instead of erroring on the torn prefix
    let mut stream = TcpStream::connect(addr).unwrap();
    let cut_a = raw.len() / 3;
    let cut_b = 2 * raw.len() / 3;
    for part in [&raw[..cut_a], &raw[cut_a..cut_b], &raw[cut_b..]] {
        stream.write_all(part).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let rsp = read_one_response(&mut stream);
    assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
    assert!(handle.shutdown());
}

#[test]
fn protocol_violations_get_typed_errors() {
    let _g = guard();
    let (handle, addr) = start_server();
    // POST without Content-Length → 411
    let rsp = roundtrip(addr, b"POST /match HTTP/1.1\r\n\r\n");
    assert!(rsp.starts_with("HTTP/1.1 411"), "{rsp}");
    // chunked framing → 501
    let rsp = roundtrip(
        addr,
        b"POST /match HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert!(rsp.starts_with("HTTP/1.1 501"), "{rsp}");
    // oversized declared body → 413
    let rsp = roundtrip(
        addr,
        format!(
            "POST /match HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            200 << 20
        )
        .as_bytes(),
    );
    assert!(rsp.starts_with("HTTP/1.1 413"), "{rsp}");
    // header bomb → 431
    let mut bomb = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
    bomb.extend(std::iter::repeat_n(b'a', 9000));
    bomb.extend_from_slice(b"\r\n\r\n");
    let rsp = roundtrip(addr, &bomb);
    assert!(rsp.starts_with("HTTP/1.1 431"), "{rsp}");
    // garbage request line → 400
    let rsp = roundtrip(addr, b"GARBAGE\r\n\r\n");
    assert!(rsp.starts_with("HTTP/1.1 400"), "{rsp}");
    // unknown route → 404, wrong method → 405
    let rsp = roundtrip(addr, b"GET /nope HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(rsp.starts_with("HTTP/1.1 404"), "{rsp}");
    let rsp = roundtrip(addr, b"GET /match HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(rsp.starts_with("HTTP/1.1 405"), "{rsp}");
    // bad entity payloads → 400 with a JSON error body
    let rsp = roundtrip(addr, &post("/match", "{\"left\":{}}"));
    assert!(rsp.starts_with("HTTP/1.1 400"), "{rsp}");
    let v = json::parse(body_of(&rsp)).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    let rsp = roundtrip(
        addr,
        &post("/match", "{\"left\":{\"no_such_attr\":\"x\"},\"right\":{}}"),
    );
    assert!(rsp.starts_with("HTTP/1.1 400"), "{rsp}");
    assert!(handle.shutdown());
}

#[test]
fn pipelined_requests_answer_in_order() {
    let _g = guard();
    let (handle, addr) = start_server();
    let host = fixture();
    let pairs = host.dataset().split(Split::Test);
    let schema = host.schema();
    // two POSTs written back-to-back before reading anything
    let mut raw = post("/match", &pair_body(schema, &pairs[0]));
    raw.extend(post("/match", &pair_body(schema, &pairs[1])));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&raw).unwrap();
    let expect = fixture().match_proba(&pairs[..2]);
    let mut buf = Vec::new();
    for expected in expect.iter().take(2) {
        let rsp = read_next_response(&mut stream, &mut buf);
        assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
        let p = json::parse(body_of(&rsp))
            .unwrap()
            .get("p_match")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!((p as f32).to_bits(), expected.to_bits());
    }
    assert!(handle.shutdown());
}

// ------------------------------------------------------------ bit-identity

/// Served probabilities equal offline `match_proba` bit-for-bit, via
/// single requests and via one batch request, with the `par` pool pinned
/// to 1 and then 4 workers.
#[test]
fn served_probs_bit_identical_to_offline_at_1_and_4_threads() {
    let _g = guard();
    let host = fixture();
    let pairs =
        &host.dataset().split(Split::Test)[..8.min(host.dataset().split(Split::Test).len())];
    let schema = host.schema();
    let offline = host.match_proba(pairs);
    for threads in [1usize, 4] {
        par::set_threads(threads);
        let (handle, addr) = start_server();
        // one-by-one
        let mut stream = TcpStream::connect(addr).unwrap();
        for (i, pair) in pairs.iter().enumerate() {
            stream
                .write_all(&post("/match", &pair_body(schema, pair)))
                .unwrap();
            let rsp = read_one_response(&mut stream);
            assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
            let p = json::parse(body_of(&rsp))
                .unwrap()
                .get("p_match")
                .and_then(Json::as_f64)
                .unwrap();
            assert_eq!(
                (p as f32).to_bits(),
                offline[i].to_bits(),
                "pair {i} at {threads} threads"
            );
        }
        // all at once through /match/batch
        let body = {
            let mut o = json::Obj::new();
            o.raw(
                "pairs",
                &json::array(pairs.iter().map(|p| pair_body(schema, p))),
            );
            o.finish()
        };
        let rsp = roundtrip(addr, &post("/match/batch", &body));
        assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
        let v = json::parse(body_of(&rsp)).unwrap();
        assert_eq!(
            v.get("batch").and_then(Json::as_u64),
            Some(pairs.len() as u64)
        );
        let results = match v.get("results") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("missing results array: {other:?}"),
        };
        for (i, item) in results.iter().enumerate() {
            let p = item.get("p_match").and_then(Json::as_f64).unwrap();
            assert_eq!(
                (p as f32).to_bits(),
                offline[i].to_bits(),
                "batch result {i} at {threads} threads"
            );
        }
        par::reset_threads();
        assert!(handle.shutdown());
    }
}

// ------------------------------------------------------- stage breakdown

/// One stage's duration from a `server-timing` header value such as
/// `queue;dur=0.012, predict;dur=0.085`, in whole microseconds.
fn server_timing_us(header: &str, stage: &str) -> u64 {
    let ms = header
        .split(',')
        .find_map(|part| {
            let (name, dur) = part.trim().split_once(";dur=")?;
            (name == stage).then_some(dur)
        })
        .unwrap_or_else(|| panic!("no {stage} in server-timing: {header}"));
    let (whole, micros) = ms.split_once('.').expect("ms with µs digits");
    whole.parse::<u64>().unwrap() * 1000 + micros.parse::<u64>().unwrap()
}

/// Every scored response explains itself: `server-timing` carries the
/// request's own queue wait and its microbatch's predict time. For
/// sequential `/match` requests the two fit inside the latency the
/// client measured for that request — parsing and writing make up the
/// rest — and `/metrics` lists both stage histograms.
#[test]
fn match_stage_times_fit_inside_each_request_latency() {
    let _g = guard();
    let host = fixture();
    let schema = host.schema();
    let (handle, addr) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    for (i, pair) in host.dataset().split(Split::Test).iter().take(8).enumerate() {
        let request = post("/match", &pair_body(schema, pair));
        let sent = Instant::now();
        stream.write_all(&request).unwrap();
        let rsp = read_one_response(&mut stream);
        let latency_us = sent.elapsed().as_micros() as u64;
        assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
        let timing = header_of(&rsp, "server-timing").expect("server-timing header");
        let queue = server_timing_us(&timing, "queue");
        let predict = server_timing_us(&timing, "predict");
        assert!(
            predict > 0,
            "request {i}: predict pass took no time? {timing}"
        );
        assert!(
            queue + predict <= latency_us,
            "request {i}: queue {queue} + predict {predict} > latency {latency_us} µs"
        );
    }
    let rsp = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    let metrics = json::parse(body_of(&rsp)).expect("metrics must be JSON");
    for name in ["serve.queue_wait_us", "serve.predict_us"] {
        let count = metrics
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("/metrics lacks {name}"));
        assert!(count >= 8, "{name} count {count}");
    }
    assert!(handle.shutdown());
}

// ----------------------------------------------------------------- drain

/// Graceful shutdown: every request accepted before the drain gets a
/// real answer; none are dropped on the floor.
#[test]
fn drain_answers_every_accepted_request() {
    let _g = guard();
    let (handle, addr) = start_server();
    let host = fixture();
    let pairs = host.dataset().split(Split::Test);
    let schema = host.schema();
    let offline = host.match_proba(pairs);
    let n_clients = 6usize;
    let answered: Vec<(usize, u32)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n_clients)
            .map(|c| {
                s.spawn(move || {
                    let idx = c % pairs.len();
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream
                        .write_all(&post("/match", &pair_body(schema, &pairs[idx])))
                        .expect("write");
                    let rsp = read_one_response(&mut stream);
                    assert!(rsp.starts_with("HTTP/1.1 200"), "client {c}: {rsp}");
                    let p = json::parse(body_of(&rsp))
                        .unwrap()
                        .get("p_match")
                        .and_then(Json::as_f64)
                        .unwrap();
                    (idx, (p as f32).to_bits())
                })
            })
            .collect();
        // let the clients get their requests in flight, then drain while
        // they are still waiting on answers
        std::thread::sleep(Duration::from_millis(30));
        assert!(handle.shutdown(), "drain timed out");
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(answered.len(), n_clients);
    for (idx, bits) in answered {
        assert_eq!(bits, offline[idx].to_bits(), "pair {idx}");
    }
}

// ----------------------------------------------------------------- chaos

/// A worker panic mid-batch turns into typed `500 worker_panic`
/// responses for that batch — never a hang — and the supervisor's
/// restart makes the very next request succeed with correct bits.
#[test]
fn worker_panic_gives_typed_500_and_next_request_succeeds() {
    let _g = guard();
    automl::fault::silence_injected_panic_output();
    let (handle, addr) = start_server_with(ServeConfig {
        faults: automl::fault::ServeFaultPlan::none().panic_batcher_at(0),
        ..test_config()
    });
    let host = fixture();
    let pairs = host.dataset().split(Split::Test);
    let offline = host.match_proba(&pairs[..2]);
    // request 1 rides microbatch 0, which is rigged to panic
    let rsp = roundtrip(addr, &post("/match", &pair_body(host.schema(), &pairs[0])));
    assert!(rsp.starts_with("HTTP/1.1 500"), "{rsp}");
    assert_eq!(error_code_of(&rsp).as_deref(), Some("worker_panic"));
    // request 2 lands after the supervised restart and must be correct
    let rsp = roundtrip(addr, &post("/match", &pair_body(host.schema(), &pairs[1])));
    assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
    let p = json::parse(body_of(&rsp))
        .unwrap()
        .get("p_match")
        .and_then(Json::as_f64)
        .unwrap();
    assert_eq!((p as f32).to_bits(), offline[1].to_bits());
    assert_eq!(header_of(&rsp, "x-model-version").as_deref(), Some("1"));
    assert!(handle.shutdown());
}

/// An injected predict error is typed (`500 predict_error`) and the
/// worker survives it without a restart.
#[test]
fn predict_error_is_typed_and_service_continues() {
    let _g = guard();
    let (handle, addr) = start_server_with(ServeConfig {
        faults: automl::fault::ServeFaultPlan::none().err_predict_at(0),
        ..test_config()
    });
    let host = fixture();
    let pairs = host.dataset().split(Split::Test);
    let rsp = roundtrip(addr, &post("/match", &pair_body(host.schema(), &pairs[0])));
    assert!(rsp.starts_with("HTTP/1.1 500"), "{rsp}");
    assert_eq!(error_code_of(&rsp).as_deref(), Some("predict_error"));
    let rsp = roundtrip(addr, &post("/match", &pair_body(host.schema(), &pairs[1])));
    assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
    assert!(handle.shutdown());
}

/// Repeated worker panics trip the circuit breaker: requests are shed
/// with `503 breaker_open` + `Retry-After`, and after the cooldown the
/// breaker half-opens and a successful batch closes it again.
#[test]
fn breaker_trips_open_and_half_opens_on_schedule() {
    let _g = guard();
    automl::fault::silence_injected_panic_output();
    let (handle, addr) = start_server_with(ServeConfig {
        faults: automl::fault::ServeFaultPlan::none()
            .panic_batcher_at(0)
            .panic_batcher_at(1),
        restart_max: 2,
        restart_window_ms: 60_000,
        breaker_cooldown_ms: 300,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        ..test_config()
    });
    let host = fixture();
    let pairs = host.dataset().split(Split::Test);
    let schema = host.schema();
    // two panicking batches → two supervisor restarts → breaker trips
    for (i, pair) in pairs.iter().enumerate().take(2) {
        let rsp = roundtrip(addr, &post("/match", &pair_body(schema, pair)));
        assert!(rsp.starts_with("HTTP/1.1 500"), "request {i}: {rsp}");
    }
    // the supervisor records failures asynchronously: poll until shed
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let retry_after: u64 = loop {
        let rsp = roundtrip(addr, &post("/match", &pair_body(schema, &pairs[2])));
        if rsp.starts_with("HTTP/1.1 503") {
            assert_eq!(error_code_of(&rsp).as_deref(), Some("breaker_open"));
            let ra = header_of(&rsp, "retry-after")
                .expect("503 must carry retry-after")
                .parse()
                .expect("retry-after is integer seconds");
            break ra;
        }
        assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
        assert!(
            std::time::Instant::now() < deadline,
            "breaker never tripped"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(retry_after >= 1, "retry-after must round up to ≥ 1s");
    // wait out the cooldown: the half-open trial must be admitted, and
    // its success closes the breaker for good
    std::thread::sleep(Duration::from_millis(400));
    for i in [3usize, 4] {
        let rsp = roundtrip(addr, &post("/match", &pair_body(schema, &pairs[i])));
        assert!(rsp.starts_with("HTTP/1.1 200"), "post-cooldown {i}: {rsp}");
    }
    assert!(handle.shutdown());
}

/// Model hot-swap under live fire: clients hammer `/match` while
/// `/admin/reload` swaps in a different model. Every response must be
/// a 200 whose bits match the model version named in its
/// `x-model-version` header — zero drops, zero cross-version mixing —
/// at 1 and at 4 `par` threads.
#[test]
fn hot_swap_under_load_drops_and_mismatches_nothing() {
    let _g = guard();
    let host_a = fixture();
    let pairs = &host_a.dataset().split(Split::Test)[..4];
    let schema = host_a.schema();
    let offline_a: Vec<u32> = host_a
        .match_proba(pairs)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    // model B: same recipe, different engine seed → same schema, an
    // honestly different search outcome to swap in
    let host_b = ModelSpec {
        scale: 0.3,
        budget_hours: 0.1,
        engine_seed: 2,
        ..ModelSpec::fixture()
    }
    .train()
    .expect("model B training failed");
    let offline_b: Vec<u32> = host_b
        .match_proba(pairs)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let dir = std::env::temp_dir().join("em_serve_swap_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let bundle = dir.join("model_b.json");
    host_b.export(&bundle).expect("export model B");
    for threads in [1usize, 4] {
        par::set_threads(threads);
        let (handle, addr) = start_server();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mismatches: usize = std::thread::scope(|s| {
            let clients: Vec<_> = (0..3)
                .map(|c: usize| {
                    let stop = &stop;
                    let offline_a = &offline_a;
                    let offline_b = &offline_b;
                    s.spawn(move || {
                        let mut bad = 0usize;
                        let mut stream = TcpStream::connect(addr).unwrap();
                        let mut i = c;
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let idx = i % pairs.len();
                            i += 1;
                            stream
                                .write_all(&post("/match", &pair_body(schema, &pairs[idx])))
                                .unwrap();
                            let rsp = read_one_response(&mut stream);
                            if !rsp.starts_with("HTTP/1.1 200") {
                                bad += 1;
                                continue;
                            }
                            let version = header_of(&rsp, "x-model-version")
                                .and_then(|v| v.parse::<u64>().ok())
                                .unwrap_or(0);
                            let bits = json::parse(body_of(&rsp))
                                .unwrap()
                                .get("p_match")
                                .and_then(Json::as_f64)
                                .map(|p| (p as f32).to_bits());
                            let want = match version {
                                1 => Some(offline_a[idx]),
                                2 => Some(offline_b[idx]),
                                _ => None,
                            };
                            if bits != want {
                                bad += 1;
                            }
                        }
                        bad
                    })
                })
                .collect();
            // let the clients build up steam, then swap mid-flight
            std::thread::sleep(Duration::from_millis(50));
            let body = format!("{{\"path\":\"{}\"}}", bundle.display());
            let rsp = roundtrip(addr, &post("/admin/reload", &body));
            assert!(rsp.starts_with("HTTP/1.1 200"), "reload: {rsp}");
            let v = json::parse(body_of(&rsp)).unwrap();
            assert_eq!(v.get("version").and_then(Json::as_u64), Some(2));
            assert_eq!(v.get("previous_version").and_then(Json::as_u64), Some(1));
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            clients.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(
            mismatches, 0,
            "dropped or cross-version responses at {threads} threads"
        );
        // post-swap, every answer comes from model B as version 2
        let rsp = roundtrip(addr, &post("/match", &pair_body(schema, &pairs[0])));
        assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
        assert_eq!(header_of(&rsp, "x-model-version").as_deref(), Some("2"));
        let p = json::parse(body_of(&rsp))
            .unwrap()
            .get("p_match")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!((p as f32).to_bits(), offline_b[0]);
        assert_eq!(handle.model_version(), 2);
        par::reset_threads();
        assert!(handle.shutdown());
    }
}

/// Reload failure modes: malformed body → 400, missing bundle → 500
/// `reload_failed` with the old model untouched, wrong method → 405.
#[test]
fn reload_failures_are_typed_and_leave_old_model_serving() {
    let _g = guard();
    let (handle, addr) = start_server();
    let host = fixture();
    let pairs = host.dataset().split(Split::Test);
    let rsp = roundtrip(addr, &post("/admin/reload", "{\"nope\":1}"));
    assert!(rsp.starts_with("HTTP/1.1 400"), "{rsp}");
    let rsp = roundtrip(
        addr,
        &post("/admin/reload", "{\"path\":\"/no/such/bundle.json\"}"),
    );
    assert!(rsp.starts_with("HTTP/1.1 500"), "{rsp}");
    assert_eq!(error_code_of(&rsp).as_deref(), Some("reload_failed"));
    let rsp = roundtrip(
        addr,
        b"GET /admin/reload HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(rsp.starts_with("HTTP/1.1 405"), "{rsp}");
    // old model still serving as version 1
    let rsp = roundtrip(addr, &post("/match", &pair_body(host.schema(), &pairs[0])));
    assert!(rsp.starts_with("HTTP/1.1 200"), "{rsp}");
    assert_eq!(header_of(&rsp, "x-model-version").as_deref(), Some("1"));
    assert_eq!(handle.model_version(), 1);
    assert!(handle.shutdown());
}

/// After the gate closes, *new* connections are refused with a typed
/// `503 draining` rather than a silent hang-up.
#[test]
fn new_connections_during_drain_get_503() {
    let _g = guard();
    let (handle, addr) = start_server();
    // hold one idle connection so the drain has something to wait for
    let _idle = TcpStream::connect(addr).unwrap();
    let shutdown = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(30));
    // the accept thread is gone or the gate is closed: either the
    // connect is refused outright or the server answers 503 draining
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let mut buf = Vec::new();
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let _ = stream.read_to_end(&mut buf);
        let rsp = String::from_utf8_lossy(&buf);
        assert!(
            rsp.is_empty() || rsp.starts_with("HTTP/1.1 503"),
            "expected close or 503, got: {rsp}"
        );
    }
    assert!(shutdown.join().unwrap());
}
