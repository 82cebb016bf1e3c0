//! Benchmark + CI smoke gate for the continuous-EM streaming layer
//! (`em-stream`): replay-from-ledger cold start, live ingest throughput,
//! embedding-cache invalidation cost, and a drift-triggered background
//! re-search promoted through `em-serve`'s hot-swap under client load.
//!
//! The run is anchored on a **committed fixture ledger**
//! (`tests/fixtures/stream_ledger.jsonl`): phase 1 replays it cold and
//! proves the derived-state digest is reproducible across two
//! independent replays; phase 4 replays it again, then injects a
//! drifting live stream on top until the drift monitor fires, the
//! background re-search finishes and the bundle is promoted — while
//! keep-alive clients hammer `/match` with the same
//! exactly-one-correct-response accounting as `serve_bench` (every 200
//! is bit-identical to the offline predict of the model named by its
//! `x-model-version`; version rollbacks and non-200s count as bad).
//!
//! Results land in `BENCH_stream.json` with one row per phase: ingest
//! throughput (events/s, replay and live), invalidation cost (ns/op
//! cached vs invalidate+recompute) and promotion latency (research_ms +
//! promote_ms).
//!
//! ```text
//! stream_bench [--out <dir>] [--fixture <path>] [--events <n>] [--check]
//!              [--write-fixture]
//! ```
//!
//! `--write-fixture` regenerates the fixture ledger from the canonical
//! scenario (a pure function of its config — the file is committable)
//! and exits. `--check` re-parses the JSON it wrote and exits non-zero
//! on any drop, mismatch, missed promotion or non-finite number — the
//! CI `stream-smoke` job gate. On the committed fixture it also pins the
//! cold replay's state digest and candidate count, so the blocking
//! index's canonical dump is a byte contract, not just self-consistent.

use em_core::model::{load_model, ModelSpec};
use em_data::{BlockerConfig, RecordPair, Schema, Side, Split};
use em_serve::{serve, ServeConfig};
use em_stream::{
    generate_events, ContinuousConfig, ContinuousEm, DriftConfig, RecordEvent, RecordLedger,
    ScenarioConfig, StreamState,
};
use embed::cache::EmbeddingCache;
use embed::HashingEmbedder;
use obs::json::{self, Json};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-client observation log: (bad-response count, then for every good
/// response its request index, `x-model-version`, and score bits).
type ClientObs = Vec<(usize, Vec<(usize, u64, u32)>)>;

/// The canonical fixture scenario: a stable (never-drifting) history
/// whose replay is the cold-start phase. Changing this invalidates the
/// committed `tests/fixtures/stream_ledger.jsonl` — regenerate it with
/// `--write-fixture`.
const FIXTURE_SCENARIO: ScenarioConfig = ScenarioConfig {
    seed: 2026,
    initial_pairs: 16,
    events: 120,
    drift_after: usize::MAX,
    noise: 0.2,
};

/// Where the committed fixture ledger lives, relative to the repo root.
const FIXTURE_PATH: &str = "tests/fixtures/stream_ledger.jsonl";
/// State digest of a cold replay of the committed fixture.
const FIXTURE_DIGEST: &str = "55c5d25686915754";
/// Blocking candidates after a cold replay of the committed fixture.
const FIXTURE_CANDIDATES: f64 = 629.0;

/// Id offset for live events injected on top of the replayed fixture,
/// keeping the two id spaces disjoint.
const LIVE_ID_BASE: u64 = 1_000_000;

struct Args {
    out: String,
    fixture: String,
    events: usize,
    check: bool,
    write_fixture: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        out: "results".to_owned(),
        fixture: FIXTURE_PATH.to_owned(),
        events: 2_000,
        check: false,
        write_fixture: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let value = |i: usize| argv.get(i + 1).cloned().unwrap_or_default();
        match argv[i].as_str() {
            "--out" => {
                a.out = value(i);
                i += 2;
            }
            "--fixture" => {
                a.fixture = value(i);
                i += 2;
            }
            "--events" => {
                a.events = value(i).parse().expect("--events needs an integer");
                i += 2;
            }
            "--check" => {
                a.check = true;
                a.events = a.events.min(1_000);
                i += 1;
            }
            "--write-fixture" => {
                a.write_fixture = true;
                i += 1;
            }
            other => panic!("unknown flag {other}"),
        }
    }
    a
}

fn base_spec() -> ModelSpec {
    // small scale + tiny budget: the promotion phase retrains live
    ModelSpec {
        scale: 0.3,
        budget_hours: 0.1,
        ..ModelSpec::fixture()
    }
}

fn fixture_schema() -> Schema {
    base_spec().dataset.profile().domain().schema()
}

fn fixture_events() -> Vec<RecordEvent> {
    let domain = base_spec().dataset.profile().domain();
    generate_events(domain.as_ref(), &FIXTURE_SCENARIO)
}

/// `--write-fixture`: (re)generate the committed fixture ledger.
fn write_fixture(path: &Path) {
    let schema = fixture_schema();
    let events = fixture_events();
    let mut ledger = RecordLedger::create(path, &schema).expect("create fixture ledger");
    for ev in &events {
        ledger.append(ev).expect("append");
    }
    ledger.sync().expect("sync");
    println!(
        "wrote {} ({} events, schema {})",
        path.display(),
        events.len(),
        em_stream::schema_fingerprint(&schema)
    );
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stream_bench_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

// ------------------------------------------------------------- HTTP client

fn read_one_response(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
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
            if buf.len() >= head_end + 4 + need {
                return String::from_utf8_lossy(&buf[..head_end + 4 + need]).to_string();
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return String::from_utf8_lossy(&buf).to_string(),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw).expect("write");
    read_one_response(&mut stream)
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

fn header_of(response: &str, name: &str) -> Option<String> {
    let head = response.split("\r\n\r\n").next()?;
    head.lines().skip(1).find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case(name)
            .then(|| v.trim().to_string())
    })
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
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

// ------------------------------------------------------------------ phases

/// Phase 1: replay the committed fixture ledger cold, twice, and time
/// the fold. The two digests must agree — replay is a pure function.
fn phase_replay(fixture: &Path) -> String {
    let schema = fixture_schema();
    let replay_once = || {
        let started = Instant::now();
        let replay = RecordLedger::replay(fixture, &schema).expect("replay fixture ledger");
        let mut state = StreamState::new(schema.clone(), BlockerConfig::default());
        for ev in &replay.events {
            state.apply(ev, None).expect("fixture event rejected");
        }
        (replay, state, started.elapsed())
    };
    let (replay, state, elapsed) = replay_once();
    let (_, state2, _) = replay_once();
    assert_eq!(
        state.digest(),
        state2.digest(),
        "two replays of the same ledger diverged"
    );
    let events = replay.events.len();
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "replay: {events} events in {:.2} ms ({:.0} events/s), digest {}",
        secs * 1e3,
        events as f64 / secs,
        state.digest()
    );
    let mut o = json::Obj::new();
    o.str("phase", "replay_cold_start")
        .u64("events", events as u64)
        .f64("ms", secs * 1e3)
        .f64("events_per_sec", events as f64 / secs)
        .u64("truncated_bytes", replay.truncated_bytes)
        .str("digest", &state.digest())
        .u64("candidates", state.blocker().candidate_count() as u64);
    o.finish()
}

/// Phase 2: live ingest throughput through the full `ContinuousEm` path
/// (validate + apply + ledger append, fsync every 64 events).
fn phase_ingest(events: usize) -> String {
    let dir = tmp_dir("ingest");
    let spec = base_spec();
    let domain = spec.dataset.profile().domain();
    let stream = generate_events(
        domain.as_ref(),
        &ScenarioConfig {
            seed: 7,
            initial_pairs: 16,
            events,
            drift_after: usize::MAX, // throughput of the stable regime
            noise: 0.2,
        },
    );
    let mut em = ContinuousEm::open(
        spec,
        ContinuousConfig {
            drift: DriftConfig {
                window_events: usize::MAX, // never evaluate: pure ingest
                ..DriftConfig::default()
            },
            ..ContinuousConfig::new(dir.clone())
        },
        Box::new(|_| Ok(0)),
    )
    .expect("open ingest instance");
    let started = Instant::now();
    let mut fsyncs = 0u64;
    for (i, ev) in stream.iter().enumerate() {
        em.ingest(ev).expect("ingest");
        if i % 64 == 63 {
            em.sync().expect("sync");
            fsyncs += 1;
        }
    }
    em.sync().expect("sync");
    fsyncs += 1;
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    let n = stream.len();
    println!(
        "ingest: {n} events in {:.2} ms ({:.0} events/s, {fsyncs} fsyncs)",
        secs * 1e3,
        n as f64 / secs
    );
    std::fs::remove_dir_all(&dir).ok();
    let mut o = json::Obj::new();
    o.str("phase", "live_ingest")
        .u64("events", n as u64)
        .f64("ms", secs * 1e3)
        .f64("events_per_sec", n as f64 / secs)
        .u64("fsyncs", fsyncs);
    o.finish()
}

/// Phase 3: the cost the cache-invalidation protocol actually trades
/// on — a warm id-keyed encode vs an update (invalidate) followed by
/// the forced recompute.
fn phase_invalidation() -> String {
    let schema = fixture_schema();
    let domain = base_spec().dataset.profile().domain();
    let embedder = HashingEmbedder::new(48);
    let cache = EmbeddingCache::new(&embedder);
    let mut state = StreamState::new(schema, BlockerConfig::default());
    let mut rng = linalg::Rng::new(9);
    let n_records = 64usize;
    let mut entities = Vec::with_capacity(n_records);
    for id in 0..n_records as u64 {
        let e = domain.generate(&mut rng);
        state
            .apply(
                &RecordEvent::Insert {
                    side: Side::Left,
                    id,
                    entity: e.clone(),
                },
                Some(&cache),
            )
            .expect("insert");
        entities.push(e);
        // warm the id-keyed entry
        state.encode_record(Side::Left, id, &cache).expect("encode");
    }

    let warm_iters = 4_000usize;
    let started = Instant::now();
    for i in 0..warm_iters {
        let id = (i % n_records) as u64;
        std::hint::black_box(state.encode_record(Side::Left, id, &cache));
    }
    let cached_ns = started.elapsed().as_nanos() as f64 / warm_iters as f64;

    let cycle_iters = 1_000usize;
    let before = cache.invalidations();
    let started = Instant::now();
    for i in 0..cycle_iters {
        let id = (i % n_records) as u64;
        // swap in another record's values: a real content change
        let entity = entities[(i + 1) % n_records].clone();
        state
            .apply(
                &RecordEvent::Update {
                    side: Side::Left,
                    id,
                    entity,
                },
                Some(&cache),
            )
            .expect("update");
        std::hint::black_box(state.encode_record(Side::Left, id, &cache));
    }
    let cycle_ns = started.elapsed().as_nanos() as f64 / cycle_iters as f64;
    let invalidations = cache.invalidations() - before;
    assert_eq!(
        invalidations, cycle_iters,
        "every warm update must be accounted as exactly one invalidation"
    );
    println!(
        "invalidation: cached encode {cached_ns:.0} ns/op, \
         invalidate+recompute {cycle_ns:.0} ns/op ({invalidations} invalidations)"
    );
    let mut o = json::Obj::new();
    o.str("phase", "cache_invalidation")
        .u64("records", n_records as u64)
        .f64("cached_encode_ns", cached_ns)
        .f64("invalidate_recompute_ns", cycle_ns)
        .u64("invalidations", invalidations as u64);
    o.finish()
}

/// Phase 4: the continuous loop end to end — replay the fixture, inject
/// a drifting live stream, let the drift monitor launch the background
/// re-search, promote through `/admin/reload` under client load, and
/// account every response.
fn phase_promotion(fixture: &Path) -> String {
    let dir = tmp_dir("promotion");
    let spec = base_spec();
    // the serving host: trained live (the paper-hours budget is
    // simulated, so this is sub-second wall-clock)
    let host = std::sync::Arc::new(spec.train().expect("fixture training failed"));
    let schema = host.schema().clone();
    let pairs: Vec<RecordPair> = host.dataset().split(Split::Test)[..4].to_vec();
    let offline_a: Vec<u32> = host
        .match_proba(&pairs)
        .iter()
        .map(|p| p.to_bits())
        .collect();

    let handle = serve(
        std::sync::Arc::clone(&host),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind failed");
    let addr = handle.addr();

    let promote: em_stream::PromoteFn = Box::new(move |bundle: &Path| {
        let body = format!("{{\"path\":\"{}\"}}", bundle.display());
        let rsp = roundtrip(addr, &post("/admin/reload", &body));
        if !rsp.starts_with("HTTP/1.1 200") {
            return Err(format!("reload rejected: {rsp}"));
        }
        json::parse(body_of(&rsp))
            .ok()
            .and_then(|v| v.get("version")?.as_u64())
            .ok_or_else(|| "reload response had no version".to_owned())
    });

    // cold-start on a copy of the committed fixture, then drift on top
    std::fs::copy(fixture, dir.join("records.jsonl")).expect("stage fixture ledger");
    let mut em = ContinuousEm::open(
        spec.clone(),
        ContinuousConfig {
            drift: DriftConfig {
                window_events: 96,
                // candidate churn is dominated by the stream's organic
                // growth on top of the replayed fixture (every window
                // inserts fresh pairs), so the bench drives promotion off
                // the score-shift signal alone
                churn_threshold: 2.0,
                score_shift_threshold: 0.3,
            },
            research_deadline: Duration::from_secs(60),
            ..ContinuousConfig::new(dir.clone())
        },
        promote,
    )
    .expect("open continuous instance");
    let replayed = em.state().applied();
    assert!(replayed > 0, "fixture replay applied no events");

    // live events ride on a disjoint id space above the fixture's
    let mut live = generate_events(
        spec.dataset.profile().domain().as_ref(),
        &ScenarioConfig {
            seed: 17,
            initial_pairs: 24,
            events: 500,
            drift_after: 96,
            noise: 0.2,
        },
    );
    for ev in &mut live {
        match ev {
            RecordEvent::Insert { id, .. }
            | RecordEvent::Update { id, .. }
            | RecordEvent::Delete { id, .. } => *id += LIVE_ID_BASE,
        }
    }

    let stop = std::sync::atomic::AtomicBool::new(false);
    let (drift_fired, record, client_obs) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|c: usize| {
                let stop = &stop;
                let schema = &schema;
                let pairs = &pairs;
                s.spawn(move || {
                    let mut seen: Vec<(usize, u64, u32)> = Vec::new();
                    let mut bad = 0usize;
                    let mut last_version = 0u64;
                    let mut stream = TcpStream::connect(addr).expect("client connect");
                    let mut i = c;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let idx = i % pairs.len();
                        i += 1;
                        stream
                            .write_all(&post("/match", &pair_body(schema, &pairs[idx])))
                            .expect("client write");
                        let rsp = read_one_response(&mut stream);
                        if !rsp.starts_with("HTTP/1.1 200") {
                            bad += 1;
                            continue;
                        }
                        let version = header_of(&rsp, "x-model-version")
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or(0);
                        if version < last_version {
                            bad += 1; // rollback = drop-equivalent defect
                        }
                        last_version = version;
                        let bits = json::parse(body_of(&rsp))
                            .ok()
                            .and_then(|v| v.get("p_match").and_then(Json::as_f64))
                            .map(|p| (p as f32).to_bits())
                            .unwrap_or(0);
                        seen.push((idx, version, bits));
                    }
                    (bad, seen)
                })
            })
            .collect();

        let mut drift_fired = 0usize;
        for (i, ev) in live.iter().enumerate() {
            // the streaming scorer: every right-side record is scored
            // against its generated left partner through the live model,
            // feeding the monitor's score-shift signal — drifted
            // vocabulary visibly reshapes this distribution
            if let RecordEvent::Insert {
                side: Side::Right,
                id,
                entity,
            }
            | RecordEvent::Update {
                side: Side::Right,
                id,
                entity,
            } = ev
            {
                if let Some(left) = em.state().entity(Side::Left, id - 1) {
                    let pair = RecordPair {
                        left: left.clone(),
                        right: entity.clone(),
                        label: false,
                    };
                    let p = host.match_proba(std::slice::from_ref(&pair))[0];
                    em.note_score(f64::from(p));
                }
            }
            if em.ingest(ev).expect("ingest").is_some() {
                drift_fired += 1;
            }
            if i % 32 == 31 {
                em.sync().expect("sync");
            }
        }
        em.sync().expect("sync");
        // join the research before asserting anything: a panic inside the
        // scope would leave the clients spinning forever
        let record = if drift_fired > 0 {
            em.drain().expect("research/promotion failed").cloned()
        } else {
            None
        };
        // keep load on the promoted model briefly, then stop
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let obs: ClientObs = clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect();
        (drift_fired, record, obs)
    });

    assert!(
        drift_fired > 0,
        "the drifting stream never tripped the monitor"
    );
    let record = record.expect("drift fired but no research was launched");
    assert_eq!(record.version, 2, "promotion must advance the version");
    assert_eq!(handle.model_version(), 2);

    // exactly-one-correct-response accounting, per version
    let host_b =
        load_model(&em.config().bundle_path(record.epoch)).expect("promoted bundle must load back");
    let offline_b: Vec<u32> = host_b
        .match_proba(&pairs)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let mut requests = 0u64;
    let mut v2_requests = 0u64;
    let mut bad_total = 0u64;
    let mut mismatches = 0u64;
    for (bad, seen) in &client_obs {
        bad_total += *bad as u64;
        for (idx, version, bits) in seen {
            let want = match version {
                1 => offline_a[*idx],
                2 => offline_b[*idx],
                _ => {
                    mismatches += 1;
                    continue;
                }
            };
            if *bits != want {
                mismatches += 1;
            }
            requests += 1;
            if *version == 2 {
                v2_requests += 1;
            }
        }
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "promotion: drift fired {drift_fired}x, research {} ms, promote {} ms, \
         {requests} requests ({v2_requests} on v2), {bad_total} bad, {mismatches} mismatches",
        record.research_ms, record.promote_ms
    );
    let mut o = json::Obj::new();
    o.str("phase", "drift_promotion")
        .u64("replayed_events", replayed)
        .u64("live_events", live.len() as u64)
        .u64("drift_fired", drift_fired as u64)
        .u64("epoch", record.epoch)
        .u64("version", record.version)
        .str("digest", &record.digest)
        .f64("val_f1", record.report.val_f1)
        .u64("research_ms", record.research_ms)
        .u64("promote_ms", record.promote_ms)
        .u64("requests", requests)
        .u64("v2_requests", v2_requests)
        .u64("bad", bad_total)
        .u64("mismatches", mismatches);
    o.finish()
}

// ------------------------------------------------------------------ report

fn write_report(out: &Path, rows: &[String]) -> PathBuf {
    std::fs::create_dir_all(out).expect("create out dir");
    let mut o = json::Obj::new();
    o.str("bench", "stream")
        .raw("rows", &json::array(rows.iter().cloned()));
    let path = out.join("BENCH_stream.json");
    std::fs::write(&path, format!("{}\n", o.finish())).expect("write report");
    path
}

/// `--check`: re-parse the report and fail on any violated invariant.
/// `committed_fixture` pins the replay row to the committed ledger's
/// digest and candidate count.
fn check_report(path: &Path, committed_fixture: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let root = json::parse(&text).map_err(|_| "report is not valid json".to_owned())?;
    let rows: Vec<&Json> = match root.get("rows") {
        Some(Json::Arr(items)) => items.iter().collect(),
        _ => return Err("report has no rows".into()),
    };
    let f = |row: &Json, k: &str| -> Result<f64, String> {
        row.get(k)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("missing/non-finite {k}"))
    };
    let mut seen = Vec::new();
    for row in rows {
        let phase = row
            .get("phase")
            .and_then(Json::as_str)
            .ok_or("row without phase")?
            .to_owned();
        match phase.as_str() {
            "replay_cold_start" | "live_ingest" => {
                if f(row, "events")? <= 0.0 || f(row, "events_per_sec")? <= 0.0 {
                    return Err(format!("{phase}: no throughput recorded"));
                }
                if phase == "replay_cold_start" && committed_fixture {
                    let digest = row.get("digest").and_then(Json::as_str);
                    if digest != Some(FIXTURE_DIGEST) {
                        return Err(format!(
                            "fixture replay digest {digest:?}, expected {FIXTURE_DIGEST}"
                        ));
                    }
                    let candidates = f(row, "candidates")?;
                    if candidates != FIXTURE_CANDIDATES {
                        return Err(format!(
                            "fixture replay has {candidates} candidates, \
                             expected {FIXTURE_CANDIDATES}"
                        ));
                    }
                }
            }
            "cache_invalidation" => {
                if f(row, "cached_encode_ns")? <= 0.0 || f(row, "invalidate_recompute_ns")? <= 0.0 {
                    return Err(format!("{phase}: no cost recorded"));
                }
            }
            "drift_promotion" => {
                if f(row, "drift_fired")? < 1.0 {
                    return Err("drift never fired".into());
                }
                if f(row, "version")? != 2.0 {
                    return Err("promotion did not advance the version".into());
                }
                if f(row, "requests")? <= 0.0 {
                    return Err("no client traffic observed".into());
                }
                if f(row, "v2_requests")? <= 0.0 {
                    return Err("no traffic on the promoted model".into());
                }
                if f(row, "bad")? != 0.0 || f(row, "mismatches")? != 0.0 {
                    return Err("dropped or non-bit-identical responses".into());
                }
            }
            other => return Err(format!("unknown phase {other}")),
        }
        seen.push(phase);
    }
    for want in [
        "replay_cold_start",
        "live_ingest",
        "cache_invalidation",
        "drift_promotion",
    ] {
        if !seen.iter().any(|p| p == want) {
            return Err(format!("phase {want} missing from report"));
        }
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let fixture = PathBuf::from(&args.fixture);
    if args.write_fixture {
        write_fixture(&fixture);
        return;
    }
    assert!(
        fixture.exists(),
        "fixture ledger {} not found — run `stream_bench --write-fixture` \
         (from the repo root) to regenerate it",
        fixture.display()
    );

    let rows = vec![
        phase_replay(&fixture),
        phase_ingest(args.events),
        phase_invalidation(),
        phase_promotion(&fixture),
    ];
    let path = write_report(Path::new(&args.out), &rows);
    println!("wrote {}", path.display());

    if args.check {
        match check_report(&path, args.fixture == FIXTURE_PATH) {
            Ok(()) => println!("stream-smoke: all invariants hold"),
            Err(e) => {
                eprintln!("stream-smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
}
