//! `match`: the online matcher under load from one client process.
//!
//! * Phase A — open loop: Poisson single-pair `POST /match` at a fixed
//!   rate from one client thread, pipelined over at most `nproc`
//!   keep-alive connections, each request timed from its *scheduled*
//!   send time. Pairs come from the warmed test split.
//! * Phase B — a sweep for the highest single-pair rate whose p99 meets
//!   the latency limit with no failures and no backlog.
//! * Phase C — closed loop: `POST /match/batch` of 32 pairs freshly
//!   generated from the S-BR profile, so the embedding cache is written.
//!
//! Every 200 is checked bit for bit against `match_proba` of a second,
//! identically trained host, so computing references never warms the
//! served host's cache.

use crate::probe::{self, costed};
use crate::trace::{Span, Tracer};
use crate::{median, quantile, tail, Args, Outcome};
use em_core::model::{ModelHost, ModelSpec};
use em_data::{MagellanDataset, RecordPair, Schema, Split};
use em_serve::{ServeConfig, ServerHandle};
use linalg::Rng;
use obs::json::{self, Json};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of Phase A, requests per second.
const PHASE_A_RPS: f64 = 200.0;
/// Latency limit on p99 for the goodput search, microseconds.
const LIMIT_US: f64 = 10_000.0;
/// A step is abandoned once any request has waited this long.
const ABANDON_US: f64 = 4.0 * LIMIT_US;
/// Offered rates Phase B sweeps, requests per second.
const SWEEP: [f64; 7] = [300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0];
/// Pairs per Phase C request (the server's default `max_batch`).
const BULK_BATCH: usize = 32;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Longest sleep of the open-loop client between socket polls.
const POLL_NS: u64 = 50_000;
/// Direct `match_proba` calls per batch size in the traced run.
const PROBE_CALLS: usize = 200;
/// Batches per Phase C throughput segment.
const BULK_SEGMENT: usize = 192;
/// Novel pairs Phase C scores (fewer if its time share runs out first).
const BULK_PAIRS: usize = 49_152;
/// Shares of the run's seconds given to Phases A, B and (at most) C.
const SHARE_A: f64 = 0.5;
const SHARE_B: f64 = 0.4;
const SHARE_C: f64 = 0.1;
/// Phase A requests per latency window; `match_p99_us` is the median of
/// the windows' p99s, so one slow stretch of the machine moves one
/// window, not the result.
const WINDOW: usize = 1000;

fn entity_json(schema: &Schema, entity: &em_data::Entity) -> String {
    let mut o = json::Obj::new();
    for (i, attr) in schema.attributes().iter().enumerate() {
        if let Some(v) = entity.value(i) {
            o.str(&attr.name, v);
        }
    }
    o.finish()
}

fn pair_json(schema: &Schema, pair: &RecordPair) -> String {
    let mut o = json::Obj::new();
    o.raw("left", &entity_json(schema, &pair.left))
        .raw("right", &entity_json(schema, &pair.right));
    o.finish()
}

fn request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Take one complete response `(status, body)` off the front of `buf`.
fn take_response(buf: &mut Vec<u8>) -> Result<Option<(u16, String)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or("response without content-length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("unparseable status line")?;
    let body = String::from_utf8_lossy(&buf[start..start + length]).to_string();
    buf.drain(..start + length);
    Ok(Some((status, body)))
}

/// Blocking read of one response.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u16, String), String> {
    let mut chunk = [0u8; 16384];
    loop {
        if let Some(r) = take_response(buf)? {
            return Ok(r);
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

fn p_match_bits(body: &str) -> Option<u32> {
    let p = json::parse(body).ok()?.get("p_match")?.as_f64()?;
    Some((p as f32).to_bits())
}

/// Write all of `bytes` to a non-blocking socket.
fn send(stream: &mut TcpStream, bytes: &[u8]) -> Result<(), String> {
    let mut sent = 0;
    while sent < bytes.len() {
        match stream.write(&bytes[sent..]) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// Result of one open-loop step at a fixed rate.
struct Step {
    rate: f64,
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    sent: u64,
    failed: u64,
    mismatches: u64,
    abandoned: bool,
}

impl Step {
    fn meets_limit(&self) -> bool {
        !self.abandoned
            && self.failed == 0
            && self.mismatches == 0
            && !self.latency_us.is_empty()
            && quantile(&self.latency_us, 0.99) <= LIMIT_US
    }
}

struct Server<'a> {
    addr: SocketAddr,
    conns: usize,
    requests: &'a [Vec<u8>],
    reference: &'a [u32],
    n_pairs: usize,
}

impl Server<'_> {
    /// Offer `rate` Poisson arrivals for `secs` from one client thread.
    /// Each request goes out at its due time, pipelined on the
    /// connection with the fewest requests outstanding; responses are
    /// read without blocking and timed from the due time.
    fn open_loop(
        &self,
        rng: &mut Rng,
        rate: f64,
        secs: f64,
        abandon: bool,
        tr: &mut Tracer,
        req_base: &mut u64,
    ) -> Result<Step, String> {
        let mut schedule: Vec<(u64, usize)> = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.f64()).ln() / rate;
            if t >= secs {
                break;
            }
            schedule.push(((t * 1e9) as u64, rng.below(self.n_pairs)));
        }
        let base = *req_base;
        *req_base += schedule.len() as u64;
        let mut conns = (0..self.conns)
            .map(|_| connect(self.addr))
            .collect::<Result<Vec<_>, _>>()?;
        for c in &conns {
            c.set_nonblocking(true).map_err(|e| e.to_string())?;
        }
        let mut outstanding: Vec<VecDeque<(u64, usize, u64)>> = vec![VecDeque::new(); conns.len()];
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
        let mut chunk = [0u8; 16384];
        let mut step = Step {
            rate,
            latency_us: Vec::with_capacity(schedule.len()),
            lateness_us: Vec::with_capacity(schedule.len()),
            sent: 0,
            failed: 0,
            mismatches: 0,
            abandoned: false,
        };
        let mut spans = Vec::new();
        let offset = tr.origin().elapsed().as_nanos() as u64;
        let start = Instant::now();
        let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
        let mut next = 0;
        loop {
            let now = since(Instant::now());
            while next < schedule.len() && !step.abandoned && schedule[next].0 <= now {
                let (due, idx) = schedule[next];
                let k = (0..conns.len())
                    .min_by_key(|&k| outstanding[k].len())
                    .expect("at least one connection");
                send(&mut conns[k], &self.requests[idx])?;
                step.lateness_us
                    .push(since(Instant::now()).saturating_sub(due) as f64 * 1e-3);
                step.sent += 1;
                outstanding[k].push_back((due, idx, base + next as u64));
                next += 1;
            }
            let mut progressed = false;
            for k in 0..conns.len() {
                loop {
                    match conns[k].read(&mut chunk) {
                        Ok(0) => return Err("server closed the connection".into()),
                        Ok(n) => bufs[k].extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) => return Err(format!("read: {e}")),
                    }
                }
                while let Some((status, body)) = take_response(&mut bufs[k])? {
                    let done = since(Instant::now());
                    let (due, idx, req) = outstanding[k]
                        .pop_front()
                        .ok_or("response without a request")?;
                    progressed = true;
                    step.latency_us.push((done - due) as f64 * 1e-3);
                    if status != 200 {
                        step.failed += 1;
                    } else if p_match_bits(&body) != Some(self.reference[idx]) {
                        step.mismatches += 1;
                    }
                    if tr.on() {
                        spans.push(Span {
                            layer: "em-serve",
                            name: "POST /match".into(),
                            start_ns: offset + due,
                            end_ns: offset + done,
                            parent: None,
                            req,
                            thread: 1,
                        });
                    }
                }
            }
            let now = since(Instant::now());
            let oldest = outstanding
                .iter()
                .filter_map(|q| q.front())
                .map(|o| o.0)
                .min();
            if abandon && oldest.is_some_and(|d| now.saturating_sub(d) as f64 * 1e-3 > ABANDON_US) {
                step.abandoned = true;
            }
            if (next == schedule.len() || step.abandoned) && oldest.is_none() {
                break;
            }
            if !progressed {
                let until_due = schedule
                    .get(next)
                    .filter(|_| !step.abandoned)
                    .map_or(u64::MAX, |s| s.0.saturating_sub(now));
                std::thread::sleep(Duration::from_nanos(until_due.min(POLL_NS)));
            }
        }
        tr.adopt(spans);
        Ok(step)
    }
}

/// Phase C: closed-loop batches of novel pairs until `secs` pass or the
/// pool runs out. Returns the probability bits served per batch (empty
/// where a request failed) and each batch's completion time, seconds.
fn bulk(
    addr: SocketAddr,
    conns: usize,
    bodies: &[Vec<u8>],
    secs: f64,
) -> Result<(Vec<Vec<u32>>, Vec<f64>), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    type Got = Vec<(usize, Vec<u32>, f64)>;
    let results: Vec<Result<Got, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut stream = connect(addr)?;
                    let mut buf = Vec::new();
                    let mut got = Vec::new();
                    while start.elapsed().as_secs_f64() < secs {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = bodies.get(i) else { break };
                        stream.write_all(req).map_err(|e| format!("write: {e}"))?;
                        let (status, body) = read_response(&mut stream, &mut buf)?;
                        let bits = match json::parse(&body)
                            .ok()
                            .and_then(|v| v.get("results").cloned())
                        {
                            Some(Json::Arr(items)) if status == 200 => items
                                .iter()
                                .filter_map(|r| r.get("p_match")?.as_f64())
                                .map(|p| (p as f32).to_bits())
                                .collect(),
                            _ => Vec::new(),
                        };
                        got.push((i, bits, start.elapsed().as_secs_f64()));
                    }
                    Ok(got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut served: Vec<Vec<u32>> = Vec::new();
    let mut done_s = Vec::new();
    for r in results {
        for (i, bits, at) in r? {
            if served.len() <= i {
                served.resize(i + 1, Vec::new());
            }
            served[i] = bits;
            done_s.push(at);
        }
    }
    done_s.sort_by(f64::total_cmp);
    Ok((served, done_s))
}

/// GET `/metrics` and parse it.
fn scrape(addr: SocketAddr) -> Result<Json, String> {
    let mut stream = connect(addr)?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let (status, body) = read_response(&mut stream, &mut Vec::new())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    json::parse(&body).map_err(|e| format!("/metrics: {e}"))
}

/// `(count, sum, buckets)` of a histogram in a `/metrics` document.
fn hist(doc: &Json, name: &str) -> (f64, f64, Vec<(f64, u64)>) {
    let Some(h) = doc.get(name) else {
        return (0.0, 0.0, Vec::new());
    };
    let buckets = match h.get("buckets") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|b| Some((b.get("le")?.as_f64()?, b.get("n")?.as_u64()?)))
            .collect(),
        _ => Vec::new(),
    };
    (
        h.get("count").and_then(Json::as_f64).unwrap_or(0.0),
        h.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
        buckets,
    )
}

/// Pairs freshly generated from the S-BR profile under seeds derived
/// from the workload seed, none of which the served dataset uses.
fn novel_pairs(seed: u64, n: usize) -> Vec<RecordPair> {
    let profile = MagellanDataset::SBR.profile();
    let mut out = Vec::new();
    let mut k = 0u64;
    while out.len() < n {
        let ds = profile.generate(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1000 + k));
        out.extend(ds.pairs().iter().cloned());
        k += 1;
    }
    out.truncate(n);
    out
}

fn start_server(spec: &ModelSpec) -> Result<(ServerHandle, Arc<ModelHost>), String> {
    let host = Arc::new(spec.train().map_err(|e| format!("fixture training: {e}"))?);
    host.warm_cache();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let handle = em_serve::serve(Arc::clone(&host), &config).map_err(|e| format!("serve: {e}"))?;
    Ok((handle, host))
}

/// `(quantile, value)` of the tail: the median over windows of
/// [`WINDOW`] requests of each window's p99, or the plain tail of a
/// sample too small for two windows.
fn windowed_p99(latency_us: &[f64]) -> (f64, f64) {
    if latency_us.len() < 2 * WINDOW {
        return tail(latency_us);
    }
    let p99s: Vec<f64> = latency_us
        .chunks(WINDOW)
        .filter(|w| w.len() == WINDOW)
        .map(|w| tail(w).1)
        .collect();
    (tail(&latency_us[..WINDOW]).0, median(&p99s))
}

fn open_phase(
    s: &Server<'_>,
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    abandon: bool,
    tr: &mut Tracer,
    req_base: &mut u64,
) -> Result<Step, String> {
    let open = tr.enter("em-serve", &format!("open_loop {rate:.0} req/s"));
    let step = s.open_loop(rng, rate, secs, abandon, tr, req_base);
    tr.exit(open);
    step
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = ModelSpec::fixture();
    let conns = crate::probe::nproc().clamp(1, 4);
    let secs = args.seconds as f64;

    // the reference host is trained first and never served
    let reference_host = spec
        .train()
        .map_err(|e| format!("reference training: {e}"))?;
    let mut setup_s = Vec::new();
    let mut server: Option<(ServerHandle, Arc<ModelHost>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((handle, _)) = server.take() {
            handle.shutdown();
        }
        let t0 = Instant::now();
        let started = tr.span("em-serve", "train+warm_cache+serve", || start_server(&spec));
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(started?);
    }
    let (handle, host) = server.expect("at least one set-up");
    let addr = handle.addr();
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.named.push(("setup_s", median(&setup_s), "s"));
    out.samples.push(("setup_s", setup_s));

    let schema = host.schema().clone();
    let test = host.dataset().split(Split::Test).to_vec();
    let reference: Vec<u32> = reference_host
        .match_proba(&test)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let requests: Vec<Vec<u8>> = test
        .iter()
        .map(|p| request("/match", &pair_json(&schema, p)))
        .collect();
    let s = Server {
        addr,
        conns,
        requests: &requests,
        reference: &reference,
        n_pairs: test.len(),
    };
    let pool = novel_pairs(args.seed, BULK_PAIRS);
    let bodies: Vec<Vec<u8>> = pool
        .chunks(BULK_BATCH)
        .map(|chunk| {
            let items = json::array(chunk.iter().map(|p| pair_json(&schema, p)));
            let mut o = json::Obj::new();
            o.raw("pairs", &items);
            request("/match/batch", &o.finish())
        })
        .collect();

    let mut rng = Rng::new(args.seed ^ 0x0A11_CE55);
    let mut req_base = 1u64;
    let before = scrape(addr)?;
    tr.start_window();

    // Phase A: fixed offered rate; the server's CPU is the process's
    // minus this (client) thread's
    let (cpu0, client0) = (probe::cpu_s(), probe::thread_cpu_s());
    let a = open_phase(
        &s,
        &mut rng,
        PHASE_A_RPS,
        secs * SHARE_A,
        false,
        tr,
        &mut req_base,
    )?;
    let server_cpu_s = (probe::cpu_s() - cpu0) - (probe::thread_cpu_s() - client0);
    let cpu_us_per_request = server_cpu_s * 1e6 / a.latency_us.len().max(1) as f64;

    // Phase B: sweep up from Phase A's rate until a step misses the
    // limit; the goodput is where p99 crosses the limit, interpolated in
    // log p99 between the last step that met it and the first that missed
    let step_secs = secs * SHARE_B / SWEEP.len() as f64;
    let a_p99 = windowed_p99(&a.latency_us).1;
    let mut below = (0.0, median(&a.latency_us));
    let mut above = None;
    if a.failed + a.mismatches == 0 && a_p99 <= LIMIT_US {
        below = (PHASE_A_RPS, a_p99);
    } else {
        above = Some((PHASE_A_RPS, a_p99.max(LIMIT_US)));
    }
    let mut steps = Vec::new();
    for &rate in &SWEEP {
        if above.is_some() {
            break;
        }
        let step = open_phase(&s, &mut rng, rate, step_secs, true, tr, &mut req_base)?;
        let p99 = quantile(&step.latency_us, 0.99);
        if step.meets_limit() {
            below = (rate, p99);
        } else {
            above = Some((
                rate,
                if step.abandoned || step.failed > 0 {
                    p99.max(2.0 * LIMIT_US)
                } else {
                    p99
                },
            ));
        }
        steps.push(step);
    }
    let goodput = match above {
        Some((r1, q1)) => {
            let (r0, q0) = below;
            let f = ((LIMIT_US.ln() - q0.ln()) / (q1.ln() - q0.ln()).max(1e-9)).clamp(0.0, 1.0);
            r0 + (r1 - r0) * f
        }
        None => below.0,
    };
    let after_b = tr.span("obs", "GET /metrics", || scrape(addr))?;

    // Phase C: closed-loop batches of novel pairs
    let (hits0, misses0) = host.cache_stats();
    let open = tr.enter("em-serve", "bulk /match/batch");
    let bulk_run = bulk(addr, conns, &bodies, secs * SHARE_C);
    tr.exit(open);
    let (served, done_s) = bulk_run?;
    let (hits1, misses1) = host.cache_stats();
    tr.end_window();

    // checks, all outside the timed window
    let sent_pairs: Vec<RecordPair> = served
        .iter()
        .enumerate()
        .flat_map(|(i, _)| pool[i * BULK_BATCH..((i + 1) * BULK_BATCH).min(pool.len())].to_vec())
        .collect();
    let want: Vec<u32> = reference_host
        .match_proba(&sent_pairs)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let mut bulk_failed = 0u64;
    let mut bulk_mismatch = 0u64;
    for (i, got) in served.iter().enumerate() {
        let lo_i = i * BULK_BATCH;
        let expect = &want[lo_i..(lo_i + BULK_BATCH).min(want.len())];
        if got.len() == expect.len() {
            bulk_mismatch += u64::from(got.as_slice() != expect);
        } else {
            bulk_failed += 1;
        }
    }
    let phases = std::iter::once(&a).chain(steps.iter());
    let (mut sent, mut failed, mut mismatches) = (0u64, 0u64, 0u64);
    for p in phases {
        sent += p.sent;
        failed += p.failed;
        mismatches += p.mismatches;
    }
    out.attempted = sent + served.len() as u64;
    out.failed = failed + bulk_failed + mismatches + bulk_mismatch;
    out.check(
        "every /match and /match/batch answered 200",
        failed + bulk_failed == 0,
    );
    out.check(
        "every 200 bit-identical to the reference host",
        mismatches + bulk_mismatch == 0,
    );
    let bulk_pairs = sent_pairs.len() as f64;
    // median throughput over segments of the completion sequence, so a
    // transient stall moves one segment, not the result
    let segment_pairs_per_s: Vec<f64> = std::iter::once(0.0)
        .chain(done_s.iter().copied())
        .collect::<Vec<f64>>()
        .chunks(BULK_SEGMENT)
        .zip(done_s.chunks(BULK_SEGMENT))
        .map(|(from, to)| (to.len() * BULK_BATCH) as f64 / (to[to.len() - 1] - from[0]).max(1e-9))
        .collect();
    let bulk_pairs_per_s = median(&segment_pairs_per_s);
    let p50 = median(&a.latency_us);
    let (tail_q, p99) = windowed_p99(&a.latency_us);
    let e2e = &mut out.end_to_end;
    e2e.insert("op_us", p50);
    out.named.extend([
        ("match_p50_us", p50, "us"),
        ("match_p99_us", p99, "us"),
        ("match_tail_quantile", tail_q, "ratio"),
        ("match_goodput_rps", goodput, "1/s"),
        ("server_cpu_us_per_request", cpu_us_per_request, "us"),
        ("bulk_pairs_per_s", bulk_pairs_per_s, "1/s"),
        ("phase_a_requests", a.latency_us.len() as f64, "count"),
        ("phase_c_pairs", bulk_pairs, "count"),
        ("connections", conns as f64, "count"),
    ]);

    // per-layer: batcher and server-side latency over Phases A and B
    let (c0, s0, _) = hist(&before, "serve.batch_pairs");
    let (c1, s1, _) = hist(&after_b, "serve.batch_pairs");
    let batch_mean = (s1 - s0) / (c1 - c0).max(1.0);
    out.layer("em-serve.batch_pairs_mean", batch_mean);
    out.layer(
        "em-serve.batch_fill",
        batch_mean / ServeConfig::default().max_batch as f64,
    );
    let (_, _, l0) = hist(&before, "serve.latency_us.match");
    let (_, _, l1) = hist(&after_b, "serve.latency_us.match");
    let delta: Vec<(f64, u64)> = l1
        .iter()
        .map(|&(le, n)| (le, n - l0.iter().find(|b| b.0 == le).map_or(0, |b| b.1)))
        .collect();
    out.layer(
        "em-serve.server_p50_us",
        obs::metrics::quantile_from_buckets(&delta, 0.5),
    );
    out.layer(
        "em-serve.server_p99_us",
        obs::metrics::quantile_from_buckets(&delta, 0.99),
    );
    out.layer("bench.gen_lateness_p99_us", quantile(&a.lateness_us, 0.99));
    out.layer("embed.cache_hits", (hits1 - hits0) as f64);
    out.layer("embed.cache_misses", (misses1 - misses0) as f64);
    out.partition(tr);
    if tr.on() {
        // direct calls on the reference host, outside the timed window:
        // b1/b2 on cached test pairs, b32 on pairs no host has seen
        let fresh = novel_pairs(args.seed ^ 0xB32, PROBE_CALLS * 32);
        for (name, size) in [("b1", 1usize), ("b2", 2), ("b32", 32)] {
            let mut us = Vec::with_capacity(PROBE_CALLS);
            for k in 0..PROBE_CALLS {
                let pairs: Vec<RecordPair> = if size == 32 {
                    fresh[k * 32..(k + 1) * 32].to_vec()
                } else {
                    (0..size)
                        .map(|j| test[(k * size + j) % test.len()].clone())
                        .collect()
                };
                let (_, c) = costed(|| reference_host.match_proba(&pairs));
                us.push(c.wall_s * 1e6);
            }
            out.layer(&format!("em-core.match_proba_us.{name}"), median(&us));
        }
    }
    out.samples
        .push(("phase_a_latency_us", a.latency_us.clone()));
    out.samples
        .push(("phase_b_rates", steps.iter().map(|st| st.rate).collect()));
    out.samples.push((
        "phase_b_p99_us",
        steps
            .iter()
            .map(|st| quantile(&st.latency_us, 0.99))
            .collect(),
    ));
    handle.shutdown();
    Ok(out)
}
