//! `ledger`: continuous entity matching — durable ingest of a generated
//! record stream, then a cold start that replays the written ledger.
//!
//! The untraced path calls `ContinuousEm::ingest` per event (fsync every
//! 64 events) and `ContinuousEm::open` for the cold start. The traced
//! path makes the same calls `ingest` and `open` make, one span each:
//! `StreamState::apply` → `RecordLedger::append` → `DriftMonitor::observe`
//! per event, then `RecordLedger::replay` and the apply fold.

use crate::trace::Tracer;
use crate::{median, quantile, tail, Args, Outcome};
use em_core::model::ModelSpec;
use em_data::BlockerConfig;
use em_stream::{
    generate_events, ContinuousConfig, ContinuousEm, DriftConfig, DriftMonitor, RecordEvent,
    RecordLedger, ScenarioConfig, StreamState,
};
use embed::cache::EmbeddingCache;
use embed::HashingEmbedder;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Events generated after the initial load: the live candidate set
/// reaches 0.5–1 × 10⁶ pairs.
const EVENTS: usize = 6_000;
/// Streams in the pool, one per cycle. A few rare events (stop-word
/// cutoff flips of the blocking index) take most of the ingest time, and
/// how many a stream holds differs several-fold between streams: the
/// median over a fixed pool compares like with like from seed to seed,
/// where a pool drawn from each seed would spread by a third.
const STREAMS: u64 = 8;
/// Matched pairs inserted up front.
const INITIAL_PAIRS: usize = 16;
/// Events between fsyncs.
const SYNC_EVERY: usize = 64;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Drift evaluated every default window, with thresholds no window can
/// reach (churn and total variation are at most 1), so the monitor does
/// its work and never launches a re-search.
fn drift_config() -> DriftConfig {
    DriftConfig {
        churn_threshold: 2.0,
        score_shift_threshold: 2.0,
        ..DriftConfig::default()
    }
}

fn config(dir: &Path) -> ContinuousConfig {
    ContinuousConfig {
        drift: drift_config(),
        ..ContinuousConfig::new(dir.to_path_buf())
    }
}

/// One write-then-replay cycle's measurements.
#[derive(Default)]
struct Cycle {
    ingest_s: f64,
    ingest_cpu_s: f64,
    ingest_us: Vec<f64>,
    replay_s: f64,
    rejected: u64,
    digests_match: bool,
}

/// Per-call timings of a traced cycle.
#[derive(Default)]
struct Calls {
    apply_us: Vec<f64>,
    append_us: Vec<f64>,
    observe_us: Vec<f64>,
    sync_us: Vec<f64>,
    read_s: f64,
    fold_s: f64,
    candidates: usize,
    cross_product: usize,
    invalidations: usize,
    ledger_bytes: u64,
}

fn fresh_dir(seed: u64, k: usize) -> Result<PathBuf, String> {
    let dir = PathBuf::from(format!(".perfbench/ledger-{seed}-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn untraced_cycle(spec: &ModelSpec, events: &[RecordEvent], dir: &Path) -> Result<Cycle, String> {
    let mut c = Cycle::default();
    let mut em = ContinuousEm::open(spec.clone(), config(dir), Box::new(|_| Ok(0)))
        .map_err(|e| format!("open: {e}"))?;
    c.ingest_us.reserve(events.len());
    let cpu0 = crate::probe::cpu_s();
    let t0 = Instant::now();
    for (i, ev) in events.iter().enumerate() {
        let t = Instant::now();
        if em.ingest(ev).is_err() {
            c.rejected += 1;
        }
        c.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
        if i % SYNC_EVERY == SYNC_EVERY - 1 {
            em.sync().map_err(|e| format!("sync: {e}"))?;
        }
    }
    em.sync().map_err(|e| format!("sync: {e}"))?;
    c.ingest_s = t0.elapsed().as_secs_f64();
    c.ingest_cpu_s = crate::probe::cpu_s() - cpu0;
    let written = em.state().digest();
    drop(em);
    let t1 = Instant::now();
    let cold = ContinuousEm::open(spec.clone(), config(dir), Box::new(|_| Ok(0)))
        .map_err(|e| format!("cold open: {e}"))?;
    c.replay_s = t1.elapsed().as_secs_f64();
    c.digests_match = cold.state().digest() == written;
    Ok(c)
}

fn traced_cycle(
    spec: &ModelSpec,
    events: &[RecordEvent],
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(Cycle, Calls), String> {
    let mut c = Cycle::default();
    let mut k = Calls::default();
    let cfg = config(dir);
    let schema = spec.dataset.profile().domain().schema();
    let path = cfg.ledger_path();
    let timed = |v: &mut Vec<f64>, t: Instant| v.push(t.elapsed().as_secs_f64() * 1e6);

    let open = tr.enter("em-stream", "ingest");
    let mut state = StreamState::new(schema.clone(), BlockerConfig::default());
    let mut ledger = RecordLedger::create(&path, &schema).map_err(|e| format!("create: {e}"))?;
    let mut monitor = DriftMonitor::new(drift_config());
    let cache = EmbeddingCache::shared(Arc::new(HashingEmbedder::new(cfg.embed_dim)));
    let t0 = Instant::now();
    for (i, ev) in events.iter().enumerate() {
        let t = Instant::now();
        let applied = tr.span("em-stream", "StreamState::apply", || {
            state.apply(ev, Some(&cache))
        });
        timed(&mut k.apply_us, t);
        if applied.is_err() {
            c.rejected += 1;
        } else {
            let t = Instant::now();
            let appended = tr.span("em-stream", "RecordLedger::append", || ledger.append(ev));
            timed(&mut k.append_us, t);
            appended.map_err(|e| format!("append: {e}"))?;
            let t = Instant::now();
            tr.span("em-stream", "DriftMonitor::observe", || {
                monitor.observe(state.blocker())
            });
            timed(&mut k.observe_us, t);
        }
        c.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
        if i % SYNC_EVERY == SYNC_EVERY - 1 {
            let t = Instant::now();
            let synced = tr.span("em-stream", "RecordLedger::sync", || ledger.sync());
            timed(&mut k.sync_us, t);
            synced.map_err(|e| format!("sync: {e}"))?;
        }
    }
    let t = Instant::now();
    let synced = tr.span("em-stream", "RecordLedger::sync", || ledger.sync());
    timed(&mut k.sync_us, t);
    synced.map_err(|e| format!("sync: {e}"))?;
    c.ingest_s = t0.elapsed().as_secs_f64();
    tr.exit(open);
    let written = state.digest();
    k.candidates = state.blocker().candidate_count();
    k.cross_product = state.blocker().cross_product();
    k.invalidations = cache.invalidations();
    k.ledger_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    drop((state, ledger, monitor, cache));

    let open = tr.enter("em-stream", "cold start");
    let t1 = Instant::now();
    let replay = tr.span("em-stream", "RecordLedger::replay", || {
        RecordLedger::replay(&path, &schema)
    });
    k.read_s = t1.elapsed().as_secs_f64();
    let replay = replay.map_err(|e| format!("replay: {e}"))?;
    let t2 = Instant::now();
    let mut cold = StreamState::new(schema.clone(), BlockerConfig::default());
    let folded = tr.span("em-stream", "StreamState::apply (fold)", || {
        replay.events.iter().try_for_each(|ev| cold.apply(ev, None))
    });
    k.fold_s = t2.elapsed().as_secs_f64();
    c.replay_s = t1.elapsed().as_secs_f64();
    tr.exit(open);
    c.rejected += u64::from(folded.is_err());
    c.digests_match = cold.digest() == written;
    Ok((c, k))
}

/// The `j`-th stream a run ingests: the workload seed rotates the order
/// of one fixed pool of [`STREAMS`] stable-regime streams.
fn stream(spec: &ModelSpec, seed: u64, j: u64) -> Vec<RecordEvent> {
    generate_events(
        spec.dataset.profile().domain().as_ref(),
        &ScenarioConfig {
            seed: 1 + (seed.wrapping_add(j) % STREAMS),
            initial_pairs: INITIAL_PAIRS,
            events: EVENTS,
            drift_after: usize::MAX,
            noise: 0.2,
        },
    )
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = ModelSpec::fixture();
    let mut setup_s = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        streams = tr.span("em-stream", "generate_events", || {
            (0..STREAMS)
                .map(|j| stream(&spec, args.seed, j))
                .collect::<Vec<_>>()
        });
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.named.push(("setup_s", median(&setup_s), "s"));
    out.samples.push(("setup_s", setup_s));

    // one write-then-replay cycle per stream while another fits in the
    // run's seconds; a traced run follows each untraced cycle with a
    // traced one on the same stream, so the two can be compared
    let mut cycles: Vec<(usize, Cycle)> = Vec::new();
    let mut traced: Vec<(usize, Cycle, Calls)> = Vec::new();
    let per_stream = if tr.on() { 2 } else { 1 };
    let started = Instant::now();
    tr.start_window();
    let mut k = 0;
    loop {
        let done = k / per_stream;
        let spent = started.elapsed().as_secs_f64();
        let fits = k == 0 || spent * (k + per_stream) as f64 / k as f64 <= args.seconds as f64;
        if k % per_stream == 0 && (!fits || done == streams.len()) {
            break;
        }
        let dir = fresh_dir(args.seed, k)?;
        let events = &streams[done];
        if k % per_stream == 1 {
            let (c, calls) = traced_cycle(&spec, events, &dir, tr)?;
            traced.push((done, c, calls));
        } else {
            let open = tr.enter("em-stream", "ContinuousEm ingest + open");
            let c = untraced_cycle(&spec, events, &dir);
            tr.exit(open);
            cycles.push((done, c?));
        }
        let _ = std::fs::remove_dir_all(&dir);
        k += 1;
    }
    tr.end_window();
    let _ = std::fs::remove_dir(".perfbench");

    let n = |j: usize| streams[j].len() as f64;
    let all = || {
        cycles
            .iter()
            .map(|(j, c)| (*j, c))
            .chain(traced.iter().map(|(j, c, _)| (*j, c)))
    };
    for (j, c) in all() {
        out.attempted += streams[j].len() as u64 + 1;
        out.failed += c.rejected + u64::from(!c.digests_match);
    }
    out.check("no event rejected", all().all(|(_, c)| c.rejected == 0));
    out.check(
        "cold-replay digest equals the ingest digest",
        all().all(|(_, c)| c.digests_match),
    );

    // per-stream figures, then their median over the run's streams
    let ingest_eps: Vec<f64> = cycles.iter().map(|(j, c)| n(*j) / c.ingest_s).collect();
    let replay_eps: Vec<f64> = cycles.iter().map(|(j, c)| n(*j) / c.replay_s).collect();
    let p50s: Vec<f64> = cycles.iter().map(|(_, c)| median(&c.ingest_us)).collect();
    let tails: Vec<(f64, f64)> = cycles.iter().map(|(_, c)| tail(&c.ingest_us)).collect();
    let (p50, p99) = (
        median(&p50s),
        median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()),
    );
    let tail_q = tails.first().map_or(0.0, |t| t.0);
    let cpu_us: Vec<f64> = cycles
        .iter()
        .map(|(j, c)| c.ingest_cpu_s * 1e6 / n(*j))
        .collect();
    out.end_to_end.insert("op_us", p50);
    out.named.extend([
        ("ingest_eps", median(&ingest_eps), "1/s"),
        ("ingest_p50_us", p50, "us"),
        ("ingest_p99_us", p99, "us"),
        ("ingest_tail_quantile", tail_q, "ratio"),
        ("replay_eps", median(&replay_eps), "1/s"),
        ("ingest_cpu_us_per_event", median(&cpu_us), "us"),
        (
            "events_per_stream",
            median(&cycles.iter().map(|(j, _)| n(*j)).collect::<Vec<_>>()),
            "count",
        ),
        ("streams", cycles.len() as f64, "count"),
    ]);
    out.samples.push(("ingest_eps", ingest_eps));
    out.samples.push(("replay_eps", replay_eps));
    out.samples
        .push(("ingest_p99_us", tails.iter().map(|t| t.1).collect()));

    if let Some((_, _, last)) = traced.last() {
        let pool = |f: fn(&Calls) -> &Vec<f64>| -> Vec<f64> {
            traced
                .iter()
                .flat_map(|(_, _, k)| f(k).iter().copied())
                .collect()
        };
        for (name, v) in [
            ("apply_us", pool(|k| &k.apply_us)),
            ("append_us", pool(|k| &k.append_us)),
            ("sync_us", pool(|k| &k.sync_us)),
            ("observe_us", pool(|k| &k.observe_us)),
        ] {
            out.layer(&format!("em-stream.{name}_p50"), median(&v));
            out.layer(&format!("em-stream.{name}_p99"), quantile(&v, 0.99));
        }
        let med =
            |f: fn(&Calls) -> f64| median(&traced.iter().map(|(_, _, k)| f(k)).collect::<Vec<_>>());
        out.layer("em-stream.replay_read_s", med(|k| k.read_s));
        out.layer("em-stream.replay_fold_s", med(|k| k.fold_s));
        out.layer(
            "em-stream.traced_ingest_eps",
            median(
                &traced
                    .iter()
                    .map(|(j, c, _)| n(*j) / c.ingest_s)
                    .collect::<Vec<_>>(),
            ),
        );
        out.layer("em-stream.ledger_bytes", last.ledger_bytes as f64);
        out.layer("em-data.candidates", last.candidates as f64);
        out.layer(
            "em-data.reduction",
            last.candidates as f64 / last.cross_product.max(1) as f64,
        );
        out.layer("embed.invalidations", last.invalidations as f64);
    }
    out.partition(tr);
    Ok(out)
}
