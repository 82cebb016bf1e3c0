//! The repository benchmark: three workloads over the entity-matching
//! stack, each printing its end-to-end metrics (or, traced, its
//! per-layer metrics) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cell|match|ledger> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it
//! is the full report: provenance (nproc, par threads, CPU model,
//! commit, build profile, seed), every workload-specific metric by
//! name, the output checks and the raw per-run samples. A traced run
//! also writes its spans to `.perfbench/trace-<workload>-<seed>.jsonl`.
//! Any failed output check makes the exit code non-zero.
//!
//! The benchmark runs the program's defaults: it reads and sets no
//! `AUTOML_EM_*` or `EMBED_BENCH_FAST` variable.

mod cell;
mod ledger;
mod load;
mod probe;
mod trace;

use obs::json::{self, Obj};
use std::collections::BTreeMap;
use std::path::Path;
use trace::Tracer;

/// End-to-end metrics every workload reports (`--trace 0`), with units.
/// Their meaning per workload is in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mib", "MiB"), ("op_us", "us")];

/// Per-layer metrics every traced run reports (`--trace 1`), with
/// units. A layer the workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // the self-time partition of the timed window
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("em-data.self_s", "s"),
    ("embed.self_s", "s"),
    ("em-core.self_s", "s"),
    ("ml.self_s", "s"),
    ("deepmatcher.self_s", "s"),
    ("em-serve.self_s", "s"),
    ("em-stream.self_s", "s"),
    ("obs.self_s", "s"),
    ("bench.self_s", "s"),
    // cell
    ("em-data.generate_s", "s"),
    ("embed.pretrain_s", "s"),
    ("em-core.encode_s", "s"),
    ("embed.cache_hits", "count"),
    ("embed.cache_misses", "count"),
    ("em-core.pipeline_s.AutoSklearn", "s"),
    ("em-core.pipeline_s.AutoGluon", "s"),
    ("em-core.pipeline_s.H2OAutoML", "s"),
    ("automl.trials.AutoSklearn", "count"),
    ("automl.trials.AutoGluon", "count"),
    ("automl.trials.H2OAutoML", "count"),
    ("automl.failed.AutoSklearn", "count"),
    ("automl.failed.AutoGluon", "count"),
    ("automl.failed.H2OAutoML", "count"),
    ("automl.hours_used.AutoSklearn", "h"),
    ("automl.hours_used.AutoGluon", "h"),
    ("automl.hours_used.H2OAutoML", "h"),
    ("deepmatcher.train_s", "s"),
    ("deepmatcher.predict_s", "s"),
    ("embed.cpu_user_s", "s"),
    ("embed.cpu_sys_s", "s"),
    ("em-core.cpu_user_s", "s"),
    ("em-core.cpu_sys_s", "s"),
    ("deepmatcher.cpu_user_s", "s"),
    ("deepmatcher.cpu_sys_s", "s"),
    ("par.threads", "count"),
    ("par.scopes", "count"),
    ("par.tasks", "count"),
    ("par.busy_s", "s"),
    // match
    ("em-core.match_proba_us.b1", "us"),
    ("em-core.match_proba_us.b2", "us"),
    ("em-core.match_proba_us.b32", "us"),
    ("em-serve.batch_pairs_mean", "pairs"),
    ("em-serve.batch_fill", "ratio"),
    ("em-serve.server_p50_us", "us"),
    ("em-serve.server_p99_us", "us"),
    ("bench.gen_lateness_p99_us", "us"),
    // ledger
    ("em-stream.apply_us_p50", "us"),
    ("em-stream.apply_us_p99", "us"),
    ("em-stream.append_us_p50", "us"),
    ("em-stream.append_us_p99", "us"),
    ("em-stream.sync_us_p50", "us"),
    ("em-stream.sync_us_p99", "us"),
    ("em-stream.observe_us_p50", "us"),
    ("em-stream.observe_us_p99", "us"),
    ("em-stream.replay_read_s", "s"),
    ("em-stream.replay_fold_s", "s"),
    ("em-stream.ledger_bytes", "bytes"),
    ("em-stream.traced_ingest_eps", "1/s"),
    ("em-data.candidates", "count"),
    ("em-data.reduction", "ratio"),
    ("embed.invalidations", "count"),
];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs an integer")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, and failed: refused, errored or wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Values of the [`END_TO_END`] metrics.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Workload-specific metrics by their own names, with units.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Values of the [`PER_LAYER`] metrics this workload touches.
    pub layer: BTreeMap<String, f64>,
    /// Raw per-run samples by name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Record an output check; any failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("perfbench: output check failed: {name}");
        }
        self.checks.push((name.to_owned(), ok));
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layer.insert(name.to_owned(), v);
    }

    /// Fold the tracer's self-time partition into the layer metrics.
    pub fn partition(&mut self, tracer: &Tracer) {
        let p = tracer.partition();
        self.layer("trace.wall_s", p.wall_s);
        self.layer("trace.unattributed_s", p.unattributed_s);
        self.layer(
            "trace.unattributed_share",
            p.unattributed_s / p.wall_s.max(1e-12),
        );
        self.layer("trace.spans", tracer.span_count() as f64);
        self.layer(
            "trace.overhead_s",
            tracer.span_count() as f64 * trace::span_cost_s(),
        );
        for (layer, s) in p.self_s {
            self.layer(&format!("{layer}.self_s"), s);
        }
    }
}

/// The highest percentile, up to p99, with at least ten samples beyond
/// it (never below p50), as `(quantile, value)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let q = (1.0 - 10.0 / v.len().max(1) as f64).clamp(0.5, 0.99);
    (q, quantile(v, q))
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of a sample (0 for an empty one).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn metrics_obj(entries: impl IntoIterator<Item = (String, f64, String)>) -> String {
    let mut o = Obj::new();
    for (name, value, unit) in entries {
        let mut m = Obj::new();
        m.f64("value", value).str("unit", &unit);
        o.raw(&name, &m.finish());
    }
    o.finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "cell" => cell::run(&args, &mut tracer),
        "match" => load::run(&args, &mut tracer),
        "ledger" => ledger::run(&args, &mut tracer),
        other => Err(format!(
            "unknown workload {other:?} (cell, match or ledger)"
        )),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    out.end_to_end.insert("peak_rss_mib", probe::peak_rss_mib());
    out.named
        .push(("peak_rss_mib", probe::peak_rss_mib(), "MiB"));
    if args.trace {
        out.layer("par.threads", par::threads() as f64);
        let path = format!(".perfbench/trace-{}-{}.jsonl", args.workload, args.seed);
        if let Err(e) = tracer.write(Path::new(&path)) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    let correct = out.checks.iter().all(|(_, ok)| *ok);

    let mut full = Obj::new();
    full.raw(
        "provenance",
        &probe::provenance(&args.workload, args.seed, args.seconds, args.trace),
    )
    .raw(
        "named",
        &metrics_obj(
            out.named
                .iter()
                .map(|(n, v, u)| ((*n).to_owned(), *v, (*u).to_owned())),
        ),
    )
    .raw(
        "checks",
        &json::array(out.checks.iter().map(|(n, ok)| {
            let mut c = Obj::new();
            c.str("check", n).bool("ok", *ok);
            c.finish()
        })),
    );
    let mut samples = Obj::new();
    for (name, v) in &out.samples {
        samples.raw(
            name,
            &json::array(v.iter().map(|x| {
                let mut s = String::new();
                json::write_f64(&mut s, *x);
                s
            })),
        );
    }
    full.raw("samples", &samples.finish());
    println!("{}", full.finish());

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let source = |name: &str| {
        if args.trace {
            out.layer.get(name).copied().unwrap_or(0.0)
        } else {
            out.end_to_end.get(name).copied().unwrap_or(f64::NAN)
        }
    };
    let metrics = metrics_obj(
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), source(n), (*u).to_owned())),
    );
    let mut line = Obj::new();
    line.bool("correct", correct)
        .u64("attempted", out.attempted.max(1))
        .u64("failed", out.failed)
        .raw("metrics", &metrics);
    println!("{}", line.finish());
    if !correct {
        std::process::exit(1);
    }
}
