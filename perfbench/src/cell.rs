//! `cell`: one offline Table 5 cell — S-BR through the Hybrid tokenizer,
//! the Albert embedder and the Average combiner, searched by the three
//! AutoML engines at one paper-hour each, next to DeepMatcher.

use crate::probe::{self, costed};
use crate::trace::Tracer;
use crate::{median, tail, Args, Outcome};
use automl::AutoMlSystem;
use deepmatcher::{train_deepmatcher, TrainConfig};
use em_core::{pipeline::run_encoded, Combiner, EmAdapter, PipelineConfig, TokenizerMode};
use em_data::{EmDataset, MagellanDataset, Split};
use embed::families::{EmbedderFamily, PretrainConfig, PretrainedTransformer};
use std::time::Instant;

/// The seed picks one of this many dataset instances, whose reference
/// F1s are stored in `cell_reference.json`.
const INSTANCES: u64 = 16;

/// DeepMatcher trains on the first pairs of the train and validation
/// splits and predicts the whole test split. Its adaptive epoch count
/// (up to 30 passes) makes a full-size fit cost about 6000 example
/// passes, more than one run can hold; this slice keeps 480.
const DM_TRAIN: usize = 16;
const DM_VALID: usize = 8;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const ENGINES: [&str; 3] = ["AutoSklearn", "AutoGluon", "H2OAutoML"];

const REFERENCE: &str = include_str!("../cell_reference.json");

fn engine(idx: usize, seed: u64) -> Box<dyn AutoMlSystem> {
    match idx {
        0 => Box::new(automl::sklearn_like::AutoSklearnStyle::new(seed)),
        1 => Box::new(automl::gluon_like::AutoGluonStyle::new(seed)),
        _ => Box::new(automl::h2o_like::H2oStyle::new(seed)),
    }
}

/// The stored reference F1s of one instance:
/// `[AutoSklearn, AutoGluon, H2OAutoML, DeepMatcher]`.
fn reference(instance: u64) -> Option<[f64; 4]> {
    let doc = obs::json::parse(REFERENCE).ok()?;
    let row = doc.get("instances")?.get(&instance.to_string())?;
    let f = |k: &str| row.get(k).and_then(obs::json::Json::as_f64);
    Some([
        f(ENGINES[0])?,
        f(ENGINES[1])?,
        f(ENGINES[2])?,
        f("DeepMatcher")?,
    ])
}

/// Generalist-plus-domain pretraining text: a sample of S-BR surface
/// forms so the subword vocabulary covers the dataset.
fn domain_text(seed: u64) -> Vec<String> {
    let profile = MagellanDataset::SBR.profile();
    let sample = profile.generate_scaled(seed ^ 0x7E47, (200.0 / profile.size as f64).min(1.0));
    sample
        .pairs()
        .iter()
        .take(100)
        .flat_map(|p| [p.left.flatten(), p.right.flatten()])
        .collect()
}

struct Setup {
    dataset: EmDataset,
    albert: PretrainedTransformer,
}

fn setup(data_seed: u64, tr: &mut Tracer, out: &mut Outcome) -> Setup {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut pretrain_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (dataset, gen) = costed(|| {
            tr.span("em-data", "generate", || {
                MagellanDataset::SBR.profile().generate(data_seed)
            })
        });
        let text = domain_text(data_seed);
        let cfg = PretrainConfig {
            seed: data_seed,
            steps: 40,
            corpus_sentences: 300,
            ..PretrainConfig::default()
        };
        let (albert, pre) = costed(|| {
            tr.span("embed", "pretrain", || {
                PretrainedTransformer::pretrain(EmbedderFamily::Albert, &text, cfg)
            })
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        generate_s.push(gen.wall_s);
        pretrain_s.push(pre.wall_s);
        out.layer("embed.cpu_user_s", pre.user_s);
        out.layer("embed.cpu_sys_s", pre.sys_s);
        last = Some(Setup { dataset, albert });
    }
    out.end_to_end.insert("setup_s", median(&setup_s));
    out.named.push(("setup_s", median(&setup_s), "s"));
    out.layer("em-data.generate_s", median(&generate_s));
    out.layer("embed.pretrain_s", median(&pretrain_s));
    out.samples.push(("setup_s", setup_s));
    last.expect("at least one set-up")
}

/// One timed cell's measurements.
struct CellRun {
    cell_s: f64,
    dm_s: f64,
    f1: [f64; 4],
    predict_us: Vec<f64>,
}

fn timed_cell(s: &Setup, seed: u64, tr: &mut Tracer, out: &mut Outcome) -> Result<CellRun, String> {
    let ds = &s.dataset;
    let t0 = Instant::now();
    // encode: every split through one adapter, so one embedding cache
    let adapter = EmAdapter::new(TokenizerMode::Hybrid, &s.albert, Combiner::Average);
    let ((train, valid, test), enc) = costed(|| {
        tr.span("em-core", "encode_split", || {
            (
                adapter.encode_split(ds, Split::Train),
                adapter.encode_split(ds, Split::Validation),
                adapter.encode_split(ds, Split::Test),
            )
        })
    });
    let (hits, misses) = adapter.cache_stats();
    out.layer("em-core.encode_s", enc.wall_s);
    out.layer("embed.cache_hits", hits as f64);
    out.layer("embed.cache_misses", misses as f64);
    let (mut core_user, mut core_sys) = (enc.user_s, enc.sys_s);
    let mut f1 = [0.0; 4];
    for (i, name) in ENGINES.iter().enumerate() {
        let cfg = PipelineConfig {
            budget_hours: 1.0,
            seed,
            ..PipelineConfig::default()
        };
        let (result, c) = costed(|| {
            tr.span("em-core", &format!("run_encoded.{name}"), || {
                let mut sys = engine(i, seed);
                run_encoded(sys.as_mut(), &train, &valid, &test, cfg, "S-BR")
            })
        });
        let r = result.map_err(|e| format!("{name} search failed: {e}"))?;
        core_user += c.user_s;
        core_sys += c.sys_s;
        out.layer(&format!("em-core.pipeline_s.{name}"), c.wall_s);
        out.layer(&format!("automl.trials.{name}"), r.models_evaluated as f64);
        out.layer(&format!("automl.failed.{name}"), r.models_failed as f64);
        out.layer(&format!("automl.hours_used.{name}"), r.hours_used);
        f1[i] = r.test_f1;
    }
    out.layer("em-core.cpu_user_s", core_user);
    out.layer("em-core.cpu_sys_s", core_sys);
    let cell_s = t0.elapsed().as_secs_f64();

    // DeepMatcher: default TrainConfig on the slice, then a per-pair
    // test-split predict
    let t1 = Instant::now();
    let dm_data = ds.subsample(DM_TRAIN, DM_VALID, usize::MAX);
    let (dm, train_c) = costed(|| {
        tr.span("deepmatcher", "train_deepmatcher", || {
            train_deepmatcher(
                &dm_data,
                TrainConfig {
                    seed,
                    ..TrainConfig::default()
                },
            )
        })
    });
    let pairs = dm_data.split(Split::Test);
    let mut predict_us = Vec::with_capacity(pairs.len());
    let (probs, pred_c) = costed(|| {
        tr.span("deepmatcher", "predict_proba", || {
            pairs
                .iter()
                .map(|p| {
                    let t = Instant::now();
                    let v = dm.predict_proba(p);
                    predict_us.push(t.elapsed().as_secs_f64() * 1e6);
                    v
                })
                .collect::<Vec<f32>>()
        })
    });
    let labels = dm_data.labels(Split::Test);
    f1[3] = tr.span("ml", "f1_at_threshold", || {
        ml::metrics::f1_at_threshold(&probs, &labels, dm.threshold)
    });
    let dm_s = t1.elapsed().as_secs_f64();
    out.layer("deepmatcher.train_s", train_c.wall_s);
    out.layer("deepmatcher.predict_s", pred_c.wall_s);
    out.layer("deepmatcher.cpu_user_s", train_c.user_s + pred_c.user_s);
    out.layer("deepmatcher.cpu_sys_s", train_c.sys_s + pred_c.sys_s);
    Ok(CellRun {
        cell_s,
        dm_s,
        f1,
        predict_us,
    })
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let instance = args.seed % INSTANCES;
    let seed = instance;
    let s = setup(seed, tr, &mut out);
    let want = reference(instance);

    let par0 = [
        probe::counter("par.scopes"),
        probe::counter("par.tasks"),
        probe::counter("par.busy_us"),
    ];
    tr.start_window();
    let started = Instant::now();
    let cpu0 = probe::cpu_s();
    let mut runs = Vec::new();
    // at least one cell; another only if it fits in the run's seconds
    while runs.is_empty()
        || started.elapsed().as_secs_f64() * (runs.len() + 1) as f64 / runs.len() as f64
            <= args.seconds as f64
    {
        runs.push(timed_cell(&s, seed, tr, &mut out)?);
    }
    let cpu_s = probe::cpu_s() - cpu0;
    tr.end_window();
    let par1 = [
        probe::counter("par.scopes"),
        probe::counter("par.tasks"),
        probe::counter("par.busy_us"),
    ];
    out.layer("par.scopes", (par1[0] - par0[0]) as f64);
    out.layer("par.tasks", (par1[1] - par0[1]) as f64);
    out.layer("par.busy_s", (par1[2] - par0[2]) as f64 * 1e-6);
    out.partition(tr);

    for r in &runs {
        out.attempted += 4;
        let name = |i: usize| if i < 3 { ENGINES[i] } else { "DeepMatcher" };
        for (i, got) in r.f1.iter().enumerate() {
            let ok = want.is_some_and(|w| w[i].to_bits() == got.to_bits());
            out.failed += u64::from(!ok);
            out.check(
                &format!("f1.{} = reference (instance {instance})", name(i)),
                ok,
            );
        }
    }
    let first = &runs[0];
    let cell_s: Vec<f64> = runs.iter().map(|r| r.cell_s).collect();
    let dm_s: Vec<f64> = runs.iter().map(|r| r.dm_s).collect();
    let predict_us: Vec<f64> = runs.iter().flat_map(|r| r.predict_us.clone()).collect();
    let best = first.f1[..3].iter().copied().fold(f64::MIN, f64::max);
    let p50 = median(&predict_us);
    let (tail_q, tail_us) = tail(&predict_us);
    let pairs_done = (runs.len() * s.dataset.len()) as f64;
    let cpu_us_per_pair = cpu_s * 1e6 / pairs_done;
    out.end_to_end.insert("op_us", cpu_us_per_pair);
    out.named.extend([
        ("cell_s", median(&cell_s), "s"),
        ("dm_s", median(&dm_s), "s"),
        ("cell_f1", best, "%"),
        ("f1.AutoSklearn", first.f1[0], "%"),
        ("f1.AutoGluon", first.f1[1], "%"),
        ("f1.H2OAutoML", first.f1[2], "%"),
        ("f1.DeepMatcher", first.f1[3], "%"),
        ("dm_predict_p50_us", p50, "us"),
        ("dm_predict_tail_us", tail_us, "us"),
        ("dm_predict_tail_quantile", tail_q, "ratio"),
        (
            "cell_pairs_per_s",
            s.dataset.len() as f64 / median(&cell_s),
            "1/s",
        ),
        ("cpu_us_per_pair", cpu_us_per_pair, "us"),
        ("instance", instance as f64, "count"),
    ]);
    out.samples.push(("cell_s", cell_s));
    out.samples.push(("dm_s", dm_s));
    out.samples.push(("dm_predict_us", predict_us));
    Ok(out)
}
