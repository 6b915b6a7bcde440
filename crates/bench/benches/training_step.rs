//! Benchmarks of per-technique training cost — the machine-measured
//! counterpart of the Section IV-E training-overhead analysis. Each
//! benchmark performs one full (small) training run of the technique, so
//! the relative times mirror the paper's multipliers.
//!
//! # Compare mode (the CI regression gate)
//!
//! ```text
//! cargo bench -p tdfm-bench --bench training_step -- \
//!     --compare results/BENCH_trainer.json --threshold 0.10
//! ```
//!
//! re-runs the suite, diffs it against the committed baseline and exits
//! non-zero when the geomean of the `current/baseline` `min_seconds`
//! ratios regresses by more than `threshold` (a fraction; default 0.10).
//! In compare mode the baseline file is **not** rewritten.
#![allow(
    clippy::print_stderr,
    reason = "a CLI front end reports to its user on stderr"
)]

use tdfm_bench::compare::compare_suites;
use tdfm_bench::harness::{bench, group, BenchSuite, ScalingCurve, ScalingPoint};
use tdfm_bench::write_json;
use tdfm_core::distributed::{fit_sharded, AggregatorKind, Mean, WorkerGrads};
use tdfm_core::technique::{TechniqueKind, TrainContext};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::split_clean;
use tdfm_nn::loss::{CrossEntropy, Target};
use tdfm_nn::models::ModelKind;
use tdfm_nn::trainer::{export_batch_gradients, fit, FitConfig, TargetSource};
use tdfm_tensor::{ops, simd, Tensor};

/// Options parsed from the bench binary's own CLI tail (after cargo's
/// `--bench training_step --`). Cargo's libtest flag `--bench` is ignored.
struct Options {
    compare: Option<String>,
    threshold: f64,
    scaling_out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        compare: None,
        threshold: 0.10,
        scaling_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--compare" => {
                opts.compare = Some(args.next().expect("--compare needs a baseline path"));
            }
            "--threshold" => {
                let raw = args.next().expect("--threshold needs a fraction");
                opts.threshold = raw
                    .parse()
                    .unwrap_or_else(|_| panic!("invalid --threshold {raw:?}"));
            }
            "--scaling-out" => {
                opts.scaling_out = Some(args.next().expect("--scaling-out needs a path"));
            }
            // Flags cargo-bench forwards from libtest conventions.
            "--bench" => {}
            other => {
                panic!("unknown argument {other:?} (expected --compare/--threshold/--scaling-out)")
            }
        }
    }
    opts
}

/// The elementwise / reduction micro-benchmarks: the vector kernels the
/// SIMD dispatch covers, at a size (1M elements / 256×4096) where the
/// measurement is bandwidth-and-lane-bound rather than call-overhead-bound.
fn bench_kernels(suite: &mut BenchSuite) {
    const N: usize = 1 << 20;
    let mut rng = tdfm_tensor::rng::Rng::seed_from(0xBE7C);
    let x = Tensor::randn(&[N], 1.0, &mut rng);
    let mut y = Tensor::randn(&[N], 1.0, &mut rng);
    let mut relu_out = vec![0.0f32; N];
    let mut mask = vec![0u32; N];

    group("elementwise");
    suite.push(&bench("elementwise/axpy_1m", || {
        simd::axpy(0.5, x.data(), y.data_mut());
    }));
    suite.push(&bench("elementwise/scale_1m", || {
        simd::scale(y.data_mut(), 1.0009);
    }));
    suite.push(&bench("elementwise/momentum_update_1m", || {
        simd::momentum_update(y.data_mut(), x.data(), relu_out.as_slice(), 0.9, 1e-4);
    }));
    suite.push(&bench("elementwise/relu_fwd_1m", || {
        simd::relu_forward(x.data(), &mut relu_out, &mut mask);
    }));
    suite.push(&bench("elementwise/relu_bwd_1m", || {
        simd::relu_backward(x.data(), &mask, &mut relu_out);
    }));

    let t = Tensor::randn(&[256, 4096], 2.0, &mut rng);
    group("reduction");
    suite.push(&bench("reduction/softmax_256x4096", || {
        ops::softmax_rows(&t, 1.0)
    }));
    suite.push(&bench("reduction/log_softmax_256x4096", || {
        ops::log_softmax_rows(&t)
    }));
    suite.push(&bench("reduction/sum_rows_256x4096", || ops::sum_rows(&t)));
}

/// The multi-thread scaling cells: one-epoch fits pinned to 1/2/4 worker
/// threads. The per-cell timings go into the suite (so the compare gate
/// covers thread scaling like any other benchmark) and come back as
/// [`ScalingCurve`]s for the `--scaling-out` artefact.
fn bench_scaling(suite: &mut BenchSuite) -> Vec<ScalingCurve> {
    const THREADS: [usize; 3] = [1, 2, 4];
    let data = DatasetKind::Cifar10.generate(Scale::Tiny, 0);
    let mut curves = Vec::new();
    group("scaling");
    for model in [ModelKind::ConvNet, ModelKind::ResNet18] {
        let mut curve = ScalingCurve {
            name: model.name().to_string(),
            simd: simd::simd_name().to_string(),
            points: Vec::new(),
        };
        for threads in THREADS {
            tdfm_tensor::parallel::set_num_threads(threads);
            let report = bench(&format!("scaling/{}/t{threads}", model.name()), || {
                let ctx = TrainContext::new(Scale::Tiny, 0);
                let mut net = model.build(&ctx.model_config(&data.train));
                fit(
                    &mut net,
                    &CrossEntropy,
                    data.train.images(),
                    &TargetSource::Hard(data.train.labels().to_vec()),
                    &FitConfig {
                        epochs: 1,
                        batch_size: 16,
                        ..FitConfig::default()
                    },
                )
            });
            curve.points.push(ScalingPoint {
                threads: threads as u32,
                mean_seconds: report.mean.as_secs_f64(),
                min_seconds: report.min.as_secs_f64(),
            });
            suite.push(&report);
        }
        curves.push(curve);
    }
    // Back to the default resolution order (TDFM_THREADS / auto).
    tdfm_tensor::parallel::set_num_threads(0);
    curves
}

/// The sharded-training cells at the benchmark's smoke shapes: each
/// aggregator over eight exported ConvNet gradient sets (one per shard,
/// batch 8), then one whole `fit_sharded` epoch over 8 shards of 16
/// samples with the `Mean` aggregator.
fn bench_sharded(suite: &mut BenchSuite) {
    const SHARDS: usize = 8;
    const SHARD_SAMPLES: usize = 16;
    const BATCH: usize = 8;
    let data = DatasetKind::Cifar10.generate(Scale::Smoke, 0);
    let slice: Vec<usize> = (0..SHARDS * SHARD_SAMPLES).collect();
    let shards = data.train.select(&slice).shards(SHARDS);
    let ctx = TrainContext::new(Scale::Smoke, 0);
    let config = ctx.model_config(&shards[0]);
    let mut net = ModelKind::ConvNet.build(&config);
    let exports: Vec<_> = shards
        .iter()
        .map(|shard| {
            let images = shard.images().slice_rows(0, BATCH);
            let labels = Target::Hard(&shard.labels()[..BATCH]);
            export_batch_gradients(&mut net, &CrossEntropy, &images, &labels)
        })
        .collect();
    let workers: Vec<WorkerGrads<'_>> = exports
        .iter()
        .enumerate()
        .map(|(worker, e)| WorkerGrads {
            worker,
            grads: &e.grads,
        })
        .collect();
    group("aggregate");
    for kind in AggregatorKind::standard_set() {
        let name = kind.name();
        let family = name.split('(').next().unwrap_or(&name);
        let mut aggregator = kind.build();
        suite.push(&bench(&format!("aggregate/{family}"), || {
            aggregator.aggregate(&workers)
        }));
    }

    group("sharded_fit");
    let cfg = FitConfig {
        epochs: 1,
        batch_size: BATCH,
        ..FitConfig::default()
    };
    suite.push(&bench("sharded_fit/ConvNet", || {
        fit_sharded(ModelKind::ConvNet, &config, &shards, &cfg, &mut Mean)
    }));
}

fn main() {
    let opts = parse_args();
    let mut suite = BenchSuite::new("trainer");
    let data = DatasetKind::Pneumonia.generate(Scale::Tiny, 0);
    group("technique_fit");
    for kind in TechniqueKind::ALL {
        let technique = kind.build();
        let report = bench(&format!("technique_fit/{}", kind.abbrev()), || {
            let mut ctx = TrainContext::new(Scale::Tiny, 0);
            // Keep the benchmark itself small and fixed-cost.
            ctx.fit.epochs = 2;
            ctx.fit.batch_size = 8;
            let train = if technique.wants_clean_subset() {
                let (clean, rest) = split_clean(&data.train, 0.1, 0);
                ctx.clean_subset = Some(clean);
                rest
            } else {
                data.train.clone()
            };
            technique.fit(ModelKind::ConvNet, &train, &ctx)
        });
        suite.push(&report);
    }

    let data = DatasetKind::Cifar10.generate(Scale::Tiny, 0);
    group("model_one_epoch");
    for model in ModelKind::ALL {
        let report = bench(&format!("model_one_epoch/{}", model.name()), || {
            let ctx = TrainContext::new(Scale::Tiny, 0);
            let mut net = model.build(&ctx.model_config(&data.train));
            fit(
                &mut net,
                &CrossEntropy,
                data.train.images(),
                &TargetSource::Hard(data.train.labels().to_vec()),
                &FitConfig {
                    epochs: 1,
                    batch_size: 16,
                    ..FitConfig::default()
                },
            )
        });
        suite.push(&report);
    }

    bench_sharded(&mut suite);
    bench_kernels(&mut suite);
    let curves = bench_scaling(&mut suite);
    if let Some(path) = &opts.scaling_out {
        let json = tdfm_json::to_string_pretty(&curves);
        match std::fs::write(path, &json) {
            Ok(()) => println!("\nwrote scaling curves to {path}"),
            Err(e) => eprintln!("could not write scaling curves to {path}: {e}"),
        }
    }

    if let Some(baseline_path) = &opts.compare {
        // Regression gate: diff against the committed baseline instead of
        // rewriting it. `cargo bench` runs this binary with the package
        // directory as cwd, so a relative path that does not resolve there
        // falls back to the workspace root.
        let mut path = std::path::PathBuf::from(baseline_path);
        if path.is_relative() && !path.exists() {
            let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(&path);
            if workspace.exists() {
                path = workspace;
            }
        }
        let baseline_path = path.display().to_string();
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("could not read baseline {baseline_path}: {e}"));
        let baseline: BenchSuite = tdfm_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("could not parse baseline {baseline_path}: {e:?}"));
        suite.to_json(); // refresh the metrics snapshot for parity
        let report = compare_suites(&baseline, &suite);
        println!("\n== compare vs {baseline_path} ==");
        print!("{}", report.render(opts.threshold));
        if !report.passes(opts.threshold) {
            std::process::exit(1);
        }
        return;
    }

    // The committed baseline: per-technique / per-model timings plus the
    // kernel-op histograms accumulated over the whole suite.
    match write_json("BENCH_trainer.json", &suite.to_json()) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write suite: {e}"),
    }
}
