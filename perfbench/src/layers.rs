//! Per-layer measurements for the traced run. Each times calls into one
//! layer's public functions from outside, keeping the minimum over
//! repeated calls (the same estimator as the end-to-end metrics).

use crate::report::Metrics;
use crate::workloads::{grid_context, Campaign, Grid, Sharded, SCALE};
use std::hint::black_box;
use tdfm_core::distributed::{fit_sharded, WorkerGrads};
use tdfm_core::experiment::{ExperimentConfig, Runner};
use tdfm_core::technique::{TechniqueKind, EVAL_BATCH};
use tdfm_data::DatasetKind;
use tdfm_inject::{FaultKind, FaultPlan};
use tdfm_nn::loss::{CrossEntropy, Loss, Target};
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::optim::{Optimizer, Sgd};
use tdfm_nn::trainer::{export_batch_gradients, fit, TargetSource};
use tdfm_nn::Mode;
use tdfm_obs::memory;
use tdfm_tensor::ops::{self, Conv2dSpec};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{Scratch, Tensor};

/// Minimum wall time (seconds) of one call of `f`, over `reps` timed
/// batches of `inner` calls each, after one untimed warm-up call.
pub fn min_time<T>(reps: usize, inner: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    (0..reps)
        .map(|_| {
            let start = crate::clock();
            for _ in 0..inner {
                black_box(f());
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Heap allocations made while `f` runs (counted by the benchmark's
/// global allocator; single-threaded callers only).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    memory::reset_allocations();
    memory::set_counting(true);
    let out = f();
    memory::set_counting(false);
    (out, memory::allocations())
}

/// Rows, inner dimension and columns of the ConvNet smoke step's largest
/// GEMM: its first dense layer on GTSRB (batch 32, 16 channels x 2 x 2
/// features in, 43 hidden units out).
pub const STEP_GEMM: (usize, usize, usize) = (32, 64, 43);
/// Side of the square GEMM used as the machine's reference peak.
pub const PEAK_GEMM: usize = 256;

fn random(dims: &[usize], rng: &mut Rng) -> Tensor {
    Tensor::randn(dims, 1.0, rng)
}

/// `a * b` by the ascending-k loop the packed kernels must match bit for
/// bit.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// GEMM throughput at the step's shape and at the reference shape, and
/// conv forward/backward at ConvNet layer-1 smoke geometry. Returns
/// whether the GEMM output matched the reference loop bit for bit.
pub fn tensor(m: &mut Metrics) -> bool {
    let mut rng = Rng::seed_from(0x7E45);
    let scratch = Scratch::shared();
    let (rows, inner, cols) = STEP_GEMM;
    let a = random(&[rows, inner], &mut rng);
    let b = random(&[inner, cols], &mut rng);
    let c = ops::matmul(&a, &b);
    let exact = c.data() == naive_matmul(&a, &b).as_slice();
    scratch.recycle(c);
    let flops = (2 * rows * inner * cols) as f64;
    let t = min_time(30, 200, || scratch.recycle(ops::matmul(&a, &b)));
    m.push("tensor.gemm_gflops", flops / t * 1e-9, "GFLOP/s");
    m.push("tensor.gemm_flops", flops, "count");

    let n = PEAK_GEMM;
    let a = random(&[n, n], &mut rng);
    let b = random(&[n, n], &mut rng);
    let t = min_time(10, 1, || scratch.recycle(ops::matmul(&a, &b)));
    m.push(
        "tensor.gemm_peak_gflops",
        (2 * n * n * n) as f64 / t * 1e-9,
        "GFLOP/s",
    );

    let arena = Scratch::new();
    let x = random(&[32, 3, 8, 8], &mut rng);
    let w = random(&[4, 3, 3, 3], &mut rng);
    let bias = random(&[4], &mut rng);
    let spec = Conv2dSpec::same(3);
    let t = min_time(30, 20, || {
        arena.recycle(ops::conv2d_forward_with(&x, &w, Some(&bias), spec, &arena))
    });
    m.push("tensor.conv_fwd_us", t * 1e6, "us");
    let gy = random(&[32, 4, 8, 8], &mut rng);
    let t = min_time(30, 20, || {
        let g = ops::conv2d_backward_with(&x, &w, &gy, spec, &arena);
        arena.recycle(g.grad_input);
        arena.recycle(g.grad_weight);
        arena.recycle(g.grad_bias);
    });
    m.push("tensor.conv_bwd_us", t * 1e6, "us");
    exact
}

/// One SGD step (forward in train mode, cross entropy, backward, update)
/// on a batch of 32 GTSRB images, for every architecture.
pub fn train_steps(m: &mut Metrics, grid: &Grid) {
    let images = grid.train.images().slice_rows(0, 32);
    let labels = &grid.train.labels()[..32];
    let scratch = Scratch::shared();
    for model in ModelKind::ALL {
        let cfg = ModelConfig {
            in_shape: grid.train.image_shape(),
            classes: grid.train.classes(),
            width: SCALE.model_width(),
            seed: 1,
        };
        let mut net = model.build(&cfg);
        net.bind_scratch(scratch);
        let mut opt = Sgd::new(0.05, 0.9, 1e-4);
        let t = min_time(15, 1, || {
            let logits = net.forward(&images, Mode::Train);
            let out = CrossEntropy.evaluate(&logits, &Target::Hard(labels));
            let gx = net.backward(&out.grad);
            scratch.recycle(logits);
            scratch.recycle(out.grad);
            scratch.recycle(gx);
            opt.step(&mut net.params_mut());
        });
        m.push(format!("nn.train_step_us.{}", model.name()), t * 1e6, "us");
    }
}

/// Evaluation-mode prediction of the campaign's test set.
pub fn predict(m: &mut Metrics, campaign: &mut Campaign) {
    let Campaign { net, test, .. } = campaign;
    let t = min_time(20, 1, || net.predict(test.images(), EVAL_BATCH));
    m.push("nn.predict_us.ConvNet", t * 1e6, "us");
}

/// Marginal heap allocations per optimisation step of plain `fit` and per
/// round of `fit_sharded`: the difference between a long and a short run,
/// so per-run set-up allocations cancel.
pub fn allocs(m: &mut Metrics, grid: &Grid, sharded: &Sharded) {
    let cfg = ModelConfig {
        in_shape: grid.train.image_shape(),
        classes: grid.train.classes(),
        width: SCALE.model_width(),
        seed: 1,
    };
    let mut net = ModelKind::ConvNet.build(&cfg);
    let targets = TargetSource::Hard(grid.train.labels().to_vec());
    let base = grid_context(1).fit;
    let steps_per_epoch = grid.train.len().div_ceil(base.batch_size);
    let mut run = |epochs| {
        let cfg = tdfm_nn::trainer::FitConfig { epochs, ..base };
        count_allocs(|| fit(&mut net, &CrossEntropy, grid.train.images(), &targets, &cfg)).1
    };
    run(1);
    let (short, long) = (run(1), run(3));
    let steps = 2 * steps_per_epoch;
    m.push(
        "nn.allocs_per_step.fit",
        long.abs_diff(short) as f64 / steps as f64,
        "count",
    );
    m.push("nn.alloc_steps.fit", steps as f64, "count");

    let run = |epochs| {
        let cfg = tdfm_nn::trainer::FitConfig {
            epochs,
            ..crate::workloads::shard_fit_config(1)
        };
        let mut agg = crate::workloads::AGGREGATORS[0].1.build();
        let ((_, report), allocs) = count_allocs(|| {
            fit_sharded(
                ModelKind::ConvNet,
                &sharded.config,
                &sharded.shards,
                &cfg,
                agg.as_mut(),
            )
        });
        (allocs, report.rounds)
    };
    run(1);
    let ((short, r1), (long, r3)) = (run(1), run(3));
    m.push(
        "nn.allocs_per_step.sharded",
        long.abs_diff(short) as f64 / (r3 - r1) as f64,
        "count",
    );
    m.push("nn.alloc_steps.sharded", (r3 - r1) as f64, "count");
}

/// Aggregation of eight ConvNet-sized gradient sets, one per shard.
pub fn aggregate(m: &mut Metrics, sharded: &Sharded) {
    let mut net = ModelKind::ConvNet.build(&sharded.config);
    let exports: Vec<_> = sharded
        .shards
        .iter()
        .map(|shard| {
            let batch = crate::workloads::SHARD_BATCH;
            let images = shard.images().slice_rows(0, batch);
            let labels = &shard.labels()[..batch];
            export_batch_gradients(&mut net, &CrossEntropy, &images, &Target::Hard(labels))
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
    for (name, kind) in crate::workloads::AGGREGATORS {
        let mut agg = kind.build();
        let t = min_time(30, 1, || agg.aggregate(&workers));
        m.push(format!("core.aggregate_us.{name}"), t * 1e6, "us");
    }
}

/// Scratch-arena reuse over one warm `Base.ConvNet` grid unit.
pub fn scratch_reuse(m: &mut Metrics, grid: &mut Grid) {
    use crate::workloads::Workload;
    let tr = crate::trace::Tracer::new(false);
    grid.run(0, &tr);
    let before = Scratch::shared().stats();
    grid.run(0, &tr);
    let after = Scratch::shared().stats();
    let hits = after.hits - before.hits;
    let checkouts = after.checkouts() - before.checkouts();
    m.push(
        "tensor.scratch_hit_ratio",
        hits as f64 / checkouts.max(1) as f64,
        "ratio",
    );
    m.push("tensor.scratch_checkouts", checkouts as f64, "count");
}

/// One `Runner::run_grid` over two cells sharing a golden model, at the
/// study's real smoke-scale schedule. Returns whether every AD is finite.
pub fn runner(m: &mut Metrics, seed: u64) -> bool {
    let configs: Vec<ExperimentConfig> = [TechniqueKind::Baseline, TechniqueKind::LabelSmoothing]
        .map(|technique| ExperimentConfig {
            dataset: DatasetKind::Gtsrb,
            model: ModelKind::ConvNet,
            technique,
            fault_plan: FaultPlan::single(FaultKind::Mislabelling, 30.0),
            scale: SCALE,
            repetitions: 1,
            seed,
        })
        .to_vec();
    let runner = Runner::new();
    let start = crate::clock();
    let results = runner.run_grid(&configs);
    let wall = start.elapsed().as_secs_f64();
    let snap = runner.metrics_snapshot();
    let lookups = snap.counter("golden_lookups").unwrap_or(0);
    let trainings = snap.counter("golden_trainings").unwrap_or(0);
    m.push(
        "core.golden_hit_ratio",
        lookups.saturating_sub(trainings) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.push("core.golden_lookups", lookups as f64, "count");
    m.push("core.run_cell_ms", wall / configs.len() as f64 * 1e3, "ms");
    results.iter().all(|r| r.ad.mean.is_finite()) && lookups == configs.len() as u64
}
