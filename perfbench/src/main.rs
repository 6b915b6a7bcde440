//! End-to-end and per-layer benchmark of the tdfm stack.
//!
//! ```text
//! tdfm-perfbench --workload <grid-gtsrb|campaign-cifar|sharded-cifar>
//!                --seed <n> --seconds <n> --trace <0|1>
//! tdfm-perfbench --pin <path> # rewrite the pins (after a deliberate change)
//! ```
//!
//! The untraced run (`--trace 0`) times the workload's rotation for the
//! given seconds and reports the end-to-end metrics; the traced run
//! (`--trace 1`) records spans and reports the per-layer metrics. The
//! last line of standard output is the result document. See README.md.

mod estimator;
mod layers;
mod report;
mod trace;
mod workloads;

use estimator::{quantile, tail_percentile, Rotation};
use report::{document, per_layer_names, Metrics};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use tdfm_core::technique::TechniqueKind;
use tdfm_json::Value;
use tdfm_nn::models::ModelKind;
use tdfm_tensor::{parallel, Tensor};
use trace::Tracer;
use workloads::{Grid, Kind, Stages, Workload, VARIANTS};

/// Forwards to the system allocator and counts allocations while the
/// `tdfm_obs::memory` gate is open (`nn.allocs_per_step.*`).
struct CountingAlloc;

// SAFETY: every method forwards verbatim to the `System` allocator and only
// adds side-effect-free atomic bookkeeping, so `GlobalAlloc`'s contract
// (layout fidelity, no unwinding, no allocator reentrancy) is exactly
// `System`'s, which upholds it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tdfm_obs::memory::note_alloc();
        // SAFETY: `layout` is the caller's, forwarded untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `alloc`/`realloc` above, which
        // always return `System` pointers with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tdfm_obs::memory::note_alloc();
        // SAFETY: `ptr`/`layout` come from this allocator's own alloc path
        // (which is `System`'s), and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The benchmark's one clock read.
pub fn clock() -> Instant {
    // tdfm-lint: allow(nondeterministic-time, timing is this program's output; no pinned result depends on it)
    Instant::now()
}

/// Share of an untraced run spent repeating the set-up. The repeats are
/// spread over the run so they sample the host as the units do; `setup_s`
/// sums each stage's minimum over them.
const SETUP_SHARE: f64 = 0.25;

/// Fewest set-ups in an untraced run.
const MIN_SETUP_REPS: usize = 5;

/// Back-to-back set-ups of each workload in the traced run.
const TRACED_SETUP_REPS: usize = 3;

/// Pinned output digests: workload -> variant -> position.
const PINS: &str = include_str!("../pins.json");

#[derive(Debug)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Pin(String),
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--pin" => {
                let path = it.next().ok_or("--pin needs a path")?;
                return Ok(Mode::Pin(path.clone()));
            }
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                map.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let workload = Kind::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Pinned digests of `kind`'s positions for `variant`.
fn pins_for(pins: &Value, kind: Kind, variant: u64) -> Vec<u64> {
    pins.get(kind.name())
        .and_then(Value::as_array)
        .and_then(|v| v.get(variant as usize))
        .and_then(Value::as_array)
        .map(|row| {
            row.iter()
                .filter_map(Value::as_str)
                .filter_map(|h| u64::from_str_radix(h, 16).ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Side of the host probe's matrices.
const PROBE_N: usize = 64;

/// The host probe: a fixed 64x64x64 matrix product written here in plain
/// Rust, so no change to the stack can move it. Timed between units, its
/// median over its minimum (`host.contention`) tells a contended run from
/// a slower program.
fn host_probe(a: &[f32], c: &mut [f32]) {
    c.fill(0.0);
    for i in 0..PROBE_N {
        for k in 0..PROBE_N {
            let aik = a[i * PROBE_N + k];
            let row = &a[k * PROBE_N..(k + 1) * PROBE_N];
            for (cij, &akj) in c[i * PROBE_N..(i + 1) * PROBE_N].iter_mut().zip(row) {
                *cij += aik * akj;
            }
        }
    }
    std::hint::black_box(&mut *c);
}

/// Host probe samples of one run.
#[derive(Debug)]
struct Probe {
    a: Vec<f32>,
    c: Vec<f32>,
    samples: Vec<f64>,
}

impl Probe {
    fn new() -> Self {
        let mut rng = tdfm_tensor::rng::Rng::seed_from(0xCA11B);
        let a = Tensor::randn(&[PROBE_N, PROBE_N], 1.0, &mut rng).into_vec();
        Self {
            a,
            c: vec![0.0; PROBE_N * PROBE_N],
            samples: Vec::new(),
        }
    }

    /// Times one probe. An untimed call first brings its operands back
    /// into cache, so the sample does not depend on what the unit before
    /// it evicted.
    fn sample(&mut self) {
        host_probe(&self.a, &mut self.c);
        let start = clock();
        host_probe(&self.a, &mut self.c);
        self.samples.push(start.elapsed().as_secs_f64());
    }

    fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn contention(&self) -> f64 {
        quantile(&self.samples, 0.5) / self.min()
    }

    fn print(&self) {
        println!(
            "host probe: 64^3 product min {:.1} us, p50/min {:.3} over {} samples",
            self.min() * 1e6,
            self.contention(),
            self.samples.len(),
        );
    }
}

/// Counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// A workload under measurement: its rotation record, its pinned and
/// first-seen per-position outputs.
struct Bench {
    kind: Kind,
    w: Box<dyn Workload>,
    labels: Vec<String>,
    pins: Vec<u64>,
    /// Work and faults of each position the first time it ran.
    counts: Vec<Option<(u64, u64)>>,
}

impl Bench {
    fn new(kind: Kind, w: Box<dyn Workload>, pins: Vec<u64>) -> Self {
        let labels = w.labels();
        Self {
            kind,
            counts: vec![None; labels.len()],
            w,
            labels,
            pins,
        }
    }

    /// One pass over the rotation: each unit timed, checked against its
    /// pin and its first-seen counts, then followed by a host probe.
    fn pass(&mut self, tr: &Tracer, rot: &mut Rotation, probe: &mut Probe, tally: &mut Tally) {
        for pos in 0..self.labels.len() {
            tr.set_unit(tally.attempted);
            let start = clock();
            let out = tr.span(&self.labels[pos], || self.w.run(pos, tr));
            rot.record(pos, start.elapsed().as_secs_f64());
            let counts = (out.work, out.faults);
            let first = *self.counts[pos].get_or_insert(counts);
            let ok =
                self.pins.get(pos) == Some(&out.digest) && first == counts && self.w.state_ok();
            tally.attempted += 1;
            if !ok {
                tally.failed += 1;
                println!(
                    "FAILED {} unit {} ({}): digest {:016x}, pinned {}",
                    self.kind.name(),
                    pos,
                    self.labels[pos],
                    out.digest,
                    self.pins
                        .get(pos)
                        .map_or("none".to_string(), |p| format!("{p:016x}"))
                );
            }
            probe.sample();
        }
    }

    /// Work (cells, trials or rounds) and faults of one whole rotation.
    fn rotation_counts(&self) -> (u64, u64) {
        self.counts
            .iter()
            .flatten()
            .fold((0, 0), |(w, f), &(dw, df)| (w + dw, f + df))
    }
}

/// Minimum time of each set-up stage over repeated set-ups.
#[derive(Debug, Default)]
struct SetupMins(Vec<(String, f64)>);

impl SetupMins {
    /// Sets `kind` up once more, folding its stage times into the minima.
    fn setup(&mut self, kind: Kind, variant: u64) -> Box<dyn Workload> {
        let mut stages = Stages::default();
        let w = kind.setup(variant, &mut stages);
        if self.0.is_empty() {
            self.0 = stages.0;
        } else {
            for (best, (name, t)) in self.0.iter_mut().zip(stages.0) {
                assert_eq!(best.0, name, "set-up stages changed order");
                best.1 = best.1.min(t);
            }
        }
        w
    }

    /// The set-up estimate: the sum of the stage minima.
    fn total(&self) -> f64 {
        self.0.iter().map(|s| s.1).sum()
    }
}

fn print_rotation(bench: &Bench, rot: &Rotation) {
    println!(
        "{:<28} {:>6} {:>10} {:>10} {:>16}",
        "position", "n", "min_ms", "p50_ms", "tail_ms"
    );
    for (pos, label) in bench.labels.iter().enumerate() {
        let s = rot.samples(pos);
        let tail =
            tail_percentile(s).map_or("-".to_string(), |(p, v)| format!("p{p}={:.3}", v * 1e3));
        println!(
            "{label:<28} {:>6} {:>10.3} {:>10.3} {:>16}",
            s.len(),
            rot.min(pos) * 1e3,
            quantile(s, 0.5) * 1e3,
            tail
        );
    }
}

fn untraced(args: &Args, pins: &Value) -> (Tally, Metrics) {
    let variant = args.seed % VARIANTS;
    let mut setups = SetupMins::default();
    let w = setups.setup(args.workload, variant);
    let mut bench = Bench::new(args.workload, w, pins_for(pins, args.workload, variant));
    let tr = Tracer::new(false);
    let mut tally = Tally::default();
    let mut probe = Probe::new();
    // Warm-up pass: fills the scratch arenas; timed samples start after.
    bench.pass(
        &tr,
        &mut Rotation::new(bench.labels.len()),
        &mut probe,
        &mut tally,
    );
    let peak_rss = tdfm_obs::memory::peak_rss_bytes();
    let mut rot = Rotation::new(bench.labels.len());
    let mut reps = 1;
    let mut setup_s = 0.0;
    let start = clock();
    while start.elapsed().as_secs_f64() < args.seconds {
        bench.pass(&tr, &mut rot, &mut probe, &mut tally);
        if setup_s < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = clock();
            setups.setup(args.workload, variant);
            setup_s += t.elapsed().as_secs_f64();
            reps += 1;
        }
    }
    while reps < MIN_SETUP_REPS {
        setups.setup(args.workload, variant);
        reps += 1;
    }
    for (name, t) in &setups.0 {
        println!("setup {name}: {t:.6} s (min of {reps})");
    }
    print_rotation(&bench, &rot);
    let (work, faults) = bench.rotation_counts();
    let sum = rot.min_sum();
    println!(
        "rotation: {} positions, {} passes, sum of minima {:.3} ms, sum of p50 {:.3} ms",
        rot.positions(),
        rot.passes(),
        sum * 1e3,
        rot.quantile_sum(0.5) * 1e3
    );
    probe.print();
    let name = args.workload.work_name();
    println!(
        "{name}_per_s: {work} {name} per rotation / {:.6} s = {:.3}; faults per rotation {faults}",
        sum,
        work as f64 / sum,
    );
    println!(
        "setup: {:.6} s; peak RSS after warm-up {:.3} MB, at end {:.3} MB",
        setups.total(),
        peak_rss as f64 / 1e6,
        tdfm_obs::memory::peak_rss_bytes() as f64 / 1e6
    );
    let mut m = Metrics::default();
    m.push(report::END_TO_END[0], work as f64 / sum, "1/s");
    m.push(report::END_TO_END[1], setups.total(), "s");
    m.push(report::END_TO_END[2], peak_rss as f64 / 1e6, "MB");
    (tally, m)
}

/// Per-position minima of alternating passes in two settings, `a` and
/// `b`, within `budget` seconds (at least `min_passes` each). Returns
/// (Σmin a, Σmin b).
#[allow(clippy::too_many_arguments)]
fn alternate(
    bench: &mut Bench,
    tr: &Tracer,
    budget: f64,
    min_passes: usize,
    probe: &mut Probe,
    tally: &mut Tally,
    set_a: &dyn Fn(),
    set_b: &dyn Fn(),
) -> (f64, f64) {
    let p = bench.labels.len();
    let (mut ra, mut rb) = (Rotation::new(p), Rotation::new(p));
    let start = clock();
    while ra.passes() < min_passes || start.elapsed().as_secs_f64() < budget {
        set_a();
        bench.pass(tr, &mut ra, probe, tally);
        set_b();
        bench.pass(tr, &mut rb, probe, tally);
    }
    set_a();
    (ra.min_sum(), rb.min_sum())
}

fn traced(args: &Args, pins: &Value) -> (Tally, Metrics) {
    let variant = args.seed % VARIANTS;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut probe = Probe::new();
    let tr = Tracer::new(false);
    // Half the measured time goes to the traced/untraced comparison, a
    // quarter to thread scaling; the layer timings take about the rest.
    let (overhead_budget, scaling_budget) = (args.seconds / 6.0, args.seconds / 4.0);

    let mut benches: Vec<Bench> = Kind::ALL
        .iter()
        .map(|&kind| {
            let mut setups = SetupMins::default();
            for _ in 1..TRACED_SETUP_REPS {
                setups.setup(kind, variant);
            }
            let w = setups.setup(kind, variant);
            if kind != Kind::Sharded {
                let dataset = if kind == Kind::Grid {
                    "gtsrb"
                } else {
                    "cifar10"
                };
                m.push(
                    format!("data.generate_ms.{dataset}"),
                    setups.0[0].1 * 1e3,
                    "ms",
                );
            }
            let mut b = Bench::new(kind, w, pins_for(pins, kind, variant));
            b.pass(
                &tr,
                &mut Rotation::new(b.labels.len()),
                &mut probe,
                &mut tally,
            );
            b
        })
        .collect();

    // Traced and untraced passes alternate, so both see the same host.
    for b in &mut benches {
        let (plain, traced) = alternate(
            b,
            &tr,
            overhead_budget,
            3,
            &mut probe,
            &mut tally,
            &|| tr.set_enabled(false),
            &|| tr.set_enabled(true),
        );
        m.push(
            format!("obs.trace_overhead.{}", b.kind.name()),
            traced / plain,
            "ratio",
        );
    }
    let selected = benches
        .iter_mut()
        .find(|b| b.kind == args.workload)
        .expect("every workload is set up");
    let (t1, t2) = alternate(
        selected,
        &tr,
        scaling_budget,
        3,
        &mut probe,
        &mut tally,
        &|| parallel::set_num_threads(1),
        &|| parallel::set_num_threads(2),
    );
    m.push("tensor.parallel_speedup_t2", t1 / t2, "ratio");

    let mut stages = Stages::default();
    let mut grid = Grid::setup(variant, &mut stages);
    let mut campaign = workloads::Campaign::setup(variant, &mut stages);
    let sharded = workloads::Sharded::setup(variant, &mut stages);

    // The ensemble spawns one thread per member whatever the thread
    // budget says, so it is timed here and kept out of the rotation.
    let ens = TechniqueKind::Ensemble;
    let ens_label = workloads::grid_label(ens, ModelKind::ConvNet);
    let ctx = workloads::grid_context(1);
    tr.set_enabled(true);
    for _ in 0..3 {
        tr.span(&ens_label, || {
            tr.span("core.fit", || {
                ens.build().fit(ModelKind::ConvNet, &grid.train, &ctx)
            })
        });
    }
    tr.set_enabled(false);

    // Metrics read from the spans of the traced passes.
    let mut missing = Vec::new();
    let mut from_span = |metric: String, name: &str, parent: &str| {
        let min = tr.min_seconds_by_parent(name).get(parent).copied();
        match min {
            Some(s) => m.push(metric, s * 1e3, "ms"),
            None => missing.push(metric),
        }
    };
    for (tech, model) in workloads::GRID
        .into_iter()
        .chain([(ens, ModelKind::ConvNet)])
    {
        if model == ModelKind::ConvNet {
            let label = workloads::grid_label(tech, model);
            let metric = format!("core.fit_ms.{}", tech.abbrev());
            from_span(metric, "core.fit", &label);
        }
    }
    for (name, _) in workloads::AGGREGATORS {
        let metric = format!("core.sharded_fit_ms.{name}");
        from_span(metric, "core.fit_sharded", name);
    }
    // Injection is timed per rotation, like the end-to-end metrics: the
    // sum over the positions that inject of each one's minimum, with the
    // labels or bits those positions flip as its base.
    for (kind, span, time, base) in [
        (
            Kind::Grid,
            "inject.apply",
            "inject.apply_us",
            "inject.labels_flipped",
        ),
        (
            Kind::Campaign,
            "inject.weight_flip",
            "inject.weight_flip_us",
            "inject.bits_flipped",
        ),
    ] {
        let mins = tr.min_seconds_by_parent(span);
        let bench = benches.iter().find(|b| b.kind == kind);
        let bench = bench.expect("every workload is set up");
        let flipped: u64 = bench
            .labels
            .iter()
            .zip(&bench.counts)
            .filter(|(label, _)| mins.contains_key(*label))
            .filter_map(|(_, counts)| counts.map(|c| c.1))
            .sum();
        if mins.is_empty() {
            missing.push(time.to_string());
        } else {
            m.push(time, mins.values().sum::<f64>() * 1e6, "us");
            m.push(base, flipped as f64, "count");
        }
    }

    let mut ok = layers::tensor(&mut m);
    layers::train_steps(&mut m, &grid);
    layers::predict(&mut m, &mut campaign);
    layers::allocs(&mut m, &grid, &sharded);
    layers::aggregate(&mut m, &sharded);
    layers::scratch_reuse(&mut m, &mut grid);
    ok &= layers::runner(&mut m, args.seed);
    let steps =
        (workloads::GRID_TRAIN.div_ceil(ctx.fit.batch_size) * workloads::GRID_EPOCHS) as f64;
    m.push("nn.steps_per_fit", steps, "count");
    if let (Some(step), Some(fit)) = (m.get("nn.train_step_us.ConvNet"), m.get("core.fit_ms.Base"))
    {
        m.push("nn.step_coverage", steps * step * 1e-3 / fit, "ratio");
    }

    probe.print();
    m.push("host.calib_us", probe.min() * 1e6, "us");
    m.push("host.contention", probe.contention(), "ratio");
    m.push("host.calib_samples", probe.samples.len() as f64, "count");

    print_self_times(&tr);
    write_trace(&tr, args);

    // Report exactly the documented metrics, in the documented order.
    let order = per_layer_names();
    let mut names: Vec<&String> = m.0.iter().map(|x| &x.name).collect();
    names.sort();
    let mut want: Vec<&String> = order.iter().collect();
    want.sort();
    if names != want || !missing.is_empty() {
        println!("per-layer metric set mismatch; no spans for {missing:?}");
        ok = false;
    }
    m.0.sort_by_key(|x| order.iter().position(|n| *n == x.name));
    // The per-layer checks (GEMM against the reference loop, the runner's
    // results, the metric set) count as one more unit.
    tally.attempted += 1;
    tally.failed += u64::from(!ok);
    (tally, m)
}

fn print_self_times(tr: &Tracer) {
    let mut rows: Vec<_> = tr.self_times().into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    println!(
        "{:<32} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in rows {
        println!(
            "{name:<32} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        );
    }
}

/// Writes the spans under `.bench_out/` in the working directory.
fn write_trace(tr: &Tracer, args: &Args) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let text = tdfm_json::to_string(&tr.to_json());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// Runs every unit of every variant once and returns the digests:
/// workload -> variant -> position.
fn all_digests() -> Vec<(Kind, Vec<Vec<u64>>)> {
    let tr = Tracer::new(false);
    Kind::ALL
        .iter()
        .map(|&kind| {
            let rows = (0..VARIANTS)
                .map(|v| {
                    let mut w = kind.setup(v, &mut Stages::default());
                    (0..w.labels().len())
                        .map(|pos| w.run(pos, &tr).digest)
                        .collect()
                })
                .collect();
            (kind, rows)
        })
        .collect()
}

fn pins_document(digests: &[(Kind, Vec<Vec<u64>>)]) -> Value {
    Value::Object(
        digests
            .iter()
            .map(|(kind, rows)| {
                let rows = rows
                    .iter()
                    .map(|r| {
                        Value::Array(r.iter().map(|d| Value::Str(format!("{d:016x}"))).collect())
                    })
                    .collect();
                (kind.name().to_string(), Value::Array(rows))
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(mode) => mode,
        Err(e) => {
            println!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let pins = match tdfm_json::parse(PINS) {
        Ok(p) => p,
        Err(e) => {
            println!("error: pins.json: {e}");
            return ExitCode::from(2);
        }
    };
    // Gated runs are single-threaded; the traced run measures two threads
    // separately.
    parallel::set_num_threads(1);
    match mode {
        Mode::Pin(path) => {
            let doc = pins_document(&all_digests());
            match std::fs::write(&path, tdfm_json::to_string_pretty(&doc) + "\n") {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    println!("error: {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Run(args) => {
            println!(
                "workload {} seed {} variant {} simd {} threads 1",
                args.workload.name(),
                args.seed,
                args.seed % VARIANTS,
                tdfm_tensor::simd::simd_name()
            );
            let (tally, metrics) = if args.trace {
                traced(&args, &pins)
            } else {
                untraced(&args, &pins)
            };
            let well_formed = metrics
                .0
                .iter()
                .all(|x| x.value.is_finite() && report::valid_name(&x.name));
            let correct = tally.failed == 0 && well_formed;
            let doc = document(correct, tally.attempted, tally.failed, &metrics);
            println!("{}", tdfm_json::to_string(&doc));
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_tensor::simd;

    #[test]
    fn every_unit_matches_its_pin_at_every_simd_level() {
        let pins = tdfm_json::parse(PINS).expect("pins.json parses");
        for level in simd::available_levels() {
            simd::force_simd(Some(level));
            let got = pins_document(&all_digests());
            simd::force_simd(None);
            assert!(
                got == pins,
                "SIMD level {}: digests differ from pins.json:\n{}",
                level.name(),
                tdfm_json::to_string_pretty(&got)
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = args("--workload sharded-cifar --seed 7 --seconds 10 --trace 1");
        assert!(matches!(
            ok,
            Ok(Mode::Run(Args {
                seed: 7,
                trace: true,
                ..
            }))
        ));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload grid-gtsrb --seed -1 --seconds 1 --trace 0",
            "--workload grid-gtsrb --seed 1 --seconds 0 --trace 0",
            "--workload grid-gtsrb --seed 1 --seconds 1 --trace 2",
            "--workload grid-gtsrb --seed 1 --seconds 1",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
