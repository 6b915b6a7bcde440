//! End-to-end tests of the observability stack: JSONL traces that round-trip
//! through `tdfm-json`, exact metrics under thread contention, `TDFM_LOG`
//! filtering semantics, and the cost of instrumented-but-disabled code.
//!
//! The sink is process-global, so every test that reconfigures it holds
//! [`SINK_LOCK`] for its whole body.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tdfm_obs::{configure, event, span, Level, ObsConfig, OpTimer};

/// Serialises the tests that reconfigure the global sink.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Resets the sink to "everything off" so later tests (and the rest of the
/// process) see the quiet default.
#[expect(
    clippy::unwrap_used,
    reason = "a test helper: a failed reset should fail the calling test"
)]
fn quiet() {
    configure(ObsConfig::default()).unwrap();
}

#[test]
fn trace_round_trips_through_tdfm_json() {
    let _guard = lock();
    let dir = std::env::temp_dir().join("tdfm-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("roundtrip.jsonl");
    configure(ObsConfig {
        trace_path: Some(trace_path.clone()),
        ..ObsConfig::default()
    })
    .unwrap();

    {
        let _span = span!("fit", epochs = 3usize, lr = 0.1f32);
        event!(Level::Info, "epoch", epoch = 0usize, loss = 1.25f32);
        event!(
            Level::Error,
            "loss_nonfinite",
            loss = f32::NAN,
            batch = 7usize,
            negative = -3i64,
        );
        event!(Level::Trace, "batch", note = "unicode: µ→✓");
    }
    tdfm_obs::flush();
    quiet();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    // span_open + 3 events + span_close.
    assert_eq!(lines.len(), 5, "{text}");
    for line in &lines {
        let record = tdfm_json::parse(line).expect("every trace line is valid JSON");
        for key in ["ts_ms", "level", "span", "event", "fields"] {
            assert!(record.get(key).is_some(), "missing {key} in {line}");
        }
    }
    let epoch = tdfm_json::parse(lines[1]).unwrap();
    assert_eq!(
        epoch.get("event").and_then(tdfm_json::Value::as_str),
        Some("epoch")
    );
    // Events inside the span carry its path.
    assert_eq!(
        epoch.get("span").and_then(tdfm_json::Value::as_str),
        Some("fit")
    );
    let loss = epoch.get("fields").and_then(|f| f.get("loss")).unwrap();
    assert!((loss.as_f64().unwrap() - 1.25).abs() < 1e-9);

    // The whole file is what `tdfm report` accepts as a trace.
    let report = tdfm_obs::render_report(&[&trace_path]).unwrap();
    assert!(report.contains("5 records"), "{report}");
    assert!(report.contains("ERROR: loss_nonfinite"), "{report}");
}

#[test]
fn registry_totals_are_exact_under_contention() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 10_000;
    let registry = tdfm_obs::Registry::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                let counter = registry.counter("hits");
                let histogram = registry.histogram("lat");
                for i in 0..PER_THREAD {
                    counter.inc();
                    histogram.record(Duration::from_nanos((t * PER_THREAD + i) as u64 + 1));
                }
            });
        }
    });
    let snap = registry.snapshot();
    assert_eq!(snap.counter("hits"), Some((THREADS * PER_THREAD) as u64));
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "lat")
        .expect("histogram registered");
    assert_eq!(hist.count, (THREADS * PER_THREAD) as u64);
}

#[test]
fn tdfm_log_filter_suppresses_lower_levels_without_evaluating_fields() {
    let _guard = lock();
    configure(ObsConfig {
        stderr_level: Some(Level::Info),
        capture: true,
        ..ObsConfig::default()
    })
    .unwrap();

    let evaluations = AtomicUsize::new(0);
    let observe = |x: usize| {
        evaluations.fetch_add(1, Ordering::SeqCst);
        x
    };
    event!(Level::Info, "kept", value = observe(1));
    event!(Level::Debug, "dropped", value = observe(2));
    event!(Level::Trace, "dropped_too", value = observe(3));
    let lines = tdfm_obs::take_captured();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("kept"), "{lines:?}");
    assert!(!lines[0].contains("dropped"), "{lines:?}");
    // The filtered events never evaluated their field expressions.
    assert_eq!(evaluations.load(Ordering::SeqCst), 1);

    // With the sink fully off even Error is filtered, and spans are inert.
    quiet();
    event!(Level::Error, "silent", value = observe(4));
    let _span = span!("never", value = observe(5));
    assert_eq!(evaluations.load(Ordering::SeqCst), 1);
    assert!(tdfm_obs::take_captured().is_empty());
}

#[test]
fn concurrent_trace_writes_never_interleave() {
    // 8 threads hammer the JSONL writer; every line of the resulting file
    // must parse as one complete record (no torn or interleaved writes)
    // and every record must be accounted for.
    let _guard = lock();
    const THREADS: usize = 8;
    const PER_THREAD: usize = 250;
    let dir = std::env::temp_dir().join("tdfm-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("torture.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    configure(ObsConfig {
        trace_path: Some(trace_path.clone()),
        ..ObsConfig::default()
    })
    .unwrap();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    event!(
                        Level::Info,
                        "torture",
                        thread = t,
                        i = i,
                        pad = "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
                    );
                }
            });
        }
    });
    tdfm_obs::flush();
    quiet();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), THREADS * PER_THREAD);
    let mut seen = vec![[false; PER_THREAD]; THREADS];
    for line in &lines {
        let record =
            tdfm_json::parse(line).unwrap_or_else(|e| panic!("torn trace line ({e}): {line}"));
        assert_eq!(
            record.get("event").and_then(tdfm_json::Value::as_str),
            Some("torture"),
            "{line}"
        );
        let fields = record.get("fields").expect("fields object");
        let t = fields
            .get("thread")
            .and_then(tdfm_json::Value::as_f64)
            .unwrap() as usize;
        let i = fields.get("i").and_then(tdfm_json::Value::as_f64).unwrap() as usize;
        assert!(!seen[t][i], "duplicate record thread={t} i={i}");
        seen[t][i] = true;
    }
    assert!(seen.iter().flatten().all(|&s| s), "records went missing");
}

#[test]
fn profile_reconstructs_span_tree_from_trace() {
    // A trace with nested spans must profile back into a tree whose
    // self-time totals reconcile with the root span's wall clock.
    let _guard = lock();
    let dir = std::env::temp_dir().join("tdfm-obs-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("profile.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    configure(ObsConfig {
        trace_path: Some(trace_path.clone()),
        ..ObsConfig::default()
    })
    .unwrap();

    {
        let _run = span!("run");
        for _ in 0..2 {
            let _cell = span!("cell");
            {
                let _fit = span!("fit");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    tdfm_obs::flush();
    quiet();

    let profile = tdfm_obs::Profile::from_path(&trace_path).unwrap();
    let root_wall = profile.root_total_seconds();
    let self_total = profile.total_self_seconds();
    assert!(root_wall > 0.0);
    // Every moment of the root span is attributed to exactly one span
    // path, so self times sum back to the root wall clock (span_close
    // carries precise per-span seconds; allow float rounding only).
    assert!(
        (self_total - root_wall).abs() < 1e-6 * root_wall.max(1.0),
        "self-time sum {self_total}s does not reconcile with root wall {root_wall}s"
    );

    let table = profile.render_table(&trace_path);
    assert!(table.contains("run"), "{table}");
    assert!(table.contains("cell"), "{table}");
    let collapsed = profile.render_collapsed();
    assert!(collapsed.contains("run;cell;fit"), "{collapsed}");
    // Collapsed stacks carry self time in integer microseconds and must
    // cover the same total.
    let micros: u64 = collapsed
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(_, n)| n.parse::<u64>().unwrap())
        .sum();
    assert!(
        (micros as f64 / 1e6 - root_wall).abs() < 2e-5 * 6.0 + 1e-4,
        "collapsed micros {micros} vs root wall {root_wall}s"
    );
}

#[test]
fn disabled_instrumentation_overhead_is_negligible() {
    let _guard = lock();
    quiet();

    const CALLS: u32 = 1_000_000;
    let start = Instant::now();
    for i in 0..CALLS {
        event!(Level::Trace, "hot", i = i);
        let _t = OpTimer::start("hot_op");
    }
    let elapsed = start.elapsed();
    // ~2 relaxed atomic loads per iteration; anything near real work would
    // blow this generous bound (250 ns/call) by orders of magnitude.
    let per_call = elapsed.as_nanos() / u128::from(CALLS);
    assert!(
        per_call < 250,
        "disabled instrumentation costs {per_call} ns/call ({elapsed:?} total)"
    );
}
