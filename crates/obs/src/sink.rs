//! The global event sink: level filtering, stderr lines, JSONL traces.
//!
//! The sink is configured once from the environment on first use
//! (`TDFM_LOG` for the stderr level, `TDFM_TRACE` for the JSON-lines
//! file) or explicitly via [`configure`]. The *disabled* fast path —
//! [`enabled`] returning `false` — costs one relaxed atomic load, so
//! instrumentation can sit on hot paths; the [`crate::event!`] macro
//! additionally skips evaluating and formatting its fields entirely when
//! the level is filtered out.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};
use tdfm_json::{Number, Value};

/// Event severity, from always-important to firehose.
///
/// Filters compare levels as `u8` discriminants. The type derives no
/// `PartialOrd`: its derived `partial_cmp` would trip the workspace's
/// `partial_cmp` ban, which no `#[expect]` on the enum reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Level {
    /// The run is crashing or producing wrong data.
    Error = 1,
    /// Something degraded but the run continues.
    Warn = 2,
    /// Run-level progress (grid cells, cache summaries).
    Info = 3,
    /// Per-epoch / per-span detail.
    Debug = 4,
    /// Per-batch firehose.
    Trace = 5,
}

impl Level {
    /// Lower-case name, as written in `TDFM_LOG` and trace records.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `TDFM_LOG` value. `None` means "off"; unknown strings are
    /// also off (a misspelt filter must not turn the firehose on).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// `MAX_LEVEL` sentinel: the sink has not been initialised yet.
const UNINIT: u8 = u8::MAX;

/// Highest level any output wants (0 = everything off).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// Whether span/op timings are collected: 0 uninit, 1 off, 2 on.
static TIMING: AtomicU8 = AtomicU8::new(0);

struct SinkState {
    stderr_max: u8,
    trace_max: u8,
    trace: Option<File>,
    capture: Option<Vec<String>>,
}

static STATE: Mutex<Option<SinkState>> = Mutex::new(None);

/// Explicit sink configuration ([`configure`]); the env-var path covers
/// normal runs, this covers tests and tools.
#[derive(Debug, Default)]
pub struct ObsConfig {
    /// Most verbose level printed to stderr (`None` = nothing).
    pub stderr_level: Option<Level>,
    /// Where to write JSONL trace records (`None` = no trace file).
    pub trace_path: Option<PathBuf>,
    /// Collect stderr lines into a buffer ([`take_captured`]) instead of
    /// writing them — test support.
    pub capture: bool,
    /// Force span/op timing collection on, whatever the levels say.
    pub timing: bool,
}

/// Replaces the sink configuration (flushing any previous trace file).
///
/// # Errors
///
/// Returns the I/O error if the trace file cannot be created.
pub fn configure(cfg: ObsConfig) -> std::io::Result<()> {
    let trace = match &cfg.trace_path {
        Some(path) => {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
            Some(File::create(path)?)
        }
        None => None,
    };
    let stderr_max = cfg.stderr_level.map(|l| l as u8).unwrap_or(0);
    let trace_max = if trace.is_some() {
        Level::Trace as u8
    } else {
        0
    };
    let state = SinkState {
        stderr_max,
        trace_max,
        trace,
        capture: cfg.capture.then(Vec::new),
    };
    let timing = cfg.timing || stderr_max >= Level::Debug as u8 || trace_max > 0;
    let mut guard = STATE.lock().expect("sink state poisoned");
    *guard = Some(state);
    MAX_LEVEL.store(stderr_max.max(trace_max), Ordering::Relaxed);
    TIMING.store(if timing { 2 } else { 1 }, Ordering::Relaxed);
    Ok(())
}

/// Initialises from `TDFM_LOG` / `TDFM_TRACE` if nothing has configured
/// the sink yet, and returns the current max level.
#[expect(
    clippy::disallowed_methods,
    reason = "documented read-once config site: TDFM_LOG and TDFM_TRACE (README \"Observability\")"
)]
fn init_from_env() -> u8 {
    let mut guard = STATE.lock().expect("sink state poisoned");
    if guard.is_none() {
        let stderr_level = std::env::var("TDFM_LOG")
            .ok()
            .and_then(|v| Level::parse(&v));
        let trace_path = std::env::var("TDFM_TRACE").ok().map(PathBuf::from);
        let trace = trace_path.and_then(|path| match File::create(&path) {
            Ok(f) => Some(f),
            #[expect(
                clippy::print_stderr,
                reason = "the sink cannot route its own bootstrap failure through itself; stderr is the only channel left"
            )]
            Err(e) => {
                eprintln!("tdfm-obs: cannot create TDFM_TRACE file {path:?}: {e}");
                None
            }
        });
        let stderr_max = stderr_level.map(|l| l as u8).unwrap_or(0);
        let trace_max = if trace.is_some() {
            Level::Trace as u8
        } else {
            0
        };
        let timing = stderr_max >= Level::Debug as u8 || trace_max > 0;
        MAX_LEVEL.store(stderr_max.max(trace_max), Ordering::Relaxed);
        TIMING.store(if timing { 2 } else { 1 }, Ordering::Relaxed);
        *guard = Some(SinkState {
            stderr_max,
            trace_max,
            trace,
            capture: None,
        });
    }
    MAX_LEVEL.load(Ordering::Relaxed)
}

/// `true` when an event at `level` would reach any output.
///
/// This is the instrumentation fast path: when everything is off it is a
/// single relaxed atomic load.
#[inline]
pub fn enabled(level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    let max = if max == UNINIT { init_from_env() } else { max };
    (level as u8) <= max
}

/// `true` when span / kernel-op wall-clock timings should be collected.
///
/// One relaxed atomic load on the hot path, exactly like [`enabled`].
#[inline]
pub fn timing_enabled() -> bool {
    match TIMING.load(Ordering::Relaxed) {
        0 => {
            init_from_env();
            TIMING.load(Ordering::Relaxed) == 2
        }
        t => t == 2,
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

fn render_field(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => tdfm_json::to_string(other),
    }
}

/// Delivers one event to the configured outputs. Call through the
/// [`crate::event!`] macro, which performs the [`enabled`] check and only
/// then builds the field list.
pub fn emit(level: Level, event: &str, fields: &[(&str, Value)]) {
    let span_path = crate::span::current_path();
    let mut guard = STATE.lock().expect("sink state poisoned");
    let Some(state) = guard.as_mut() else { return };

    if (level as u8) <= state.stderr_max {
        let mut line = format!("[{:<5}] ", level.name());
        if !span_path.is_empty() {
            line.push_str(&span_path);
            line.push(' ');
        }
        line.push_str(event);
        for (key, value) in fields {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            line.push_str(&render_field(value));
        }
        match &mut state.capture {
            Some(buf) => buf.push(line),
            #[expect(
                clippy::print_stderr,
                reason = "this IS the sink's stderr back end: the TDFM_LOG-filtered human channel every event! call lands in"
            )]
            None => eprintln!("{line}"),
        }
    }

    if (level as u8) <= state.trace_max {
        if let Some(file) = &mut state.trace {
            let record = Value::Object(vec![
                ("ts_ms".to_string(), Value::Num(Number::UInt(now_ms()))),
                ("level".to_string(), Value::Str(level.name().to_string())),
                ("span".to_string(), Value::Str(span_path)),
                ("event".to_string(), Value::Str(event.to_string())),
                (
                    "fields".to_string(),
                    Value::Object(
                        fields
                            .iter()
                            .map(|(k, v)| (k.to_string(), v.clone()))
                            .collect(),
                    ),
                ),
            ]);
            let mut line = tdfm_json::to_string(&record);
            line.push('\n');
            // One write per record: a crashed run keeps every line emitted
            // before the crash (the loss_nonfinite post-mortem relies on
            // this).
            if file.write_all(line.as_bytes()).is_err() {
                state.trace = None;
                state.trace_max = 0;
            }
        }
    }
}

/// Flushes the trace file (events are written unbuffered, so this is a
/// plain `File::flush` — cheap, and the loss-nonfinite path calls it
/// before panicking for good measure).
pub fn flush() {
    let mut guard = STATE.lock().expect("sink state poisoned");
    if let Some(state) = guard.as_mut() {
        if let Some(file) = &mut state.trace {
            let _ = file.flush();
        }
    }
}

/// Drains the captured stderr lines (empty unless configured with
/// `capture: true`).
pub fn take_captured() -> Vec<String> {
    let mut guard = STATE.lock().expect("sink state poisoned");
    guard
        .as_mut()
        .and_then(|s| s.capture.as_mut())
        .map(std::mem::take)
        .unwrap_or_default()
}

/// Converts a value into a JSON field for [`crate::event!`] /
/// [`crate::span!`].
pub fn fv<T: IntoField>(value: T) -> Value {
    value.into_field()
}

/// Types usable as event field values.
pub trait IntoField {
    /// The JSON representation of the field.
    fn into_field(self) -> Value;
}

impl IntoField for Value {
    fn into_field(self) -> Value {
        self
    }
}

impl IntoField for f32 {
    fn into_field(self) -> Value {
        Value::Num(Number::F32(self))
    }
}

impl IntoField for f64 {
    fn into_field(self) -> Value {
        Value::Num(Number::F64(self))
    }
}

impl IntoField for bool {
    fn into_field(self) -> Value {
        Value::Bool(self)
    }
}

impl IntoField for &str {
    fn into_field(self) -> Value {
        Value::Str(self.to_string())
    }
}

impl IntoField for String {
    fn into_field(self) -> Value {
        Value::Str(self)
    }
}

impl IntoField for std::time::Duration {
    fn into_field(self) -> Value {
        Value::Num(Number::F64(self.as_secs_f64()))
    }
}

macro_rules! field_uint {
    ($($ty:ty),+) => {
        $(impl IntoField for $ty {
            fn into_field(self) -> Value {
                Value::Num(Number::UInt(self as u64))
            }
        })+
    };
}

field_uint!(u8, u16, u32, u64, usize);

macro_rules! field_int {
    ($($ty:ty),+) => {
        $(impl IntoField for $ty {
            fn into_field(self) -> Value {
                let v = self as i64;
                if v < 0 {
                    Value::Num(Number::Int(v))
                } else {
                    Value::Num(Number::UInt(v as u64))
                }
            }
        })+
    };
}

field_int!(i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse(" INFO "), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("bogus"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_are_ordered() {
        assert!((Level::Error as u8) < (Level::Trace as u8));
        assert!((Level::Info as u8) < (Level::Debug as u8));
    }

    #[test]
    fn field_values_serialise_like_their_types() {
        assert_eq!(tdfm_json::to_string(&fv(1.5f32)), "1.5");
        assert_eq!(tdfm_json::to_string(&fv(3usize)), "3");
        assert_eq!(tdfm_json::to_string(&fv(-2i64)), "-2");
        assert_eq!(tdfm_json::to_string(&fv("x")), "\"x\"");
        assert_eq!(tdfm_json::to_string(&fv(true)), "true");
    }
}
