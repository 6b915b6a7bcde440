#![forbid(unsafe_code)]
//! # tdfm-lint
//!
//! A zero-dependency static analyzer for the kernel/determinism
//! invariants clippy cannot express. Each rule pins a bug class that
//! shipped, or catches a fixture clippy misses:
//!
//! | rule id | bug class it pins down |
//! |---|---|
//! | `nan-laundering` | `f32::max(NaN, 0.0) == 0.0` hiding poisoned activations (PR 3's ReLU/max-pool fix) |
//! | `sparsity-skip` | the `a == 0.0` GEMM skip that turned `0 * NaN` into `0` (PR 3) |
//! | `hot-path-alloc` | heap allocation in the packed kernel files (PR 3's `Scratch` arena; `zero_alloc.rs` counts the rest at runtime) |
//! | `nondeterministic-time` | wall-clock reads leaking into golden outputs (PR 1's `normalize_timings`) |
//! | `partial-cmp-sort` | NaN-incoherent sort comparators (PR 6's suspect-ranking fix) |
//! | `lock-held-across-call` | workspace calls made under a held mutex guard |
//! | `unordered-float-reduce` | non-associative float sums in hash order |
//! | `bad-suppression` | malformed, reasonless or stale `// tdfm-lint: allow(...)` comments (not suppressible) |
//!
//! Generic hygiene is clippy's: `unwrap_used`, `disallowed_methods`
//! (`std::env::var`/`var_os`, `std::thread::spawn`), `print_stderr`,
//! `iter_over_hash_type`, `undocumented_unsafe_blocks` and
//! `missing_safety_doc`, configured in the root `Cargo.toml`
//! (`[workspace.lints.clippy]`) and `clippy.toml`.
//!
//! ## Architecture
//!
//! Three layers, all zero-dependency:
//!
//! 1. **Lexer** ([`lexer`]) — lossless tokens with byte offsets and
//!    1-based (line, character-column) positions; comments and string
//!    literals can never trigger (or hide) a diagnostic.
//! 2. **Parser** ([`parser`]) — a recursive-descent pass over the token
//!    stream producing a lightweight lossless AST (fn items with bodies,
//!    statements, calls/method calls, loops, closures; macros stay
//!    opaque). Every node's span re-concatenates byte-identically to the
//!    input — property-tested over the whole workspace in
//!    `tests/parser_roundtrip.rs`.
//! 3. **Semantics** — name-based [`dataflow`] helpers ("is this binding
//!    hash-typed?") and the name of every workspace fn
//!    ([`engine::FileCtx::workspace_fns`]). Every rule runs per file, as
//!    an AST visitor or a token matcher.
//!
//! Path scoping comes from each rule's default, overridden where the
//! committed `lint.toml` ([`config`]) says so;
//! one-off sites use inline suppressions with a mandatory reason, and a
//! suppression that silences nothing is reported:
//!
//! ```text
//! let m = row.fold(f32::NEG_INFINITY, |m, &x| m.max(x)); // tdfm-lint: allow(nan-laundering, max-shift only; NaN still propagates through exp below)
//! ```
//!
//! Run it as `tdfm lint [--json] [--sarif <path>]`; it exits non-zero on
//! any finding.

pub mod config;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;

pub use config::{Config, Scope};
pub use diag::{report_json, report_text, Diagnostic};
pub use engine::{lint_files, lint_source, lint_workspace, LintReport};
pub use sarif::report_sarif;

use std::path::Path;

/// Lints the workspace at `root`, loading `lint.toml` from the root if
/// present (a missing file means built-in default scopes). This is the
/// entry point `tdfm lint` calls.
pub fn run(root: &Path, config_path: Option<&Path>) -> Result<LintReport, String> {
    let default_path = root.join("lint.toml");
    let config = match config_path {
        Some(p) => read_config(p)?,
        None if default_path.is_file() => read_config(&default_path)?,
        None => Config::default(),
    };
    lint_workspace(root, &config)
}

/// Reads and parses a lint config; errors name the file read.
fn read_config(path: &Path) -> Result<Config, String> {
    let name = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {name}: {e}"))?;
    Config::parse(&name, &text)
}
