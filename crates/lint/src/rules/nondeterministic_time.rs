//! `nondeterministic-time` — wall-clock reads outside the allowlisted
//! timing modules. Golden outputs are diffed byte-for-byte after
//! `normalize_timings`; a stray `Instant::now()` in model or experiment
//! logic leaks nondeterminism into results that the normaliser does not
//! know to strip (PR 1 learned this the hard way when parallel grids had
//! to reproduce serial output exactly).
//!
//! Detection is AST-based: a call whose callee path ends in
//! `Instant::now` / `SystemTime::now` (so `use std::time::Instant;`
//! imports never double-report a site), plus a lexical rescan of macro
//! arguments.
//!
//! The allowlist lives in `lint.toml` (`[rules.nondeterministic-time]
//! exclude`): the bench harness, the observability crate, the trainer's
//! epoch walls, and the experiment runner's manifest timings — every one
//! of them feeds fields that `normalize_timings` strips.

use super::{matches_texts, opaque_sig, scope, Rule};
use crate::config::Scope;
use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::parser::{ExprKind, Span};

pub struct NondeterministicTime;

const SUGGESTION: &str = "route timing through tdfm-obs (`OpTimer`/span) or tdfm-bench's harness so it lands in fields `normalize_timings` strips; if this module is a legitimate timing site, add it to `[rules.nondeterministic-time] exclude` in lint.toml";

/// If `callee` ends in `Instant::now` / `SystemTime::now`, the clock name
/// and the anchor token (the type segment, matching the old diagnostics).
fn clock_read(ctx: &FileCtx<'_>, callee: Span) -> Option<(&'static str, usize)> {
    let sig: Vec<usize> = (callee.lo..callee.hi.min(ctx.tokens.len()))
        .filter(|&i| !ctx.tokens[i].is_trivia())
        .collect();
    if sig.len() < 3 {
        return None;
    }
    let tail = &sig[sig.len() - 3..];
    let texts: Vec<&str> = tail.iter().map(|&i| ctx.tokens[i].text).collect();
    for source in ["Instant", "SystemTime"] {
        if texts == [source, "::", "now"] {
            return Some((source, tail[0]));
        }
    }
    None
}

fn message(source: &str) -> String {
    format!("`{source}::now()` outside an allowlisted timing module leaks wall-clock nondeterminism into outputs")
}

impl Rule for NondeterministicTime {
    fn id(&self) -> &'static str {
        "nondeterministic-time"
    }

    fn summary(&self) -> &'static str {
        "wall-clock read outside the allowlisted timing modules leaks nondeterminism"
    }

    fn default_scope(&self) -> Scope {
        // The committed lint.toml is the canonical allowlist; these
        // defaults keep a config-less run sane.
        scope(
            &[],
            &["crates/bench/", "crates/obs/", "crates/nn/src/trainer.rs"],
        )
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
        ctx.ast.walk_exprs(&mut |e| {
            if let ExprKind::Call { callee } = &e.kind {
                if let Some((source, anchor)) = clock_read(ctx, *callee) {
                    out.push(ctx.diag(anchor, self.id(), message(source), SUGGESTION));
                }
            }
        });
        // Clock reads buried in macro arguments.
        let osig = opaque_sig(ctx, false);
        for at in 0..osig.len() {
            for source in ["Instant", "SystemTime"] {
                if matches_texts(ctx, &osig, at, &[source, "::", "now"]) {
                    out.push(ctx.diag(osig[at], self.id(), message(source), SUGGESTION));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::lint_source;

    fn diags(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src, &Config::default())
            .into_iter()
            .filter(|d| d.rule == "nondeterministic-time")
            .collect()
    }

    #[test]
    fn flags_instant_and_systemtime_now() {
        let src = "fn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }";
        assert_eq!(diags("crates/core/src/stats.rs", src).len(), 2);
    }

    #[test]
    fn allowlisted_modules_are_quiet() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(diags("crates/bench/src/bin/overhead.rs", src).is_empty());
        assert!(diags("crates/obs/src/span.rs", src).is_empty());
        assert!(diags("crates/nn/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn imports_alone_are_not_flagged() {
        // Flagging `use std::time::Instant;` would double-report each site.
        assert!(diags("crates/core/src/stats.rs", "use std::time::Instant;").is_empty());
    }

    #[test]
    fn clock_reads_inside_macros_are_flagged() {
        let src = "fn f() { log!(\"{:?}\", Instant::now()); }";
        assert_eq!(diags("crates/core/src/stats.rs", src).len(), 1);
    }
}
