//! The rule registry. Each rule is the mechanised form of a bug class a
//! previous PR fixed by hand — see `DESIGN.md` §"Static analysis" for the
//! rule ↔ historical-bug table.
//!
//! Every rule runs once per scope-selected file ([`Rule::check`]) on a
//! [`FileCtx`] carrying the lossless token stream *and* the parsed AST
//! ([`crate::parser`]). Call-shaped rules query AST nodes (method calls
//! resolve through turbofish and multi-line chains); genuinely lexical
//! rules (comparison patterns, sort comparators) still walk tokens.
//! Because macros and `static`/`const` items are opaque to the parser,
//! migrated rules rescan those regions lexically ([`opaque_sig`]) so
//! nothing that the token-window engine caught is lost. The one fact a
//! rule needs from other files, whether some workspace fn has a given
//! name (`lock-held-across-call`), is [`FileCtx::workspace_fns`].

use crate::config::Scope;
use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::parser::{ExprKind, Item, ItemKind, Span};

mod hot_path_alloc;
mod lock_held_across_call;
mod nan_laundering;
mod nondeterministic_time;
mod partial_cmp_sort;
mod sparsity_skip;
mod unordered_float_reduce;

/// One lint rule: an id, a default path scope, and a per-file check.
pub trait Rule {
    /// Stable kebab-case id used in diagnostics, suppressions and
    /// `lint.toml` sections.
    fn id(&self) -> &'static str;
    /// One-line description of the bug class, used as SARIF rule metadata.
    fn summary(&self) -> &'static str;
    /// Whether findings inside test code (test files, `#[cfg(test)]`
    /// items) count. Default: library code only.
    fn applies_in_tests(&self) -> bool {
        false
    }
    /// Built-in path scope, overridable per rule in `lint.toml`.
    fn default_scope(&self) -> Scope;
    /// Emits raw findings for one scope-selected file; the engine applies
    /// test-code and suppression filtering afterwards.
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// Every shipped rule, in diagnostic-stable order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(nan_laundering::NanLaundering),
        Box::new(sparsity_skip::SparsitySkip),
        Box::new(hot_path_alloc::HotPathAlloc),
        Box::new(nondeterministic_time::NondeterministicTime),
        Box::new(partial_cmp_sort::PartialCmpSort),
        Box::new(lock_held_across_call::LockHeldAcrossCall),
        Box::new(unordered_float_reduce::UnorderedFloatReduce),
    ]
}

/// Is `id` a rule id suppressions may name? (`bad-suppression` itself is
/// not suppressible.)
pub fn is_known_rule(id: &str) -> bool {
    all_rules().iter().any(|r| r.id() == id)
}

/// Convenience for scope construction.
fn scope(include: &[&str], exclude: &[&str]) -> Scope {
    Scope {
        include: include.iter().map(|s| s.to_string()).collect(),
        exclude: exclude.iter().map(|s| s.to_string()).collect(),
    }
}

/// Does the significant-token window starting at `sig[at]` spell out
/// `pattern` exactly?
fn matches_texts(ctx: &FileCtx<'_>, sig: &[usize], at: usize, pattern: &[&str]) -> bool {
    sig[at..].len() >= pattern.len()
        && sig[at..at + pattern.len()]
            .iter()
            .zip(pattern)
            .all(|(&i, want)| ctx.tokens[i].text == *want)
}

/// The significant token at `sig[at]`, if any.
fn tok<'a>(ctx: &'a FileCtx<'_>, sig: &[usize], at: usize) -> Option<(&'a str, TokKind)> {
    sig.get(at)
        .map(|&i| (ctx.tokens[i].text, ctx.tokens[i].kind))
}

/// Significant-token indices inside the regions the AST cannot see into:
/// opaque macro bodies and — when `include_verbatim` — `Verbatim` items
/// (statics, consts, `macro_rules!` definitions). AST-migrated rules
/// rescan exactly these indices with their old token-window matchers, so
/// `x.max(0.0)` inside an `assert!` or a `static` initialiser is still
/// caught. A rule whose pattern would misfire on imports
/// (`nondeterministic-time` — a `use std::time::Instant;` is not a read)
/// passes `include_verbatim = false`.
fn opaque_sig(ctx: &FileCtx<'_>, include_verbatim: bool) -> Vec<usize> {
    let mut spans: Vec<Span> = Vec::new();
    ctx.ast.walk_exprs(&mut |e| {
        if matches!(e.kind, ExprKind::Macro) {
            spans.push(e.span);
        }
    });
    fn verbatim_spans(item: &Item, out: &mut Vec<Span>) {
        match &item.kind {
            ItemKind::Verbatim => out.push(item.span),
            ItemKind::Nested { items } => {
                for it in items {
                    verbatim_spans(it, out);
                }
            }
            ItemKind::Fn(_) => {}
        }
    }
    if include_verbatim {
        for item in &ctx.ast.items {
            verbatim_spans(item, &mut spans);
        }
    }
    let mut out: Vec<usize> = (0..ctx.tokens.len())
        .filter(|&i| !ctx.tokens[i].is_trivia() && spans.iter().any(|s| s.contains(i)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// For a `MethodCall` node: `(open paren index, first-arg token)` when the
/// token right after the method name (no turbofish) is `(`. Mirrors the
/// old token-window arg inspection, which AST children cannot provide
/// (literal-only arguments collapse into the node's gap).
fn method_args(ctx: &FileCtx<'_>, method_tok: usize) -> Option<(usize, Option<usize>)> {
    let next = (method_tok + 1..ctx.tokens.len()).find(|&i| !ctx.tokens[i].is_trivia())?;
    if ctx.tokens[next].text != "(" {
        return None;
    }
    let first = (next + 1..ctx.tokens.len()).find(|&i| !ctx.tokens[i].is_trivia());
    let first_arg = match first {
        Some(i) if ctx.tokens[i].text != ")" => Some(i),
        _ => None,
    };
    Some((next, first_arg))
}
