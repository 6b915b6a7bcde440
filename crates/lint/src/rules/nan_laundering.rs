//! `nan-laundering` — float `.max(` / `.min(` calls silently replace NaN
//! with the other operand (`f32::max(NaN, 0.0) == 0.0`), so a poisoned
//! activation exits a kernel looking healthy. PR 3 had to hunt this by
//! hand in ReLU and max-pool; the study's methodology (faults must reach
//! the reliability metrics) breaks every time one of these slips in.
//!
//! Heuristics, in order:
//! * `f32::max` / `f64::min` path mentions are always float — flagged
//!   (lexically: a fn-pointer mention launders just as well as a call).
//! * `.max(` / `.min(` method calls come from the AST (so a call split
//!   across lines or buried in a fold closure still resolves) and are
//!   flagged only when the call's source line mentions a float literal or
//!   a float type (`0.0`, `1e-3`, `f32`), so integer tile arithmetic
//!   (`NR.min(n - j0)`) stays quiet. Calls inside macro arguments are
//!   re-scanned lexically ([`super::opaque_sig`]).
//! * A line that also calls `is_nan` is exempt: the author has visibly
//!   routed NaN around the call (the shipped ReLU pattern).
//! * **Null encoding**: an `is_finite` branch whose non-finite arm emits
//!   the string literal `"null"` (within the next ~40 significant tokens)
//!   serialises NaN/±Inf as JSON null — the checkpoint-side twin of the
//!   kernel bug. A model-fault run whose loss went NaN must not produce a
//!   results file that merely looks sparse; each such site needs an
//!   explicit allow with its compatibility rationale.
//!
//! Scope: the numeric kernels (`crates/tensor/src/ops/`) and the layers
//! and losses (`crates/nn/src/layers/`, `crates/nn/src/loss/`), the only
//! code where a laundered NaN does real damage, plus `crates/json/src/`
//! for the null-encoding variant: serialising non-finite floats as JSON
//! null hides a poisoned run in its own results file.

use super::{matches_texts, opaque_sig, scope, Rule};
use crate::config::Scope;
use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::TokKind;
use crate::parser::ExprKind;

pub struct NanLaundering;

const MESSAGE: &str =
    "float min/max launders NaN (f32::max(NaN, 0.0) == 0.0), masking fault propagation";
const SUGGESTION: &str = "guard with is_nan() so NaN propagates (see ReLU in layers/activation.rs), or add `// tdfm-lint: allow(nan-laundering, <reason>)`";

const NULL_MESSAGE: &str =
    "non-finite float encoded as JSON null: a NaN metric leaves the writer looking healthy";
const NULL_SUGGESTION: &str = "propagate the non-finite value to the caller, or document the encoding with `// tdfm-lint: allow(nan-laundering, <reason>)`";

/// How far past `is_finite` the `"null"` literal may sit and still count
/// as the same encode branch. Wide enough to span the finite arm of the
/// historical `write_float` shape; narrow enough not to bridge functions.
const NULL_WINDOW: usize = 40;

impl Rule for NanLaundering {
    fn id(&self) -> &'static str {
        "nan-laundering"
    }

    fn summary(&self) -> &'static str {
        "float min/max or JSON-null encoding silently absorbs NaN, hiding fault propagation"
    }

    fn default_scope(&self) -> Scope {
        scope(
            &[
                "crates/tensor/src/ops/",
                "crates/nn/src/layers/",
                "crates/nn/src/loss/",
                "crates/json/src/",
            ],
            &[],
        )
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
        // Path forms and the null-encoding window are lexical by nature.
        let sig = ctx.significant();
        for at in 0..sig.len() {
            let path_form = ["f32", "f64"].iter().any(|ty| {
                matches_texts(ctx, &sig, at, &[ty, "::", "max"])
                    || matches_texts(ctx, &sig, at, &[ty, "::", "min"])
            });
            if path_form && !ctx.line_has_nan_guard(sig[at]) {
                out.push(ctx.diag(sig[at], self.id(), MESSAGE, SUGGESTION));
            }
            if matches_texts(ctx, &sig, at, &["is_finite"])
                && sig[at + 1..].iter().take(NULL_WINDOW).any(|&i| {
                    ctx.tokens[i].kind == TokKind::Str && ctx.tokens[i].text == "\"null\""
                })
            {
                out.push(ctx.diag(sig[at], self.id(), NULL_MESSAGE, NULL_SUGGESTION));
            }
        }
        // Method calls resolve through the AST.
        ctx.ast.walk_exprs(&mut |e| {
            if let ExprKind::MethodCall {
                method, dot_tok, ..
            } = &e.kind
            {
                if matches!(method.as_str(), "max" | "min")
                    && ctx.line_has_float_marker(*dot_tok)
                    && !ctx.line_has_nan_guard(*dot_tok)
                {
                    out.push(ctx.diag(*dot_tok, self.id(), MESSAGE, SUGGESTION));
                }
            }
        });
        // Method forms inside opaque regions keep the token-window match.
        let osig = opaque_sig(ctx, true);
        for at in 0..osig.len() {
            if (matches_texts(ctx, &osig, at, &[".", "max", "("])
                || matches_texts(ctx, &osig, at, &[".", "min", "("]))
                && ctx.line_has_float_marker(osig[at])
                && !ctx.line_has_nan_guard(osig[at])
            {
                out.push(ctx.diag(osig[at], self.id(), MESSAGE, SUGGESTION));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::lint_source;

    fn diags(src: &str) -> Vec<Diagnostic> {
        lint_source("crates/tensor/src/ops/fake.rs", src, &Config::default())
            .into_iter()
            .filter(|d| d.rule == "nan-laundering")
            .collect()
    }

    #[test]
    fn flags_float_max_by_literal_and_by_type() {
        assert_eq!(diags("fn f(x: f32) -> f32 { x.max(0.0) }").len(), 1);
        assert_eq!(
            diags("fn f() { let m = row.fold(f32::NEG_INFINITY, |m, x| m.max(x)); }").len(),
            1
        );
        assert_eq!(diags("fn f(x: f32) -> f32 { f32::max(x, 0.0) }").len(), 1);
    }

    #[test]
    fn multi_line_method_chains_are_resolved() {
        // The old token matcher needed `.max(` on one line; the AST sees
        // the chain however it wraps. The float marker is on the dot line.
        let src = "fn f(x: f32) -> f32 {\n    x\n        .max(0.0f32)\n}";
        assert_eq!(diags(src).len(), 1, "{:?}", diags(src));
    }

    #[test]
    fn max_inside_a_macro_argument_is_still_seen() {
        let d = diags("fn f(x: f32) { assert!(x.max(0.0) >= 0.0); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn integer_min_max_is_quiet() {
        assert!(diags("fn f(n: usize) { let jw = NR.min(n - j0); }").is_empty());
        assert!(diags("fn f(n: usize) { let d = batches.max(1); }").is_empty());
    }

    #[test]
    fn is_nan_guard_on_the_line_exempts() {
        assert!(
            diags("fn f(x: f32) -> f32 { if x.is_nan() { x } else { x.max(0.0) } }").is_empty()
        );
    }

    #[test]
    fn null_encoding_after_is_finite_is_flagged() {
        let src = r#"
fn write_float(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}
"#;
        let d = diags(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("JSON null"), "{:?}", d[0].message);
    }

    #[test]
    fn is_finite_without_nearby_null_is_quiet() {
        assert!(diags("fn f(x: f32) -> bool { x.is_finite() }").is_empty());
    }

    #[test]
    fn null_beyond_the_window_is_quiet() {
        let filler = "let q = q + 1;\n".repeat(15);
        let src = format!(
            "fn f(v: f64, out: &mut String) {{\n    let ok = v.is_finite();\n    {filler}\n    out.push_str(\"null\");\n}}"
        );
        assert!(diags(&src).is_empty());
    }

    #[test]
    fn comments_and_strings_never_trigger() {
        assert!(diags("// f32::max(NaN, 0.0) returns 0.0\nfn f() {}").is_empty());
        assert!(diags("fn f() -> &'static str { \"x.max(0.0) f32\" }").is_empty());
    }

    #[test]
    fn out_of_scope_paths_are_quiet() {
        let all = lint_source(
            "crates/core/src/stats.rs",
            "fn f(x: f32) -> f32 { x.max(0.0) }",
            &Config::default(),
        );
        assert!(all.iter().all(|d| d.rule != "nan-laundering"));
    }
}
