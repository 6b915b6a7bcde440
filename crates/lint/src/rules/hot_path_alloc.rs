//! `hot-path-alloc` — heap allocation in the packed GEMM/conv/pool
//! kernels. PR 3 threaded a `Scratch` arena through every kernel so a
//! steady-state training step allocates nothing. The dynamic proof is the
//! counting allocator in `crates/nn/tests/zero_alloc.rs`, which trains and
//! evaluates all seven models at every SIMD level; it also sees helpers
//! outside these files, wherever the models reach them. This rule is the
//! static complement for the kernel files themselves: it flags the
//! allocation at review time, including on kernel paths no model runs.
//!
//! Its default scope is the four kernel files (`ops/gemm.rs`, `conv.rs`,
//! `pool.rs`, `matmul.rs`) and nothing else. `Vec::` constructors,
//! `vec![...]` and `Box::new` are matched lexically (paths and macros);
//! `.to_vec()` / `.collect()` / `.clone()` as AST method calls, which also
//! resolves turbofish forms (`.collect::<Vec<f32>>()`).

use super::{matches_texts, method_args, opaque_sig, scope, Rule};
use crate::config::Scope;
use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::parser::ExprKind;

pub struct HotPathAlloc;

const SUGGESTION: &str = "take a `Scratch` arena buffer (`scratch.take_f32(len)`) or a caller-provided slice instead; see crates/tensor/src/scratch.rs. If the allocation is provably cold, add `// tdfm-lint: allow(hot-path-alloc, <reason>)`";

/// Method-call allocation form starting at `sig[at]`, by the lexical
/// patterns of the token-window engine (for regions the AST cannot see).
fn lexical_method_alloc(ctx: &FileCtx<'_>, sig: &[usize], at: usize) -> Option<&'static str> {
    [
        (&[".", "to_vec", "("][..], "`.to_vec()`"),
        (&[".", "collect", "("], "`.collect()`"),
        (&[".", "clone", "(", ")"], "`.clone()`"),
    ]
    .into_iter()
    .find(|(pattern, _)| matches_texts(ctx, sig, at, pattern))
    .map(|(_, what)| what)
}

impl Rule for HotPathAlloc {
    fn id(&self) -> &'static str {
        "hot-path-alloc"
    }

    fn summary(&self) -> &'static str {
        "heap allocation inside a zero-allocation kernel hot path"
    }

    fn default_scope(&self) -> Scope {
        scope(
            &[
                "crates/tensor/src/ops/gemm.rs",
                "crates/tensor/src/ops/conv.rs",
                "crates/tensor/src/ops/pool.rs",
                "crates/tensor/src/ops/matmul.rs",
            ],
            &[],
        )
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
        let mut flag = |idx: usize, what: &str| {
            out.push(ctx.diag(
                idx,
                self.id(),
                format!("{what} allocates inside a zero-allocation kernel hot path"),
                SUGGESTION,
            ));
        };
        // Path and macro forms are lexical by nature.
        let sig = ctx.significant();
        for at in 0..sig.len() {
            if matches_texts(ctx, &sig, at, &["Vec", "::"]) {
                flag(sig[at], "`Vec::` constructor");
            } else if matches_texts(ctx, &sig, at, &["vec", "!"]) {
                flag(sig[at], "`vec![...]`");
            } else if matches_texts(ctx, &sig, at, &["Box", "::", "new"]) {
                flag(sig[at], "`Box::new`");
            }
        }
        // Method forms resolve through the AST (turbofish included).
        ctx.ast.walk_exprs(&mut |e| {
            if let ExprKind::MethodCall {
                method,
                method_tok,
                dot_tok,
            } = &e.kind
            {
                match method.as_str() {
                    "to_vec" => flag(*dot_tok, "`.to_vec()`"),
                    "collect" => flag(*dot_tok, "`.collect()`"),
                    "clone" => {
                        // Only the argument-less tensor-clone pattern;
                        // `clone_from(&x)` and custom `clone(arg)` differ.
                        if let Some((_, None)) = method_args(ctx, *method_tok) {
                            flag(*dot_tok, "`.clone()`");
                        }
                    }
                    _ => {}
                }
            }
        });
        // Method forms inside opaque regions (macro args) keep the old
        // lexical matching.
        let osig = opaque_sig(ctx, true);
        for at in 0..osig.len() {
            if let Some(what) = lexical_method_alloc(ctx, &osig, at) {
                flag(osig[at], what);
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
        lint_source("crates/tensor/src/ops/gemm.rs", src, &Config::default())
            .into_iter()
            .filter(|d| d.rule == "hot-path-alloc")
            .collect()
    }

    #[test]
    fn flags_every_allocation_form() {
        let src = r#"
fn kernel() {
    let a = Vec::with_capacity(8);
    let b = vec![0.0; 64];
    let c = xs.to_vec();
    let d: Vec<f32> = it.collect();
    let e = Box::new(0.0);
    let f = tensor.clone();
}
"#;
        let d = diags(src);
        let lines: Vec<u32> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![3, 4, 5, 6, 7, 8], "{d:?}");
    }

    #[test]
    fn turbofish_collect_is_still_a_collect() {
        let d = diags("fn k(it: I) { let v = it.collect::<Vec<f32>>(); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn clone_with_arguments_is_not_the_tensor_clone_pattern() {
        // `.clone_from(&x)` or a custom `clone(arg)` is not `.clone()`.
        assert!(diags("fn k() { a.clone_from(&b); }").is_empty());
    }

    #[test]
    fn method_allocation_inside_a_macro_is_still_seen() {
        let d = diags("fn k() { debug_assert!(xs.to_vec().len() > 0); }");
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn tests_in_kernel_files_may_allocate() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let v = vec![0.0; 4]; } }";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn other_ops_files_are_out_of_scope_by_default() {
        let all = lint_source(
            "crates/tensor/src/ops/reduce.rs",
            "fn k() { let v = vec![0.0; 4]; }",
            &Config::default(),
        );
        assert!(all.iter().all(|d| d.rule != "hot-path-alloc"));
    }
}
