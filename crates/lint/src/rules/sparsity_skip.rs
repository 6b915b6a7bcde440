//! `sparsity-skip` — `== 0.0` / `!= 0.0` guards in numeric kernels. The
//! seed GEMM skipped multiplications when `a == 0.0`, which turned
//! `0 * NaN` (IEEE: NaN) into an untouched `0` and silently erased
//! injected faults; PR 3 removed the skip and pinned tests on it. This
//! rule keeps the whole class out of the numeric kernels: its scope is
//! `crates/tensor/src/ops/`.

use super::{scope, tok, Rule};
use crate::config::Scope;
use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::TokKind;

pub struct SparsitySkip;

const MESSAGE: &str = "floating-point zero guard in a kernel — skipping work when a value == 0.0 erases NaN/Inf propagation (0 * NaN must stay NaN)";
const SUGGESTION: &str = "compute unconditionally (the zero-skip 'optimisation' is what masked injected faults before PR 3); if the comparison is not a skip guard, add `// tdfm-lint: allow(sparsity-skip, <reason>)`";

impl Rule for SparsitySkip {
    fn id(&self) -> &'static str {
        "sparsity-skip"
    }

    fn summary(&self) -> &'static str {
        "floating-point zero guard in a kernel erases NaN/Inf propagation (0 * NaN must stay NaN)"
    }

    fn default_scope(&self) -> Scope {
        scope(&["crates/tensor/src/ops/"], &[])
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
        let sig = ctx.significant();
        for at in 0..sig.len() {
            let Some((op, TokKind::Punct)) = tok(ctx, &sig, at) else {
                continue;
            };
            if op != "==" && op != "!=" {
                continue;
            }
            // `x == 0.0`, `x == -0.0`, and the reversed `0.0 == x`.
            let rhs_zero = match tok(ctx, &sig, at + 1) {
                Some(("-", _)) => sig
                    .get(at + 2)
                    .is_some_and(|&i| ctx.tokens[i].is_float_zero()),
                _ => sig
                    .get(at + 1)
                    .is_some_and(|&i| ctx.tokens[i].is_float_zero()),
            };
            let lhs_zero = at > 0 && ctx.tokens[sig[at - 1]].is_float_zero();
            if rhs_zero || lhs_zero {
                out.push(ctx.diag(sig[at], self.id(), MESSAGE, SUGGESTION));
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
            .filter(|d| d.rule == "sparsity-skip")
            .collect()
    }

    #[test]
    fn flags_the_historical_gemm_skip() {
        // Verbatim shape of the seed bug PR 3 removed.
        let src = "fn f(a_ip: f32) { if a_ip == 0.0 { continue; } }";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn flags_reversed_negated_and_suffixed_zeros() {
        assert_eq!(diags("fn f(x: f32) -> bool { 0.0 != x }").len(), 1);
        assert_eq!(diags("fn f(x: f32) -> bool { x == -0.0 }").len(), 1);
        assert_eq!(diags("fn f(x: f32) -> bool { x == 0f32 }").len(), 1);
    }

    #[test]
    fn integer_zero_and_nonzero_floats_are_quiet() {
        assert!(diags("fn f(n: usize) -> bool { n == 0 }").is_empty());
        assert!(diags("fn f(x: f32) -> bool { x == 0.5 }").is_empty());
    }

    #[test]
    fn test_modules_may_compare_to_zero() {
        let src = "#[cfg(test)]\nmod tests { fn t(x: f32) { assert!(x == 0.0); } }";
        assert!(diags(src).is_empty());
    }
}
