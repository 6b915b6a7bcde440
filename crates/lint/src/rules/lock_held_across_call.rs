//! `lock-held-across-call` — a `Mutex` guard held while calling back into
//! workspace code. The trace sink and the robust-aggregation shard state
//! are both behind mutexes; a callee that logs (taking the sink lock) or
//! re-enters the shard state deadlocks, and even a non-reentrant slow
//! callee serialises every worker on the lock. The historical shape: a
//! `let guard = state.lock().unwrap();` followed by a span-building call
//! three lines later, holding the lock across the whole build.
//!
//! For each `let g = <expr>.lock()...;` binding, the statements after it
//! in the same block — up to an explicit `drop(g)` or the block's end —
//! are scanned. A call is flagged when its final path segment (free or
//! path call) or its method name is not on the std-prelude denylist
//! ([`UBIQUITOUS`]) and some fn anywhere in the workspace has that name
//! ([`FileCtx::workspace_fns`]).
//!
//! Methods *on the guard itself* (`g.push(..)`) are the point of holding
//! the lock and stay quiet, as do std-only calls (`v.len()`, `drop`).

use super::Rule;
use crate::config::Scope;
use crate::dataflow::first_ident;
use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::{TokKind, Token};
use crate::parser::{Expr, ExprKind, Span};

pub struct LockHeldAcrossCall;

/// Method/terminal-segment names so common in std that a name-only match
/// would call unrelated code a workspace call (`.max(`, `Vec::new`,
/// `std::mem::take`). Must stay sorted: [`is_ubiquitous`] binary-searches
/// it.
const UBIQUITOUS: &[&str] = &[
    "abs",
    "all",
    "any",
    "as_mut",
    "as_ref",
    "as_slice",
    "borrow",
    "borrow_mut",
    "capacity",
    "ceil",
    "chain",
    "clamp",
    "clear",
    "clone",
    "clone_from",
    "cmp",
    "collect",
    "contains",
    "count",
    "default",
    "drain",
    "drop",
    "entry",
    "eq",
    "exp",
    "expect",
    "extend",
    "filter",
    "find",
    "first",
    "floor",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "load",
    "lock",
    "map",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "replace",
    "reserve",
    "resize",
    "rev",
    "round",
    "scope",
    "send",
    "skip",
    "sort",
    "spawn",
    "split",
    "sqrt",
    "store",
    "sum",
    "swap",
    "take",
    "to_string",
    "to_vec",
    "trim",
    "unwrap",
    "values",
    "write",
    "zip",
];

/// Is `name` on the std-prelude denylist?
fn is_ubiquitous(name: &str) -> bool {
    UBIQUITOUS.binary_search(&name).is_ok()
}

/// The terminal path segment of a callee span: the last identifier token.
fn last_segment<'a>(tokens: &[Token<'a>], callee: Span) -> Option<(&'a str, usize)> {
    let mut found = None;
    for (i, t) in tokens
        .iter()
        .enumerate()
        .take(callee.hi.min(tokens.len()))
        .skip(callee.lo)
    {
        if t.kind == TokKind::Ident {
            found = Some((t.text, i));
        }
    }
    found
}

const SUGGESTION: &str = "shrink the critical section: copy what you need out of the guard and `drop(guard)` before the call (or scope the guard in its own block); if the callee provably takes no lock and is fast, add `// tdfm-lint: allow(lock-held-across-call, <reason>)`";

/// Is this `let` statement's initialiser a guard acquisition — an init
/// chain whose outermost method is `lock`/`unwrap`/`expect` containing a
/// `.lock()` call? (`let v = m.lock().unwrap().clone();` ends in `clone`:
/// the guard is a dropped temporary, not held.)
fn takes_lock(let_node: &Expr) -> bool {
    let Some(init) = let_node.children.last() else {
        return false;
    };
    let ExprKind::MethodCall { method, .. } = &init.kind else {
        return false;
    };
    if !matches!(method.as_str(), "lock" | "unwrap" | "expect") {
        return false;
    }
    let mut has_lock = false;
    init.walk(&mut |e| {
        if let ExprKind::MethodCall { method, .. } = &e.kind {
            if method == "lock" {
                has_lock = true;
            }
        }
    });
    has_lock
}

/// Is this statement exactly `drop(g)`? (The bare-ident argument is not
/// an AST child — trivial leaves collapse into the call's gap — so the
/// argument is read from the tokens between the callee and the close.)
fn is_drop_of(ctx: &FileCtx<'_>, stmt: &Expr, guard: &str) -> bool {
    let ExprKind::Call { callee } = &stmt.kind else {
        return false;
    };
    if last_segment(ctx.tokens, *callee).is_none_or(|(n, _)| n != "drop") {
        return false;
    }
    (callee.hi..stmt.span.hi.min(ctx.tokens.len()))
        .find(|&i| ctx.tokens[i].kind == TokKind::Ident)
        .map(|i| ctx.tokens[i].text)
        == Some(guard)
}

impl Rule for LockHeldAcrossCall {
    fn id(&self) -> &'static str {
        "lock-held-across-call"
    }

    fn summary(&self) -> &'static str {
        "workspace call made while a lock guard is held risks deadlock and serialises workers"
    }

    fn default_scope(&self) -> Scope {
        Scope {
            include: Vec::new(),
            exclude: Vec::new(),
        }
    }

    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
        for func in ctx.ast.fns() {
            let Some(body) = &func.body else { continue };
            body.walk(&mut |block| {
                if matches!(block.kind, ExprKind::Block) {
                    self.check_block(ctx, block, out);
                }
            });
        }
    }
}

impl LockHeldAcrossCall {
    fn check_block(&self, ctx: &FileCtx<'_>, block: &Expr, out: &mut Vec<Diagnostic>) {
        for (si, stmt) in block.children.iter().enumerate() {
            let ExprKind::Let {
                name: Some(guard), ..
            } = &stmt.kind
            else {
                continue;
            };
            if !takes_lock(stmt) {
                continue;
            }
            for later in &block.children[si + 1..] {
                if is_drop_of(ctx, later, guard) {
                    break;
                }
                later.walk(&mut |e| {
                    if let Some(anchor) = workspace_call(ctx, e, guard) {
                        out.push(ctx.diag(
                            anchor,
                            self.id(),
                            format!("call into workspace code while the `{guard}` lock guard is held — the callee may block or take the same lock"),
                            SUGGESTION,
                        ));
                    }
                });
            }
        }
    }
}

/// The anchor token if `e` is a call whose name some workspace fn has (and
/// not a use of the guard itself).
fn workspace_call(ctx: &FileCtx<'_>, e: &Expr, guard: &str) -> Option<usize> {
    let is_workspace_fn = |name: &str| !is_ubiquitous(name) && ctx.workspace_fns.contains(name);
    match &e.kind {
        ExprKind::Call { callee } => {
            let (name, tok) = last_segment(ctx.tokens, *callee)?;
            // `is_ubiquitous` also covers `drop`; without it,
            // `std::mem::take(..)` under a guard would count as a call of
            // any workspace method that happens to be named `take`.
            is_workspace_fn(name).then_some(tok)
        }
        ExprKind::MethodCall {
            method, method_tok, ..
        } => {
            if !is_workspace_fn(method) {
                return None;
            }
            // Methods on the guard are the point of holding the lock.
            let recv = e.children.first()?;
            (first_ident(ctx.tokens, recv.span) != Some(guard)).then_some(*method_tok)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::engine::lint_files;

    #[test]
    fn denylist_is_sorted_for_binary_search() {
        let mut sorted = UBIQUITOUS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, UBIQUITOUS);
    }

    /// Two files: the callee definitions are the workspace fns a call under
    /// the guard can name.
    fn diags(caller_src: &str) -> Vec<Diagnostic> {
        let files = vec![
            ("crates/obs/src/sink.rs".to_string(), caller_src.to_string()),
            (
                "crates/obs/src/span.rs".to_string(),
                "pub fn build_span(d: u64) -> Span { Span::of(d) }\npub fn fanout(n: usize) {}"
                    .to_string(),
            ),
        ];
        lint_files(&files, &Config::default())
            .into_iter()
            .filter(|d| d.rule == "lock-held-across-call")
            .collect()
    }

    #[test]
    fn workspace_call_under_guard_is_flagged() {
        let src = r#"
fn flush(state: &Mutex<Vec<u64>>) {
    let g = state.lock().unwrap();
    let s = build_span(g[0]);
}
"#;
        let d = diags(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].line, d[0].col), (4, 13));
    }

    #[test]
    fn dropping_the_guard_first_is_quiet() {
        let src = r#"
fn flush(state: &Mutex<Vec<u64>>) {
    let g = state.lock().unwrap();
    let d = g[0];
    drop(g);
    let s = build_span(d);
}
"#;
        assert!(diags(src).is_empty());
    }

    #[test]
    fn guard_methods_and_std_calls_are_quiet() {
        let src = r#"
fn flush(state: &Mutex<Vec<u64>>) {
    let g = state.lock().unwrap();
    let n = g.len();
    let m = n.max(1);
}
"#;
        assert!(diags(src).is_empty());
    }

    #[test]
    fn lock_temporary_is_not_a_held_guard() {
        let src = r#"
fn snapshot(state: &Mutex<Vec<u64>>) {
    let v = state.lock().unwrap().clone();
    let s = build_span(v[0]);
}
"#;
        assert!(diags(src).is_empty());
    }

    #[test]
    fn qualified_std_calls_are_quiet_despite_name_collisions() {
        // `std::mem::take` must not count as a workspace call just
        // because some workspace type has a `take` method.
        let files = vec![
            (
                "crates/obs/src/sink.rs".to_string(),
                r#"
fn flush(state: &Mutex<Vec<u64>>, buf: &mut Vec<u64>) {
    let g = state.lock().unwrap();
    let v = std::mem::take(buf);
}
"#
                .to_string(),
            ),
            (
                "crates/obs/src/span.rs".to_string(),
                "pub struct Pool; impl Pool { pub fn take(&self, n: usize) -> usize { n } }"
                    .to_string(),
            ),
        ];
        let d: Vec<Diagnostic> = lint_files(&files, &Config::default())
            .into_iter()
            .filter(|d| d.rule == "lock-held-across-call")
            .collect();
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scoping_the_guard_in_a_block_is_quiet() {
        let src = r#"
fn flush(state: &Mutex<Vec<u64>>) {
    let d = { let g = state.lock().unwrap(); g[0] };
    let s = build_span(d);
}
"#;
        assert!(diags(src).is_empty());
    }
}
