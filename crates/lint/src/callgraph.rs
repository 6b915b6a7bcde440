//! A workspace-wide call graph over the parsed ASTs ([`crate::parser`]).
//!
//! Resolution is by name, with two precision aids and one recall guard:
//!
//! * **Impl qualifiers.** Each fn defined inside an `impl`/`trait` block
//!   records the self-type (last depth-0 identifier of the impl header),
//!   so `Scratch::take_f32(..)` links to `Scratch`'s method and not to
//!   every `take_f32` in the tree.
//! * **Ubiquity denylist.** Method calls and qualified paths whose final
//!   segment is a std-prelude name (`new`, `len`, `max`, `collect`, ...)
//!   never create fallback edges: `.max(x)` must not drag a workspace fn
//!   that happens to be called `max` into every caller's reachable set.
//! * **Conservative multi-link.** Where several workspace fns share a
//!   name (e.g. `forward` on every layer), a call links to all of them —
//!   interprocedural rules over-approximate rather than miss.
//!
//! The graph is deterministic by construction: fns are discovered in
//! (file, source) order and edges preserve call-site order, so BFS
//! results — and therefore diagnostics — are stable across runs.

use std::collections::BTreeMap;

use crate::lexer::{TokKind, Token};
use crate::parser::{Expr, ExprKind, File, Item, ItemKind, Span};

/// One function definition somewhere in the workspace.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the defining file in the workspace unit list.
    pub file: usize,
    pub name: String,
    /// Token index (in the defining file) of the name identifier.
    pub name_tok: usize,
    /// Token span of the body block; `None` for trait declarations.
    pub body: Option<Span>,
    /// Self-type of the enclosing `impl`/`trait` block, when any.
    pub qualifier: Option<String>,
}

/// The graph: nodes plus name-resolved call edges.
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// `edges[caller]` = `(callee, call-site token in caller's file)` in
    /// source order.
    edges: Vec<Vec<(usize, usize)>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Method/terminal-segment names so common in std that a name-only match
/// would link unrelated code (`.max(`, `Vec::new`). Calls through these
/// names only resolve when an impl qualifier pins them down. Must stay
/// sorted: resolution binary-searches it.
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

/// Is `name` on the std-prelude denylist? (Public: `lock-held-across-call`
/// uses the same notion to decide whether a method call under a guard can
/// plausibly be a workspace fn.)
pub fn is_ubiquitous(name: &str) -> bool {
    UBIQUITOUS.binary_search(&name).is_ok()
}

impl CallGraph {
    /// Builds the graph over every file's `(tokens, ast)` pair, indexed by
    /// position (the same indices the engine's unit list uses).
    pub fn build(files: &[(&[Token<'_>], &File)]) -> CallGraph {
        let mut fns = Vec::new();
        for (file_idx, (tokens, ast)) in files.iter().enumerate() {
            for item in &ast.items {
                collect_fns(tokens, item, file_idx, None, &mut fns);
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut edges = vec![Vec::new(); fns.len()];
        for (caller, f) in fns.iter().enumerate() {
            let Some(body) = f.body else { continue };
            let (tokens, ast) = files[f.file];
            // Walk only this fn's body (nested fns are their own nodes —
            // their subtrees are skipped so calls are not double-counted).
            visit_fn_body(ast, body, &mut |e| {
                resolve_call(tokens, e, &fns, &by_name, &mut edges[caller]);
            });
        }
        CallGraph {
            fns,
            edges,
            by_name,
        }
    }

    /// Direct callees of `caller` with their call-site tokens.
    pub fn callees(&self, caller: usize) -> &[(usize, usize)] {
        &self.edges[caller]
    }

    /// Indices of every fn named `name`.
    pub fn defs_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// BFS over call edges from `roots`: returns, for every reached fn
    /// (roots included), the `(caller, call-site token)` edge that first
    /// reached it (`None` for roots). Deterministic: queue order follows
    /// root order, then edge order.
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, Option<(usize, usize)>> {
        let mut parent: BTreeMap<usize, Option<(usize, usize)>> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(r) {
                v.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(cur) = queue.pop_front() {
            for &(callee, tok) in &self.edges[cur] {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(callee) {
                    v.insert(Some((cur, tok)));
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// Renders the root-to-`idx` call chain as `a -> b -> c` fn names.
    pub fn chain(&self, parent: &BTreeMap<usize, Option<(usize, usize)>>, idx: usize) -> String {
        let mut names = vec![self.fns[idx].name.clone()];
        let mut cur = idx;
        while let Some(Some((caller, _))) = parent.get(&cur) {
            names.push(self.fns[*caller].name.clone());
            cur = *caller;
            if names.len() > 32 {
                break; // cycle guard (parent maps are acyclic, but be safe)
            }
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// Recursively collects fn definitions, threading the impl/trait
/// qualifier down.
fn collect_fns(
    tokens: &[Token<'_>],
    item: &Item,
    file: usize,
    qualifier: Option<&str>,
    out: &mut Vec<FnNode>,
) {
    match &item.kind {
        ItemKind::Fn(func) => {
            out.push(FnNode {
                file,
                name: func.name.clone(),
                name_tok: func.name_tok,
                body: func.body.as_ref().map(|b| b.span),
                qualifier: qualifier.map(|q| q.to_string()),
            });
            // Nested statement-position fns.
            if let Some(body) = &func.body {
                body.walk(&mut |e| {
                    if let ExprKind::ItemStmt(nested) = &e.kind {
                        collect_fns(tokens, nested, file, None, out);
                    }
                });
            }
        }
        ItemKind::Mod { items } => {
            for it in items {
                collect_fns(tokens, it, file, None, out);
            }
        }
        ItemKind::Impl { items } | ItemKind::Trait { items } => {
            let q = header_qualifier(tokens, item);
            for it in items {
                collect_fns(tokens, it, file, q.as_deref(), out);
            }
        }
        ItemKind::Verbatim => {}
    }
}

/// The self-type name of an `impl`/`trait` header: the last identifier at
/// angle-depth 0 before the body brace (`impl Agg for TrimmedMean {` ->
/// `TrimmedMean`; `impl<T> Wrapper<T> {` -> `Wrapper`). For `trait Name`,
/// that is the trait name itself.
fn header_qualifier(tokens: &[Token<'_>], item: &Item) -> Option<String> {
    let mut angle = 0i32;
    let mut last: Option<&str> = None;
    for t in &tokens[item.span.lo..item.span.hi.min(tokens.len())] {
        if t.is_trivia() {
            continue;
        }
        match t.text {
            "{" => break,
            "<" => angle += 1,
            "<<" => angle += 2,
            ">" => angle = (angle - 1).max(0),
            ">>" => angle = (angle - 2).max(0),
            _ if t.kind == TokKind::Ident
                && angle == 0
                && !matches!(
                    t.text,
                    "impl" | "trait" | "for" | "where" | "dyn" | "mut" | "const"
                ) =>
            {
                last = Some(t.text);
            }
            _ => {}
        }
    }
    last.map(|s| s.to_string())
}

/// Walks the expressions of the fn body with token span `body`, skipping
/// subtrees of nested statement-position fns (separate graph nodes).
fn visit_fn_body<'s>(ast: &'s File, body: Span, f: &mut impl FnMut(&'s Expr)) {
    fn walk_skipping_items<'s>(e: &'s Expr, f: &mut impl FnMut(&'s Expr)) {
        if matches!(e.kind, ExprKind::ItemStmt(_)) {
            return;
        }
        f(e);
        for c in &e.children {
            walk_skipping_items(c, f);
        }
    }
    let mut found = false;
    ast.walk_exprs(&mut |e| {
        if !found && matches!(e.kind, ExprKind::Block) && e.span == body {
            found = true;
            walk_skipping_items(e, f);
        }
    });
}

/// The terminal path segment of a callee span: the last identifier token.
pub fn last_segment<'a>(tokens: &[Token<'a>], callee: Span) -> Option<(&'a str, usize)> {
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

/// The segment *before* the terminal one (`Scratch` in `Scratch::new`),
/// when the path is qualified.
fn qualifier_segment<'a>(tokens: &[Token<'a>], callee: Span, last_tok: usize) -> Option<&'a str> {
    let mut prev = None;
    for t in &tokens[callee.lo..last_tok] {
        if t.kind == TokKind::Ident {
            prev = Some(t.text);
        }
    }
    prev
}

/// Resolves one expression node to call edges, if it is a call.
fn resolve_call(
    tokens: &[Token<'_>],
    e: &Expr,
    fns: &[FnNode],
    by_name: &BTreeMap<String, Vec<usize>>,
    out: &mut Vec<(usize, usize)>,
) {
    match &e.kind {
        ExprKind::Call { callee } => {
            let Some((name, name_tok)) = last_segment(tokens, *callee) else {
                return;
            };
            let Some(cands) = by_name.get(name) else {
                return;
            };
            match qualifier_segment(tokens, *callee, name_tok) {
                Some(q) => {
                    // Qualified: prefer exact impl matches; fall back to
                    // all same-name fns only for non-ubiquitous names.
                    let exact: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| fns[i].qualifier.as_deref() == Some(q))
                        .collect();
                    if !exact.is_empty() {
                        out.extend(exact.into_iter().map(|i| (i, name_tok)));
                    } else if !is_ubiquitous(name) {
                        out.extend(cands.iter().map(|&i| (i, name_tok)));
                    }
                }
                // Bare `helper(..)`: a free fn — link every candidate,
                // unless the name is a std prelude fn (`drop(x)` must not
                // link every `Drop::drop` impl in the workspace).
                None => {
                    if !is_ubiquitous(name) {
                        out.extend(cands.iter().map(|&i| (i, name_tok)));
                    }
                }
            }
        }
        ExprKind::MethodCall {
            method, method_tok, ..
        } => {
            if is_ubiquitous(method) {
                return;
            }
            if let Some(cands) = by_name.get(method.as_str()) {
                out.extend(cands.iter().map(|&i| (i, *method_tok)));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn with_graph(srcs: &[&str], check: impl FnOnce(&CallGraph)) {
        let tokens: Vec<Vec<Token<'_>>> = srcs.iter().map(|s| lex(s)).collect();
        let asts: Vec<File> = tokens.iter().map(|t| parse_file(t)).collect();
        let pairs: Vec<(&[Token<'_>], &File)> = tokens
            .iter()
            .zip(&asts)
            .map(|(t, a)| (t.as_slice(), a))
            .collect();
        check(&CallGraph::build(&pairs));
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.defs_named(name)[0]
    }

    #[test]
    fn denylist_is_sorted_for_binary_search() {
        let mut sorted = UBIQUITOUS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, UBIQUITOUS);
    }

    #[test]
    fn links_free_fn_calls_across_files() {
        with_graph(
            &[
                "pub fn kernel() { helper_alloc(3); }",
                "pub fn helper_alloc(n: usize) { other(n); }\nfn other(n: usize) {}",
            ],
            |g| {
                let kernel = idx(g, "kernel");
                let helper = idx(g, "helper_alloc");
                let other = idx(g, "other");
                assert_eq!(g.callees(kernel).len(), 1);
                assert_eq!(g.callees(kernel)[0].0, helper);
                let reach = g.reachable(&[kernel]);
                assert!(reach.contains_key(&other), "transitive reach");
                assert_eq!(g.chain(&reach, other), "kernel -> helper_alloc -> other");
            },
        );
    }

    #[test]
    fn qualified_calls_prefer_the_matching_impl() {
        with_graph(
            &[
                "struct A; impl A { pub fn make() {} }\nstruct B; impl B { pub fn make() {} }",
                "fn use_it() { A::make(); }",
            ],
            |g| {
                let callees = g.callees(idx(g, "use_it"));
                assert_eq!(callees.len(), 1);
                assert_eq!(g.fns[callees[0].0].qualifier.as_deref(), Some("A"));
            },
        );
    }

    #[test]
    fn ubiquitous_method_names_do_not_link() {
        with_graph(
            &[
                "struct S; impl S { pub fn max(&self) -> u8 { 0 } }",
                "fn f(x: f32) -> f32 { x.max(0.0) }",
            ],
            |g| {
                assert!(
                    g.callees(idx(g, "f")).is_empty(),
                    "`.max(` must not link to S::max"
                );
            },
        );
        // But `S::max(..)` (qualified) still resolves precisely.
        with_graph(
            &[
                "struct S; impl S { pub fn max(&self) -> u8 { 0 } }",
                "fn g(s: &S) -> u8 { S::max(s) }",
            ],
            |g| assert_eq!(g.callees(idx(g, "g")).len(), 1),
        );
    }

    #[test]
    fn bare_prelude_calls_do_not_link_to_trait_impls() {
        // `drop(x)` is `std::mem::drop`, not a call into any of the
        // workspace's `Drop::drop` impls.
        with_graph(
            &[
                "struct Buf; impl Drop for Buf { fn drop(&mut self) { flush(); } }\nfn flush() {}",
                "fn release(b: Buf) { drop(b); }",
            ],
            |g| {
                assert!(
                    g.callees(idx(g, "release")).is_empty(),
                    "bare `drop(..)` must not link to Drop::drop"
                );
            },
        );
    }

    #[test]
    fn non_ubiquitous_method_calls_multi_link() {
        with_graph(
            &[
                "struct A; impl A { pub fn forward(&self) {} }\nstruct B; impl B { pub fn forward(&self) {} }",
                "fn step(l: &A) { l.forward(); }",
            ],
            |g| assert_eq!(g.callees(idx(g, "step")).len(), 2, "conservative multi-link"),
        );
    }

    #[test]
    fn nested_fn_calls_belong_to_the_nested_node() {
        with_graph(
            &["fn outer() { fn inner() { leaf(); } inner(); }\nfn leaf() {}"],
            |g| {
                let callees = |n: &str| -> Vec<usize> {
                    g.callees(idx(g, n)).iter().map(|&(c, _)| c).collect()
                };
                assert_eq!(callees("outer"), vec![idx(g, "inner")]);
                assert_eq!(callees("inner"), vec![idx(g, "leaf")]);
            },
        );
    }

    #[test]
    fn trait_headers_qualify_their_default_methods() {
        with_graph(&["trait Agg { fn combine(&self) {} }"], |g| {
            assert_eq!(g.fns[idx(g, "combine")].qualifier.as_deref(), Some("Agg"));
        });
    }
}
