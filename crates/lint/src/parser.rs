//! A lightweight, lossless recursive-descent parser over [`crate::lexer`].
//!
//! PR 4's rules matched flat token patterns, which capped what they could
//! express: a guard held across a call is a property of block
//! *structure*, and a method call may span lines or carry a turbofish.
//! This parser recovers exactly the structure the rules need — items,
//! function signatures, blocks, call / method-call / loop / closure
//! expressions — and nothing more: types, patterns and operator
//! precedence stay as raw token runs, and `mod`, `impl` and `trait`
//! blocks are one kind of item, a list of nested items.
//!
//! Two invariants make it safe to build rules on:
//!
//! * **Lossless spans.** Every node's span is a half-open range of token
//!   indices; children are ordered, non-overlapping sub-ranges of their
//!   parent. [`reconstruct`] walks the tree emitting parent tokens in the
//!   gaps around children — the result is byte-identical to the source
//!   for every `.rs` file in the workspace (property-tested in
//!   `tests/parser_roundtrip.rs`, mirroring the lexer round-trip sweep).
//! * **No panics.** Malformed input degrades: unparseable token runs
//!   become [`ItemKind::Verbatim`] items or plain [`ExprKind::Leaf`]
//!   nodes, and unbalanced delimiters run to the end of their region.
//!
//! The parser is deliberately heuristic in the two places Rust's grammar
//! is ambiguous without symbol tables: `ident { ... }` in expression
//! position is taken as a struct literal, and `|` starts a closure only in
//! expression-start position. Both degrade to mis-*kinded* (never
//! mis-*spanned*) nodes, which the round-trip property still pins.

use crate::lexer::{TokKind, Token};

/// A half-open range `[lo, hi)` of token indices into the file's token
/// stream (trivia included — spans always cover whole source regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub lo: usize,
    pub hi: usize,
}

impl Span {
    pub fn new(lo: usize, hi: usize) -> Self {
        Span { lo, hi }
    }

    pub fn contains(&self, tok: usize) -> bool {
        tok >= self.lo && tok < self.hi
    }
}

/// One parsed file: a list of top-level items.
#[derive(Debug, Default)]
pub struct File {
    pub items: Vec<Item>,
}

/// A top-level (or nested) item.
#[derive(Debug)]
pub struct Item {
    pub kind: ItemKind,
    pub span: Span,
}

#[derive(Debug)]
pub enum ItemKind {
    Fn(FnItem),
    /// An inline `mod name { ... }`, `impl ... { ... }` or
    /// `trait ... { ... }`: only the contained items are modelled (trait
    /// default method bodies included). Out-of-line `mod name;` is
    /// Verbatim.
    Nested {
        items: Vec<Item>,
    },
    /// Anything else (struct/enum/use/const/static/type/macro/attr soup):
    /// an opaque token run.
    Verbatim,
}

/// A function item: the one signature the rules care about plus a body.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Span of the parameter list including both parentheses.
    pub params: Span,
    /// The body block (`ExprKind::Block`), absent for trait declarations.
    pub body: Option<Expr>,
}

/// One expression node. `children` are ordered, non-overlapping spans
/// inside `span`; tokens not covered by a child belong to the node itself
/// (the "gap" tokens [`reconstruct`] emits in place).
#[derive(Debug)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
    pub children: Vec<Expr>,
}

#[derive(Debug)]
pub enum ExprKind {
    /// An operand the rules have no structure for: a path, literal,
    /// parenthesised group, array, index, or struct literal. Interesting
    /// sub-expressions (e.g. a spawn inside a struct field) still appear
    /// as children.
    Leaf,
    /// `name!(...)` / `name![...]` / `name!{...}` — contents opaque.
    Macro,
    /// `let <pat> = <init>;` — children are the init's nodes. `name` is
    /// set only for a simple `[mut] ident [: ty]` pattern.
    Let {
        name: Option<String>,
    },
    /// `path(args)` — `callee` spans the path (turbofish included);
    /// children are the argument nodes (plus, for `expr(...)` calls on a
    /// structured callee, that callee as the first child).
    Call {
        callee: Span,
    },
    /// `recv.name(args)` — children[0] is always the receiver node; the
    /// rest are argument nodes.
    MethodCall {
        method: String,
        method_tok: usize,
        dot_tok: usize,
    },
    /// `for <pat> in <iter> { ... }` — children: iter nodes then the body
    /// block (always the last child).
    For,
    /// `while <cond> { ... }` / `while let ... { ... }`.
    While,
    Loop,
    /// `if <cond> { } else if ... else { }` — children: cond nodes and
    /// every arm block, in source order.
    If,
    /// `match <scrutinee> { pat => value, ... }` — children: scrutinee
    /// nodes then each arm's value nodes (patterns stay raw tokens).
    Match,
    /// `|params| body` / `move || body` — children are the body's nodes.
    Closure,
    /// `{ ... }` — children are the statements' nodes.
    Block,
    /// An item in statement position (nested `fn`, `use`, `const`, ...).
    ItemStmt(Box<Item>),
}

impl Expr {
    /// Pre-order walk over this node and all descendants (items in
    /// statement position included).
    pub fn walk<'s>(&'s self, f: &mut impl FnMut(&'s Expr)) {
        f(self);
        if let ExprKind::ItemStmt(item) = &self.kind {
            item.walk_exprs(f);
        }
        for c in &self.children {
            c.walk(f);
        }
    }
}

impl Item {
    fn walk_exprs<'s>(&'s self, f: &mut impl FnMut(&'s Expr)) {
        match &self.kind {
            ItemKind::Fn(func) => {
                if let Some(body) = &func.body {
                    body.walk(f);
                }
            }
            ItemKind::Nested { items } => {
                for it in items {
                    it.walk_exprs(f);
                }
            }
            ItemKind::Verbatim => {}
        }
    }

    fn collect_fns<'s>(&'s self, out: &mut Vec<&'s FnItem>) {
        match &self.kind {
            ItemKind::Fn(func) => {
                out.push(func);
                if let Some(body) = &func.body {
                    body.walk(&mut |e| {
                        if let ExprKind::ItemStmt(item) = &e.kind {
                            if let ItemKind::Fn(nested) = &item.kind {
                                out.push(nested);
                            }
                        }
                    });
                }
            }
            ItemKind::Nested { items } => {
                for it in items {
                    it.collect_fns(out);
                }
            }
            ItemKind::Verbatim => {}
        }
    }
}

impl File {
    /// Every function in the file (module/impl/trait nesting flattened,
    /// nested statement-position fns included), in source order.
    pub fn fns(&self) -> Vec<&FnItem> {
        let mut out = Vec::new();
        for item in &self.items {
            item.collect_fns(&mut out);
        }
        out
    }

    /// Pre-order walk over every expression in every function body.
    pub fn walk_exprs<'s>(&'s self, f: &mut impl FnMut(&'s Expr)) {
        for item in &self.items {
            item.walk_exprs(f);
        }
    }
}

/// Parses a token stream into a [`File`]. Never fails: what it cannot
/// model becomes `Verbatim`/`Leaf` nodes with correct spans.
pub fn parse_file(tokens: &[Token<'_>]) -> File {
    let mut p = Parser { toks: tokens };
    File {
        items: p.parse_items(0, tokens.len()),
    }
}

/// Re-emits the source from the tree: for each node, parent tokens are
/// written in the gaps around children, children recursively. Equal to the
/// source iff every span is well-nested — the property the round-trip
/// tests pin for the whole workspace.
pub fn reconstruct(tokens: &[Token<'_>], file: &File) -> String {
    let mut out = String::new();
    emit_span_with_items(tokens, Span::new(0, tokens.len()), &file.items, &mut out);
    out
}

fn emit_tokens(tokens: &[Token<'_>], lo: usize, hi: usize, out: &mut String) {
    for t in &tokens[lo.min(tokens.len())..hi.min(tokens.len())] {
        out.push_str(t.text);
    }
}

fn emit_span_with_items(tokens: &[Token<'_>], span: Span, items: &[Item], out: &mut String) {
    let mut pos = span.lo;
    for item in items {
        emit_tokens(tokens, pos, item.span.lo, out);
        emit_item(tokens, item, out);
        pos = item.span.hi;
    }
    emit_tokens(tokens, pos, span.hi, out);
}

fn emit_item(tokens: &[Token<'_>], item: &Item, out: &mut String) {
    match &item.kind {
        ItemKind::Fn(func) => {
            match &func.body {
                Some(body) => {
                    emit_tokens(tokens, item.span.lo, body.span.lo, out);
                    emit_expr(tokens, body, out);
                    emit_tokens(tokens, body.span.hi, item.span.hi, out);
                }
                None => emit_tokens(tokens, item.span.lo, item.span.hi, out),
            };
        }
        ItemKind::Nested { items } => {
            emit_span_with_items(tokens, item.span, items, out);
        }
        ItemKind::Verbatim => emit_tokens(tokens, item.span.lo, item.span.hi, out),
    }
}

fn emit_expr(tokens: &[Token<'_>], expr: &Expr, out: &mut String) {
    if let ExprKind::ItemStmt(item) = &expr.kind {
        emit_item(tokens, item, out);
        return;
    }
    let mut pos = expr.span.lo;
    for c in &expr.children {
        emit_tokens(tokens, pos, c.span.lo, out);
        emit_expr(tokens, c, out);
        pos = c.span.hi;
    }
    emit_tokens(tokens, pos, expr.span.hi, out);
}

/// Validates the span-nesting invariant: children ordered, non-overlapping
/// and contained in their parent. Returns the first violation found.
pub fn check_spans(tokens: &[Token<'_>], file: &File) -> Result<(), String> {
    fn check_expr(e: &Expr) -> Result<(), String> {
        if e.span.lo > e.span.hi {
            return Err(format!("inverted span {:?}", e.span));
        }
        let mut pos = e.span.lo;
        for c in &e.children {
            if c.span.lo < pos || c.span.hi > e.span.hi {
                return Err(format!(
                    "child {:?} escapes/overlaps in parent {:?} ({:?})",
                    c.span, e.span, e.kind
                ));
            }
            pos = c.span.hi;
            if let ExprKind::ItemStmt(item) = &c.kind {
                check_item(item)?;
            }
            check_expr(c)?;
        }
        Ok(())
    }
    fn check_item(item: &Item) -> Result<(), String> {
        match &item.kind {
            ItemKind::Fn(func) => {
                if let Some(body) = &func.body {
                    if body.span.lo < item.span.lo || body.span.hi > item.span.hi {
                        return Err(format!(
                            "fn `{}` body {:?} escapes item {:?}",
                            func.name, body.span, item.span
                        ));
                    }
                    check_expr(body)?;
                }
            }
            ItemKind::Nested { items } => {
                let mut pos = item.span.lo;
                for it in items {
                    if it.span.lo < pos || it.span.hi > item.span.hi {
                        return Err(format!(
                            "item {:?} escapes/overlaps in {:?}",
                            it.span, item.span
                        ));
                    }
                    pos = it.span.hi;
                    check_item(it)?;
                }
            }
            ItemKind::Verbatim => {}
        }
        Ok(())
    }
    let mut pos = 0usize;
    for item in &file.items {
        if item.span.lo < pos || item.span.hi > tokens.len() {
            return Err(format!("top-level item {:?} escapes/overlaps", item.span));
        }
        pos = item.span.hi;
        check_item(item)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The parser proper.
// ---------------------------------------------------------------------------

struct Parser<'a, 't> {
    toks: &'t [Token<'a>],
}

/// Keywords that may precede `fn` in a signature.
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

impl<'a, 't> Parser<'a, 't> {
    /// Index of the first significant (non-trivia) token at or after `i`,
    /// strictly below `end`.
    fn sig_at(&self, mut i: usize, end: usize) -> Option<usize> {
        while i < end.min(self.toks.len()) {
            if !self.toks[i].is_trivia() {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    fn text(&self, i: usize) -> &'a str {
        self.toks[i].text
    }

    fn kind(&self, i: usize) -> TokKind {
        self.toks[i].kind
    }

    /// Given `i` at an opening delimiter (`(`/`[`/`{`), returns the index
    /// one past its matching closer. Unbalanced input runs to `end`.
    fn skip_balanced(&self, i: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while let Some(s) = self.sig_at(j, end) {
            match self.text(s) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return s + 1;
                    }
                }
                _ => {}
            }
            j = s + 1;
        }
        end
    }

    /// Scans forward from `i` until `stop` matches a token text at
    /// delimiter depth 0, returning that token's index (or `end`).
    fn scan_depth0(&self, i: usize, end: usize, stop: impl Fn(&str) -> bool) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while let Some(s) = self.sig_at(j, end) {
            let t = self.text(s);
            // The stop check comes first: a stop of `{` must halt AT the
            // opener, not descend into it.
            if depth == 0 && stop(t) {
                return s;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return s; // closing our own region: stop here
                    }
                    depth -= 1;
                }
                _ => {}
            }
            j = s + 1;
        }
        end
    }

    /// Skips a generic parameter list starting at `<`. `->`'s `>` does not
    /// close. Bails at `(`, `{` or `;` at angle depth > 0 (malformed).
    fn skip_generics(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while let Some(s) = self.sig_at(j, end) {
            match self.text(s) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                ">=" => depth -= 1,
                "{" | ";" => return s, // malformed generics: stop cleanly
                _ => {}
            }
            if depth <= 0 {
                return s + 1;
            }
            j = s + 1;
        }
        end
    }

    // -- items ---------------------------------------------------------

    fn parse_items(&mut self, lo: usize, hi: usize) -> Vec<Item> {
        let mut items = Vec::new();
        let mut i = lo;
        while let Some(start) = self.sig_at(i, hi) {
            if matches!(self.text(start), ")" | "]" | "}") {
                // A stray closer can only mean our caller's region was
                // over-approximated; consume it as a one-token Verbatim.
                items.push(Item {
                    kind: ItemKind::Verbatim,
                    span: Span::new(start, start + 1),
                });
                i = start + 1;
                continue;
            }
            let item = self.parse_item(start, hi);
            i = item.span.hi.max(start + 1);
            items.push(item);
        }
        items
    }

    /// Parses one item starting at significant token `start`.
    fn parse_item(&mut self, start: usize, hi: usize) -> Item {
        let mut j = start;
        // Outer attributes. An *inner* attribute (`#![...]`) is its own
        // Verbatim item — it belongs to the enclosing scope, not to the
        // next item.
        while let Some(s) = self.sig_at(j, hi) {
            if self.text(s) != "#" {
                break;
            }
            if self.sig_at(s + 1, hi).map(|n| self.text(n)) == Some("!") {
                if j == start {
                    let open = self.sig_at(s + 1, hi).and_then(|b| self.sig_at(b + 1, hi));
                    let end = open.map_or(s + 2, |o| self.skip_balanced(o, hi));
                    return Item {
                        kind: ItemKind::Verbatim,
                        span: Span::new(start, end),
                    };
                }
                break;
            }
            let Some(open) = self.sig_at(s + 1, hi) else {
                break;
            };
            j = self.skip_balanced(open, hi);
        }
        // Visibility.
        if let Some(s) = self.sig_at(j, hi) {
            if self.text(s) == "pub" {
                j = s + 1;
                if let Some(p) = self.sig_at(j, hi) {
                    if self.text(p) == "(" {
                        j = self.skip_balanced(p, hi);
                    }
                }
            }
        }
        // Qualifiers before `fn` (const/unsafe/async/extern "C"). A
        // `const`/`extern`/`unsafe` that does *not* lead to `fn`/`impl`/
        // `trait`/`mod` falls through to the Verbatim arm below.
        let mut k = j;
        while let Some(s) = self.sig_at(k, hi) {
            let t = self.text(s);
            if !FN_QUALIFIERS.contains(&t) {
                break;
            }
            let next = self.sig_at(s + 1, hi);
            let next_text = next.map(|n| self.text(n));
            if t == "const" && next_text != Some("fn") {
                break; // `const NAME: ...` item
            }
            if t == "extern" {
                match next_text {
                    Some(s) if self.kind(next.unwrap_or(0)) == TokKind::Str => {
                        let _ = s;
                        k = next.unwrap_or(s.len()) + 1;
                        continue;
                    }
                    _ => break, // `extern crate` / `extern { ... }` block
                }
            }
            k = s + 1;
        }
        let Some(kw) = self.sig_at(k, hi) else {
            return Item {
                kind: ItemKind::Verbatim,
                span: Span::new(start, hi),
            };
        };
        match self.text(kw) {
            "fn" => self.parse_fn(start, kw, hi),
            "mod" => {
                let after = self.sig_at(kw + 1, hi).map_or(kw + 1, |n| n + 1);
                match self.sig_at(after, hi).map(|s| (s, self.text(s))) {
                    Some((open, "{")) => {
                        let close = self.skip_balanced(open, hi);
                        let items = self.parse_items(open + 1, close.saturating_sub(1));
                        Item {
                            kind: ItemKind::Nested { items },
                            span: Span::new(start, close),
                        }
                    }
                    Some((semi, ";")) => Item {
                        kind: ItemKind::Verbatim,
                        span: Span::new(start, semi + 1),
                    },
                    _ => Item {
                        kind: ItemKind::Verbatim,
                        span: Span::new(start, after),
                    },
                }
            }
            "impl" | "trait" => {
                let open = self.scan_depth0(kw + 1, hi, |t| t == "{" || t == ";");
                if open >= hi || self.text(open) != "{" {
                    return Item {
                        kind: ItemKind::Verbatim,
                        span: Span::new(start, (open + 1).min(hi)),
                    };
                }
                let close = self.skip_balanced(open, hi);
                let items = self.parse_items(open + 1, close.saturating_sub(1));
                Item {
                    kind: ItemKind::Nested { items },
                    span: Span::new(start, close),
                }
            }
            "struct" | "enum" | "union" => {
                // To `;` (unit/tuple struct) or through the brace body.
                let stop = self.scan_depth0(kw + 1, hi, |t| t == ";" || t == "{");
                let end = if stop < hi && self.text(stop) == "{" {
                    self.skip_balanced(stop, hi)
                } else {
                    (stop + 1).min(hi)
                };
                Item {
                    kind: ItemKind::Verbatim,
                    span: Span::new(start, end),
                }
            }
            "macro_rules" => {
                // `macro_rules ! name { ... }`
                let mut m = kw + 1;
                for _ in 0..2 {
                    if let Some(s) = self.sig_at(m, hi) {
                        m = s + 1;
                    }
                }
                let end = match self.sig_at(m, hi) {
                    Some(open) if matches!(self.text(open), "(" | "[" | "{") => {
                        self.skip_balanced(open, hi)
                    }
                    Some(other) => other + 1,
                    None => hi,
                };
                Item {
                    kind: ItemKind::Verbatim,
                    span: Span::new(start, end),
                }
            }
            _ => {
                // use / static / type / extern crate / item macros /
                // recovery: scan to `;` at depth 0, brace bodies matched.
                let stop = self.scan_depth0(kw, hi, |t| t == ";" || t == "{");
                let end = if stop < hi && self.text(stop) == "{" {
                    let close = self.skip_balanced(stop, hi);
                    // An item macro `name! { ... }` needs no `;`.
                    close
                } else {
                    (stop + 1).min(hi)
                };
                Item {
                    kind: ItemKind::Verbatim,
                    span: Span::new(start, end.max(kw + 1)),
                }
            }
        }
    }

    /// Parses `fn name <generics>? (params) -> ret where? { body }` with
    /// `kw` at the `fn` keyword and `start` at the item's first token.
    fn parse_fn(&mut self, start: usize, kw: usize, hi: usize) -> Item {
        let (name, mut j) = match self.sig_at(kw + 1, hi) {
            Some(n) if self.kind(n) == TokKind::Ident => (self.text(n).to_string(), n + 1),
            _ => (String::new(), kw + 1),
        };
        // Generics.
        if let Some(s) = self.sig_at(j, hi) {
            if self.text(s) == "<" {
                j = self.skip_generics(s, hi);
            }
        }
        // Parameters.
        let params = match self.sig_at(j, hi) {
            Some(open) if self.text(open) == "(" => {
                let close = self.skip_balanced(open, hi);
                j = close;
                Span::new(open, close)
            }
            _ => Span::new(j, j),
        };
        // Return type / where clause: scan to the body `{` or a `;`.
        let stop = self.scan_depth0(j, hi, |t| t == "{" || t == ";");
        let (body, end) = if stop < hi && self.text(stop) == "{" {
            let close = self.skip_balanced(stop, hi);
            (Some(self.parse_block(stop, close)), close)
        } else {
            (None, (stop + 1).min(hi))
        };
        Item {
            kind: ItemKind::Fn(FnItem { name, params, body }),
            span: Span::new(start, end),
        }
    }

    // -- blocks and statements -----------------------------------------

    /// Parses a block whose `{` is at `open` and whose matching `}` is
    /// just before `close` (i.e. `close == skip_balanced(open, ..)`).
    fn parse_block(&mut self, open: usize, close: usize) -> Expr {
        let inner_hi = close.saturating_sub(1).max(open + 1);
        let children = self.parse_stmts(open + 1, inner_hi);
        Expr {
            kind: ExprKind::Block,
            span: Span::new(open, close),
            children,
        }
    }

    /// Statement soup: `let` bindings, nested items, and expression
    /// statements, flattened into the block's child list in source order.
    fn parse_stmts(&mut self, lo: usize, hi: usize) -> Vec<Expr> {
        let mut out = Vec::new();
        let mut i = lo;
        while let Some(start) = self.sig_at(i, hi) {
            let t = self.text(start);
            if t == ";" {
                i = start + 1;
                continue;
            }
            if t == "let" {
                let node = self.parse_let(start, hi);
                i = node.span.hi.max(start + 1);
                out.push(node);
                continue;
            }
            if self.starts_item_in_stmt(start, hi) {
                let item = self.parse_item(start, hi);
                i = item.span.hi.max(start + 1);
                out.push(Expr {
                    span: item.span,
                    kind: ExprKind::ItemStmt(Box::new(item)),
                    children: Vec::new(),
                });
                continue;
            }
            // Expression statement: parse up to `;` at depth 0.
            let semi = self.scan_depth0(start, hi, |t| t == ";");
            let mut nodes = Vec::new();
            let consumed = self.parse_expr_run(start, semi, &mut nodes);
            out.extend(nodes);
            i = consumed.max(semi.min(hi)).max(start) + 1;
        }
        out
    }

    /// Is the token at `start` the beginning of an item inside a function
    /// body (`fn helper`, `use`, `struct`, `const X`, ...)?
    fn starts_item_in_stmt(&self, start: usize, hi: usize) -> bool {
        match self.text(start) {
            "fn" | "use" | "struct" | "enum" | "union" | "trait" | "impl" | "mod" | "static"
            | "macro_rules" => true,
            "type" => {
                // `type X = ...;` only; `.type` etc cannot start a stmt.
                true
            }
            "const" => {
                // `const FOO: ...` or `const fn`; `const` closures do not
                // exist, and `const { ... }` blocks are not used here.
                self.sig_at(start + 1, hi)
                    .map(|n| self.text(n) != "{")
                    .unwrap_or(true)
            }
            "unsafe" => {
                // `unsafe fn` in stmt position (rare); `unsafe { ... }` is
                // an expression.
                self.sig_at(start + 1, hi)
                    .map(|n| self.text(n) == "fn")
                    .unwrap_or(false)
            }
            "pub" | "#" => true,
            _ => false,
        }
    }

    /// Parses `let <pat> (= <init>)? ;` starting at the `let` keyword.
    fn parse_let(&mut self, start: usize, hi: usize) -> Expr {
        // Pattern + type: to `=` at depth 0, also counting angle depth so
        // `let x: Foo<Item = T> = ...` finds the right `=`.
        let mut angle = 0i32;
        let mut depth = 0usize;
        let mut eq = None;
        let mut j = start + 1;
        let mut stop = hi;
        while let Some(s) = self.sig_at(j, hi) {
            match self.text(s) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        stop = s;
                        break;
                    }
                    depth -= 1;
                }
                "<" if depth == 0 => angle += 1,
                ">" if depth == 0 => angle = (angle - 1).max(0),
                ">>" if depth == 0 => angle = (angle - 2).max(0),
                "=" if depth == 0 && angle == 0 => {
                    eq = Some(s);
                    break;
                }
                ";" if depth == 0 => {
                    stop = s;
                    break;
                }
                _ => {}
            }
            j = s + 1;
        }
        // Simple-binding name: `let [mut] ident` with `:`/`=`/`;` next.
        let mut name = None;
        let mut n = self.sig_at(start + 1, hi);
        if let Some(s) = n {
            if self.text(s) == "mut" {
                n = self.sig_at(s + 1, hi);
            }
        }
        if let Some(s) = n {
            if self.kind(s) == TokKind::Ident
                && !matches!(self.text(s), "mut")
                && self
                    .sig_at(s + 1, hi)
                    .map(|x| matches!(self.text(x), ":" | "=" | ";"))
                    .unwrap_or(true)
            {
                name = Some(self.text(s).to_string());
            }
        }
        let (children, after_init) = match eq {
            Some(eq) => {
                let semi = self.scan_depth0(eq + 1, hi, |t| t == ";");
                let mut nodes = Vec::new();
                let consumed = self.parse_expr_run(eq + 1, semi, &mut nodes);
                (nodes, consumed.max(semi))
            }
            None => (Vec::new(), stop),
        };
        // Include the trailing `;` when present.
        let end = match self.sig_at(after_init, hi) {
            Some(s) if self.text(s) == ";" => s + 1,
            _ => after_init.min(hi),
        };
        Expr {
            kind: ExprKind::Let { name },
            span: Span::new(start, end),
            children,
        }
    }

    // -- expressions ---------------------------------------------------

    /// Parses the token run `[lo, hi)` as expression soup, pushing the
    /// structured nodes found (calls, loops, closures, blocks, ...) onto
    /// `out` in source order. Returns the index it stopped at (normally
    /// `hi`; earlier if a closing delimiter of an outer region appears).
    fn parse_expr_run(&mut self, lo: usize, hi: usize, out: &mut Vec<Expr>) -> usize {
        let mut i = lo;
        // The operand currently being extended by postfix operators, and
        // whether the next token is in expression-start position.
        let mut current: Option<Expr> = None;
        let mut expr_start = true;
        let mut pending_move: Option<usize> = None;

        macro_rules! flush {
            () => {
                if let Some(node) = current.take() {
                    if !matches!(node.kind, ExprKind::Leaf) || !node.children.is_empty() {
                        out.push(node);
                    }
                }
            };
        }

        while let Some(s) = self.sig_at(i, hi) {
            let t = self.text(s);
            match t {
                ")" | "]" | "}" => {
                    // Closing an outer region: stop without consuming.
                    flush!();
                    return s;
                }
                "if" | "match" | "for" | "while" | "loop" => {
                    flush!();
                    let node = match t {
                        "if" => self.parse_if(s, hi),
                        "match" => self.parse_match(s, hi),
                        "for" => self.parse_for(s, hi),
                        "while" => self.parse_while(s, hi),
                        _ => self.parse_loop(s, hi),
                    };
                    i = node.span.hi.max(s + 1);
                    current = Some(node);
                    expr_start = false;
                    pending_move = None;
                }
                "unsafe" => {
                    // `unsafe { ... }` block expression.
                    match self.sig_at(s + 1, hi) {
                        Some(open) if self.text(open) == "{" => {
                            flush!();
                            let close = self.skip_balanced(open, hi);
                            let mut node = self.parse_block(open, close);
                            node.span.lo = s;
                            i = close;
                            current = Some(node);
                            expr_start = false;
                        }
                        _ => i = s + 1,
                    }
                }
                "move" => {
                    pending_move = Some(s);
                    i = s + 1;
                }
                "|" | "||" if expr_start || pending_move.is_some() => {
                    flush!();
                    let node = self.parse_closure(pending_move.unwrap_or(s), s, hi);
                    i = node.span.hi.max(s + 1);
                    current = Some(node);
                    expr_start = false;
                    pending_move = None;
                }
                "{" if expr_start => {
                    flush!();
                    let close = self.skip_balanced(s, hi);
                    current = Some(self.parse_block(s, close));
                    i = close;
                    expr_start = false;
                }
                "(" | "[" => {
                    let close = self.skip_balanced(s, hi);
                    let mut inner = Vec::new();
                    self.parse_expr_run(s + 1, close.saturating_sub(1), &mut inner);
                    if t == "(" && !expr_start {
                        // A call on a structured callee: `f()(x)`, or
                        // arguments right after a path were handled in the
                        // path arm — reaching here means `expr(...)`.
                        let prev = current.take();
                        let callee_span = prev.as_ref().map_or(Span::new(s, s), |p| p.span);
                        let mut children = Vec::new();
                        if let Some(p) = prev {
                            if !matches!(p.kind, ExprKind::Leaf) || !p.children.is_empty() {
                                children.push(p);
                            }
                        }
                        children.extend(inner);
                        current = Some(Expr {
                            kind: ExprKind::Call {
                                callee: callee_span,
                            },
                            span: Span::new(callee_span.lo.min(s), close),
                            children,
                        });
                    } else if !expr_start {
                        // Indexing `expr[...]`: extend the operand.
                        let prev = current.take();
                        let span_lo = prev.as_ref().map_or(s, |p| p.span.lo);
                        let mut children = Vec::new();
                        if let Some(p) = prev {
                            if !matches!(p.kind, ExprKind::Leaf) || !p.children.is_empty() {
                                children.push(p);
                            }
                        }
                        children.extend(inner);
                        current = Some(Expr {
                            kind: ExprKind::Leaf,
                            span: Span::new(span_lo, close),
                            children,
                        });
                    } else {
                        // Group `(a + b)` or array literal `[x; n]`.
                        current = Some(Expr {
                            kind: ExprKind::Leaf,
                            span: Span::new(s, close),
                            children: inner,
                        });
                    }
                    i = close;
                    expr_start = false;
                }
                "." => {
                    let (node, next) = self.parse_postfix_dot(current.take(), s, hi);
                    current = Some(node);
                    i = next;
                    expr_start = false;
                }
                "?" => {
                    if let Some(c) = &mut current {
                        c.span.hi = s + 1;
                    }
                    i = s + 1;
                    expr_start = false;
                }
                _ if self.kind(s) == TokKind::Ident && !is_expr_keyword(t) => {
                    flush!();
                    let (node, next, still_operand) = self.parse_path_operand(s, hi);
                    current = Some(node);
                    i = next;
                    expr_start = !still_operand;
                }
                _ => {
                    // Literals keep the operand position; operators reset
                    // to expression-start and flush the current operand.
                    let operand = matches!(
                        self.kind(s),
                        TokKind::Number
                            | TokKind::Str
                            | TokKind::RawStr
                            | TokKind::Char
                            | TokKind::Byte
                    );
                    if operand {
                        flush!();
                        current = Some(Expr {
                            kind: ExprKind::Leaf,
                            span: Span::new(s, s + 1),
                            children: Vec::new(),
                        });
                        expr_start = false;
                    } else {
                        flush!();
                        expr_start = true;
                    }
                    i = s + 1;
                }
            }
        }
        if let Some(node) = current.take() {
            if !matches!(node.kind, ExprKind::Leaf) || !node.children.is_empty() {
                out.push(node);
            }
        }
        hi
    }

    /// A path operand starting at identifier `s`: `a::b::<T>::c`, then
    /// optionally a call `(`, a macro `!`, or a struct literal `{`.
    /// Returns (node, next index, whether we are still in operand
    /// position).
    fn parse_path_operand(&mut self, s: usize, hi: usize) -> (Expr, usize, bool) {
        let mut j = s + 1;
        // Walk the path: `::` segments and turbofish.
        while let Some(p) = self.sig_at(j, hi) {
            if self.text(p) != "::" {
                break;
            }
            match self.sig_at(p + 1, hi) {
                Some(n) if self.kind(n) == TokKind::Ident => j = n + 1,
                Some(n) if self.text(n) == "<" => j = self.skip_generics(n, hi),
                _ => break,
            }
        }
        let path = Span::new(s, j);
        match self.sig_at(j, hi).map(|n| (n, self.text(n))) {
            Some((open, "(")) => {
                let close = self.skip_balanced(open, hi);
                let mut args = Vec::new();
                self.parse_expr_run(open + 1, close.saturating_sub(1), &mut args);
                (
                    Expr {
                        kind: ExprKind::Call { callee: path },
                        span: Span::new(s, close),
                        children: args,
                    },
                    close,
                    true,
                )
            }
            Some((bang, "!")) => {
                let end = match self.sig_at(bang + 1, hi) {
                    Some(open) if matches!(self.text(open), "(" | "[" | "{") => {
                        self.skip_balanced(open, hi)
                    }
                    _ => bang + 1,
                };
                (
                    Expr {
                        kind: ExprKind::Macro,
                        span: Span::new(s, end),
                        children: Vec::new(),
                    },
                    end,
                    true,
                )
            }
            Some((open, "{")) => {
                // Struct literal `Path { field: expr, .. }`.
                let close = self.skip_balanced(open, hi);
                let mut inner = Vec::new();
                self.parse_expr_run(open + 1, close.saturating_sub(1), &mut inner);
                (
                    Expr {
                        kind: ExprKind::Leaf,
                        span: Span::new(s, close),
                        children: inner,
                    },
                    close,
                    true,
                )
            }
            _ => (
                Expr {
                    kind: ExprKind::Leaf,
                    span: path,
                    children: Vec::new(),
                },
                j,
                true,
            ),
        }
    }

    /// `.name(args)` / `.name::<T>(args)` method call, or `.field` /
    /// `.0` access. `recv` is the operand parsed so far.
    fn parse_postfix_dot(&mut self, recv: Option<Expr>, dot: usize, hi: usize) -> (Expr, usize) {
        let recv = recv.unwrap_or(Expr {
            kind: ExprKind::Leaf,
            span: Span::new(dot, dot),
            children: Vec::new(),
        });
        let Some(name_tok) = self.sig_at(dot + 1, hi) else {
            let mut r = recv;
            r.span.hi = dot + 1;
            return (r, dot + 1);
        };
        if self.kind(name_tok) != TokKind::Ident {
            // Tuple index `.0` or `.await`-like: extend the operand.
            let mut r = recv;
            r.span.hi = name_tok + 1;
            return (r, name_tok + 1);
        }
        let mut j = name_tok + 1;
        // Turbofish on the method.
        if let Some(p) = self.sig_at(j, hi) {
            if self.text(p) == "::" {
                if let Some(n) = self.sig_at(p + 1, hi) {
                    if self.text(n) == "<" {
                        j = self.skip_generics(n, hi);
                    }
                }
            }
        }
        match self.sig_at(j, hi).map(|n| (n, self.text(n))) {
            Some((open, "(")) => {
                let close = self.skip_balanced(open, hi);
                let mut args = Vec::new();
                self.parse_expr_run(open + 1, close.saturating_sub(1), &mut args);
                let recv_lo = recv.span.lo.min(dot);
                let mut children = vec![recv];
                children.extend(args);
                (
                    Expr {
                        kind: ExprKind::MethodCall {
                            method: self.text(name_tok).to_string(),
                            method_tok: name_tok,
                            dot_tok: dot,
                        },
                        span: Span::new(recv_lo, close),
                        children,
                    },
                    close,
                )
            }
            _ => {
                // Field access: extend the receiver's span, keep children.
                let mut r = recv;
                r.span.hi = name_tok + 1;
                (r, name_tok + 1)
            }
        }
    }

    fn parse_if(&mut self, s: usize, hi: usize) -> Expr {
        let mut children = Vec::new();
        let mut j = s + 1;
        let mut end = s + 1;
        loop {
            // Condition (struct literals are illegal here, so the first
            // `{` at depth 0 opens the arm).
            let open = self.scan_depth0(j, hi, |t| t == "{");
            if open >= hi || self.text(open) != "{" {
                end = end.max(open.min(hi));
                break;
            }
            let mut cond = Vec::new();
            self.parse_expr_run(j, open, &mut cond);
            children.extend(cond);
            let close = self.skip_balanced(open, hi);
            children.push(self.parse_block(open, close));
            end = close;
            // `else` / `else if`.
            match self.sig_at(close, hi) {
                Some(e) if self.text(e) == "else" => match self.sig_at(e + 1, hi) {
                    Some(n) if self.text(n) == "if" => {
                        j = n + 1;
                    }
                    Some(n) if self.text(n) == "{" => {
                        let c2 = self.skip_balanced(n, hi);
                        children.push(self.parse_block(n, c2));
                        end = c2;
                        break;
                    }
                    _ => break,
                },
                _ => break,
            }
        }
        Expr {
            kind: ExprKind::If,
            span: Span::new(s, end),
            children,
        }
    }

    fn parse_match(&mut self, s: usize, hi: usize) -> Expr {
        let open = self.scan_depth0(s + 1, hi, |t| t == "{");
        if open >= hi || self.text(open) != "{" {
            return Expr {
                kind: ExprKind::Leaf,
                span: Span::new(s, open.min(hi)),
                children: Vec::new(),
            };
        }
        let mut children = Vec::new();
        let mut scrutinee = Vec::new();
        self.parse_expr_run(s + 1, open, &mut scrutinee);
        children.extend(scrutinee);
        let close = self.skip_balanced(open, hi);
        let body_hi = close.saturating_sub(1);
        // Arms: `pat => value`, value either a block or an expression up
        // to the next depth-0 comma. Patterns are never expression-parsed
        // (or-patterns would otherwise read as closures).
        let mut a = open + 1;
        while a < body_hi {
            let arrow = self.scan_depth0(a, body_hi, |t| t == "=>");
            if arrow >= body_hi || self.text(arrow) != "=>" {
                break;
            }
            let value_start = arrow + 1;
            match self.sig_at(value_start, body_hi) {
                Some(vs) if self.text(vs) == "{" => {
                    let vclose = self.skip_balanced(vs, body_hi);
                    children.push(self.parse_block(vs, vclose));
                    a = vclose;
                    if let Some(c) = self.sig_at(a, body_hi) {
                        if self.text(c) == "," {
                            a = c + 1;
                        }
                    }
                }
                Some(vs) => {
                    let comma = self.scan_depth0(vs, body_hi, |t| t == ",");
                    let mut value = Vec::new();
                    self.parse_expr_run(vs, comma, &mut value);
                    children.extend(value);
                    a = comma + 1;
                }
                None => break,
            }
        }
        Expr {
            kind: ExprKind::Match,
            span: Span::new(s, close),
            children,
        }
    }

    fn parse_for(&mut self, s: usize, hi: usize) -> Expr {
        let kw_in = self.scan_depth0(s + 1, hi, |t| t == "in");
        if kw_in >= hi || self.text(kw_in) != "in" {
            return Expr {
                kind: ExprKind::Leaf,
                span: Span::new(s, kw_in.min(hi).max(s + 1)),
                children: Vec::new(),
            };
        }
        let open = self.scan_depth0(kw_in + 1, hi, |t| t == "{");
        if open >= hi || self.text(open) != "{" {
            return Expr {
                kind: ExprKind::Leaf,
                span: Span::new(s, open.min(hi)),
                children: Vec::new(),
            };
        }
        let mut children = Vec::new();
        self.parse_expr_run(kw_in + 1, open, &mut children);
        let close = self.skip_balanced(open, hi);
        children.push(self.parse_block(open, close));
        Expr {
            kind: ExprKind::For,
            span: Span::new(s, close),
            children,
        }
    }

    fn parse_while(&mut self, s: usize, hi: usize) -> Expr {
        let open = self.scan_depth0(s + 1, hi, |t| t == "{");
        if open >= hi || self.text(open) != "{" {
            return Expr {
                kind: ExprKind::Leaf,
                span: Span::new(s, open.min(hi)),
                children: Vec::new(),
            };
        }
        let mut children = Vec::new();
        self.parse_expr_run(s + 1, open, &mut children);
        let close = self.skip_balanced(open, hi);
        children.push(self.parse_block(open, close));
        Expr {
            kind: ExprKind::While,
            span: Span::new(s, close),
            children,
        }
    }

    fn parse_loop(&mut self, s: usize, hi: usize) -> Expr {
        let open = self.scan_depth0(s + 1, hi, |t| t == "{");
        if open >= hi || self.text(open) != "{" {
            return Expr {
                kind: ExprKind::Leaf,
                span: Span::new(s, open.min(hi)),
                children: Vec::new(),
            };
        }
        let close = self.skip_balanced(open, hi);
        let children = vec![self.parse_block(open, close)];
        Expr {
            kind: ExprKind::Loop,
            span: Span::new(s, close),
            children,
        }
    }

    /// Parses `move? |params| body` with `bar` at the opening `|`/`||`
    /// and `start` at `move` when present.
    fn parse_closure(&mut self, start: usize, bar: usize, hi: usize) -> Expr {
        let params_end = if self.text(bar) == "||" {
            bar + 1
        } else {
            // Scan for the closing `|` at delimiter depth 0.
            let mut j = bar + 1;
            let mut depth = 0usize;
            let mut end = hi;
            while let Some(s) = self.sig_at(j, hi) {
                match self.text(s) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            end = s; // malformed: treat as params end
                            break;
                        }
                        depth -= 1;
                    }
                    "|" if depth == 0 => {
                        end = s + 1;
                        break;
                    }
                    _ => {}
                }
                j = s + 1;
            }
            end
        };
        // Body: a block, or an expression up to a depth-0 `,` (argument
        // position) or the end of the enclosing region.
        let mut children = Vec::new();
        let end = match self.sig_at(params_end, hi) {
            Some(vs) if self.text(vs) == "{" => {
                let close = self.skip_balanced(vs, hi);
                children.push(self.parse_block(vs, close));
                close
            }
            Some(vs) => {
                // Optional `-> Type` before a braced body.
                let stop = self.scan_depth0(vs, hi, |t| t == ",");
                let consumed = self.parse_expr_run(vs, stop, &mut children);
                consumed.min(stop).max(vs)
            }
            None => params_end,
        };
        Expr {
            kind: ExprKind::Closure,
            span: Span::new(start, end.min(hi).max(start + 1)),
            children,
        }
    }
}

/// Keywords that can appear in expression position but are not operands.
fn is_expr_keyword(t: &str) -> bool {
    matches!(
        t,
        "if" | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "let"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "as"
            | "in"
            | "mut"
            | "ref"
            | "unsafe"
            | "await"
            | "dyn"
            | "impl"
            | "where"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> (Vec<crate::lexer::Token<'_>>, File) {
        let toks = lex(src);
        let file = parse_file(&toks);
        (toks, file)
    }

    fn roundtrip(src: &str) -> File {
        let toks = lex(src);
        let file = parse_file(&toks);
        check_spans(&toks, &file).unwrap_or_else(|e| panic!("span invariant: {e}\nsrc: {src}"));
        assert_eq!(
            reconstruct(&toks, &file),
            src,
            "parse -> reconstruct must be byte-identical"
        );
        file
    }

    #[test]
    fn parses_fn_items_with_signatures() {
        let file = roundtrip(
            "pub(crate) fn add<T: Into<f32>>(a: T, b: f32) -> f32 where T: Copy { a.into() + b }",
        );
        let fns = file.fns();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "add");
        assert!(fns[0].body.is_some());
    }

    #[test]
    fn finds_fns_through_mods_impls_and_traits() {
        let src = r#"
mod outer {
    impl Foo {
        fn method(&self) {}
    }
    trait Bar {
        fn required(&self);
        fn with_default(&self) { let x = 1; }
    }
    mod inner {
        fn deep() {}
    }
}
fn top() {
    fn nested_helper() {}
}
"#;
        let file = roundtrip(src);
        let names: Vec<&str> = file.fns().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "method",
                "required",
                "with_default",
                "deep",
                "top",
                "nested_helper"
            ]
        );
        // The trait's bodiless declaration has no block.
        let required = file
            .fns()
            .into_iter()
            .find(|f| f.name == "required")
            .unwrap();
        assert!(required.body.is_none());
    }

    #[test]
    fn call_and_method_call_structure() {
        let src = "fn f() { foo(1, bar(2)); x.meth(3).chain(); Vec::<f32>::with_capacity(8); }";
        let (toks, file) = parse(src);
        check_spans(&toks, &file).unwrap();
        let mut calls = Vec::new();
        let mut methods = Vec::new();
        file.walk_exprs(&mut |e| match &e.kind {
            ExprKind::Call { callee } => {
                let text: String = toks[callee.lo..callee.hi]
                    .iter()
                    .filter(|t| !t.is_trivia())
                    .map(|t| t.text)
                    .collect();
                calls.push(text);
            }
            ExprKind::MethodCall { method, .. } => methods.push(method.clone()),
            _ => {}
        });
        assert_eq!(calls, vec!["foo", "bar", "Vec::<f32>::with_capacity"]);
        assert_eq!(methods, vec!["chain", "meth"]); // preorder: outer first
    }

    #[test]
    fn method_call_receiver_is_first_child() {
        let src = "fn f() { handle.join().unwrap(); }";
        let (toks, file) = parse(src);
        let mut joins = 0;
        file.walk_exprs(&mut |e| {
            if let ExprKind::MethodCall { method, .. } = &e.kind {
                if method == "join" {
                    joins += 1;
                    let recv = &e.children[0];
                    let text: String = toks[recv.span.lo..recv.span.hi]
                        .iter()
                        .map(|t| t.text)
                        .collect();
                    assert_eq!(text, "handle");
                }
            }
        });
        assert_eq!(joins, 1);
    }

    #[test]
    fn loops_carry_iter_nodes_then_the_body() {
        let src = "fn f(m: &M) { for (k, v) in m.iter() { touch(k); } }";
        let (_, file) = parse(src);
        let mut seen = false;
        file.walk_exprs(&mut |e| {
            if matches!(e.kind, ExprKind::For) {
                seen = true;
                assert!(matches!(e.children[0].kind, ExprKind::MethodCall { .. }));
                assert!(matches!(e.children.last().unwrap().kind, ExprKind::Block));
            }
        });
        assert!(seen);
        roundtrip(src);
    }

    #[test]
    fn closures_are_detected_in_expression_position_only() {
        let src = "fn f() { let c = |x: u32| x + 1; let o = a | b; it.map(move || 0); }";
        let (_, file) = parse(src);
        let mut closures = 0;
        file.walk_exprs(&mut |e| {
            if matches!(e.kind, ExprKind::Closure) {
                closures += 1;
            }
        });
        assert_eq!(closures, 2, "bit-or `a | b` must not read as a closure");
        roundtrip(src);
    }

    #[test]
    fn match_arm_or_patterns_do_not_become_closures() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    match x {
        Some(1) | Some(2) => spawnish(),
        Some(n) => n,
        None => 0,
    }
}
"#;
        let (_, file) = parse(src);
        let mut closures = 0;
        let mut calls = 0;
        file.walk_exprs(&mut |e| match e.kind {
            ExprKind::Closure => closures += 1,
            ExprKind::Call { .. } => calls += 1,
            _ => {}
        });
        assert_eq!(closures, 0);
        assert_eq!(calls, 1, "the arm value call is found");
        roundtrip(src);
    }

    #[test]
    fn let_bindings_expose_simple_names() {
        let src =
            "fn f() { let mut h = spawnish(); let (a, b) = pair(); let t: Foo<Item = T> = mk(); }";
        let (_, file) = parse(src);
        let mut names = Vec::new();
        file.walk_exprs(&mut |e| {
            if let ExprKind::Let { name, .. } = &e.kind {
                names.push(name.clone());
            }
        });
        assert_eq!(
            names,
            vec![Some("h".to_string()), None, Some("t".to_string())]
        );
        roundtrip(src);
    }

    #[test]
    fn macros_are_opaque() {
        let src = "fn f() { assert_eq!(vec![1, { 2 }], x); write!(out, \"{}\", v).ok(); }";
        let (_, file) = parse(src);
        let mut macros = 0;
        let mut blocks = 0;
        file.walk_exprs(&mut |e| match e.kind {
            ExprKind::Macro => macros += 1,
            ExprKind::Block => blocks += 1,
            _ => {}
        });
        assert_eq!(macros, 2, "`vec!` inside `assert_eq!` is not parsed");
        assert_eq!(blocks, 1, "macro-argument blocks stay unparsed");
        roundtrip(src);
    }

    #[test]
    fn struct_literals_and_verbatim_items_roundtrip() {
        roundtrip("struct S { a: u32 }\nenum E { A, B(u8) }\nuse std::collections::{HashMap, HashSet};\nstatic X: u8 = 0;\nconst Y: &str = \"s\";\ntype Z = Vec<u8>;");
        roundtrip("fn f() -> S { S { a: inner(), b: |x| x } }");
        roundtrip("macro_rules! m { ($x:expr) => { $x + 1 }; }");
        roundtrip("json_struct!(Foo { a, b });");
    }

    #[test]
    fn degenerate_inputs_never_panic_and_roundtrip() {
        for src in [
            "",
            "}",
            "{",
            "fn",
            "fn f(",
            "fn f() {",
            "impl {",
            "let x = ;",
            "fn f() { a..b; 0..=n; }",
            "fn f() { x as f32 + 1; }",
            "fn f() { #![allow(dead_code)] }",
            "#![forbid(unsafe_code)]\nfn f() {}",
            "fn f() { if let Some(x) = y { x } else { z } }",
            "fn f() { while let Some(i) = it.next() { go(i); } }",
            "fn f<'a>(x: &'a [u8]) -> &'a [u8] { &x[1..] }",
            "fn f() { r#match(); let r#type = 1; }",
            "fn f() { s.field.sub.leaf; t.0; u.0.1; }",
            "fn g() { (a)(b); v[i](c); }",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn if_else_chains_collect_all_blocks() {
        let src = "fn f(x: u32) { if x > 1 { a(); } else if x > 0 { b(); } else { c(); } }";
        let (_, file) = parse(src);
        let mut blocks = 0;
        file.walk_exprs(&mut |e| {
            if matches!(e.kind, ExprKind::If) {
                blocks = e
                    .children
                    .iter()
                    .filter(|c| matches!(c.kind, ExprKind::Block))
                    .count();
            }
        });
        assert_eq!(blocks, 3);
        roundtrip(src);
    }
}
