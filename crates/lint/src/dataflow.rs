//! Name-based dataflow helpers for the rules built on the parser.
//!
//! These are deliberately *name-based*, not SSA: a binding introduced by
//! `let m = ...` is tracked by name inside the same fn body. That is the
//! right precision for the rules built on top —
//!
//! * `lock-held-across-call` asks "is this call a method on the guard?",
//! * `unordered-float-reduce` asks "is this name hash-typed by
//!   construction?" —
//!
//! and both err on the quiet side: an ambiguous case is never a finding.

use std::collections::BTreeSet;

use crate::lexer::{TokKind, Token};
use crate::parser::{ExprKind, FnItem, Span};

/// First significant identifier inside `span`.
pub fn first_ident<'a>(tokens: &[Token<'a>], span: Span) -> Option<&'a str> {
    tokens[span.lo..span.hi.min(tokens.len())]
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text)
}

/// Names bound to `HashMap`/`HashSet` values in this fn, inferred from
/// parameter types (`m: &HashMap<..>`) and `let` statements whose span
/// mentions the type (`let m = HashMap::new()`, `let m: HashSet<_> =`).
pub fn hash_typed_names(tokens: &[Token<'_>], func: &FnItem) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    // Parameters: split on depth-0 commas; a param mentioning the type
    // binds its first identifier (skipping `mut`/`self` keywords).
    let mut depth = 0i32;
    let mut param_start = func.params.lo + 1;
    let mut i = param_start;
    let flush_param = |lo: usize, hi: usize, out: &mut BTreeSet<String>, tokens: &[Token<'_>]| {
        let toks = &tokens[lo..hi.min(tokens.len())];
        if toks.iter().any(|t| is_hash_type(t)) {
            if let Some(name) = toks
                .iter()
                .find(|t| t.kind == TokKind::Ident && !matches!(t.text, "mut" | "self"))
            {
                out.insert(name.text.to_string());
            }
        }
    };
    while i < func.params.hi.min(tokens.len()) {
        match tokens[i].text {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth <= 0 => {
                flush_param(param_start, i, &mut out, tokens);
                param_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    flush_param(
        param_start,
        func.params.hi.saturating_sub(1),
        &mut out,
        tokens,
    );
    // Lets: any binding whose statement mentions the type.
    if let Some(body) = &func.body {
        body.walk(&mut |e| {
            if let ExprKind::Let {
                name: Some(name), ..
            } = &e.kind
            {
                if tokens[e.span.lo..e.span.hi.min(tokens.len())]
                    .iter()
                    .any(is_hash_type)
                {
                    out.insert(name.clone());
                }
            }
        });
    }
    out
}

fn is_hash_type(t: &Token<'_>) -> bool {
    t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    /// Runs `check` with the sole fn in `src`.
    fn with_fn(src: &str, check: impl FnOnce(&[Token<'_>], &FnItem)) {
        let toks = lex(src);
        let file = parse_file(&toks);
        let fns = file.fns();
        check(&toks, fns.first().expect("one fn"));
    }

    #[test]
    fn hash_typed_names_from_params_and_lets() {
        with_fn(
            "fn f(counts: &HashMap<u32, f32>, xs: &[f32]) { let seen = HashSet::new(); let v: Vec<u32> = Vec::new(); }",
            |toks, func| {
                let names = hash_typed_names(toks, func);
                assert!(names.contains("counts"));
                assert!(names.contains("seen"));
                assert!(!names.contains("xs"));
                assert!(!names.contains("v"));
            },
        );
    }

    #[test]
    fn generic_params_do_not_split_hash_inference() {
        with_fn(
            "fn f(pair: (u8, u8), m: HashMap<K, V>) { }",
            |toks, func| {
                let names = hash_typed_names(toks, func);
                assert_eq!(
                    names.iter().cloned().collect::<Vec<_>>(),
                    vec!["m".to_string()]
                );
            },
        );
    }
}
