//! Lossless-parsing guarantee, mirroring `lexer_roundtrip.rs` one layer
//! up: [`tdfm_lint::parser::parse_file`] must produce a tree whose spans
//! are well-nested (ordered, non-overlapping, contained in their parent)
//! and whose gap-walk reconstruction ([`tdfm_lint::parser::reconstruct`])
//! reproduces the input byte for byte.
//!
//! Three layers of evidence:
//!  1. every `.rs` file in this workspace round-trips (the property the
//!     rules and dataflow helpers stand on),
//!  2. hand-written nasty cases (struct literals vs blocks, closures vs
//!     bit-or, match or-patterns, nested items, macro soup),
//!  3. a deterministic xorshift fragment sweep assembling random
//!     "programs" from Rust-shaped fragments — the parser must never
//!     panic and never mis-span, even on garbage.

use std::path::{Path, PathBuf};

use tdfm_lint::lexer::lex;
use tdfm_lint::parser::{check_spans, parse_file, reconstruct};

fn roundtrip(src: &str, origin: &str) {
    let toks = lex(src);
    let file = parse_file(&toks);
    if let Err(e) = check_spans(&toks, &file) {
        panic!("span invariant violated for {origin}: {e}");
    }
    let rebuilt = reconstruct(&toks, &file);
    assert_eq!(
        rebuilt, src,
        "parse -> reconstruct must be byte-identical for {origin}"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The acceptance-criterion sweep: byte-identical reconstruction for every
/// `.rs` file in the workspace, fixtures included.
#[test]
fn every_workspace_rs_file_roundtrips() {
    let root = workspace_root();
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    files.sort();
    assert!(
        files.len() > 50,
        "workspace sweep found only {} files — wrong root?",
        files.len()
    );
    for path in &files {
        let src = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        roundtrip(&src, &path.display().to_string());
    }
}

#[test]
fn nasty_handwritten_cases_roundtrip() {
    let cases: &[&str] = &[
        "",
        "fn f() {}",
        // Struct literal vs block ambiguity in both positions.
        "fn f() -> S { S { a: 1, b: g() } }",
        "fn f() { if x { y() } }",
        "fn f() { match m { S { a } => a, _ => 0 } }",
        // Closures vs bit-or, with and without `move`.
        "fn f() { let c = |x| x | MASK; go(move |a, b| a | b); }",
        "fn f() { let or = x | y | z; }",
        // Nested items at every level.
        "mod a { mod b { impl T { fn deep() { fn deeper() {} } } } }",
        "fn outer() { use std::mem; struct Local; fn inner() {} const K: u8 = 0; }",
        // Macro soup: statement, expression, item position.
        "json_struct!(Foo { a, b });\nfn f() { assert_eq!(vec![1, 2], x); matches!(k, A | B); }",
        "macro_rules! m { ($($t:tt)*) => { $($t)* }; }",
        // Generics with shifts, const generics, lifetimes, where clauses.
        "fn shr<const N: usize>(x: [u8; N]) -> u32 { (1 << 3) >> 2 }",
        "fn wc<T>(t: T) -> T where T: Clone + Send + 'static { t }",
        "impl<'a, T: Iterator<Item = &'a u8>> Ext for T {}",
        // Trait with bodiless + default methods.
        "trait T { fn a(&self); fn b(&self) -> u8 { 0 } }",
        // Expression grab-bag: ranges, casts, try, await-shaped fields,
        // references, chained calls with turbofish.
        "fn f() { a..b; c..=d; x as f32 as u8; r?; s.0.1; &mut *p; }",
        "fn f() { it.collect::<Vec<_>>().len(); Vec::<f32>::new(); }",
        "fn f() { if let Some(v) = o { v } else { d } }",
        "fn f() { while let Some(x) = it.next() { use_(x); } }",
        "fn f() { 'outer: loop { break 'outer; } }",
        // Attribute and visibility soup.
        "#[derive(Debug, Clone)]\n#[cfg(test)]\npub(crate) struct S;",
        "#![allow(dead_code)]\n#[inline]\nfn hot() {}",
        // Unsafe expressions and fns.
        "unsafe fn danger() {}\nfn f() { unsafe { ptr.read() } }",
        // extern blocks and out-of-line mods.
        "extern \"C\" { fn c_fn(); }\nmod outline;",
        // Unbalanced / truncated input must degrade, not panic.
        "fn f() {",
        "fn f(",
        "}",
        "fn f() { let x = ; }",
        "impl {",
        "match {",
    ];
    for src in cases {
        roundtrip(src, "handwritten case");
    }
}

/// Deterministic xorshift64* — same seed every run, so a failure here is
/// reproducible by construction (no external proptest dependency).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn random_fragment_programs_roundtrip() {
    // Rust-shaped fragments chosen to abut into the parser's ambiguous
    // territory: `|` after idents and after `(`, `{` after paths, `move`
    // far from any closure, stray closers, match arms with guards.
    let fragments: &[&str] = &[
        " ",
        "\n",
        "fn f() {}",
        "fn ",
        "ident",
        "x.y",
        ".call()",
        "(1, 2)",
        "[0; 4]",
        "{ s(); }",
        "S { a: 1 }",
        "|x| x",
        "||",
        "|",
        "move ",
        "if c { a() }",
        "else { b() }",
        "match m { A | B => 0, _ => 1 }",
        "for i in 0..n { g(i); }",
        "while p() { h(); }",
        "loop { break; }",
        "let v = ",
        "let mut w: Vec<u8> = ",
        ";",
        ",",
        "=>",
        "::<f32>",
        "vec![1]",
        "assert!(k)",
        "use a::b;",
        "struct Q;",
        "impl Q { fn m(&self) {} }",
        "trait R { fn n(&self); }",
        "mod z {}",
        "#[inline]",
        "#![allow(x)]",
        "unsafe { u() }",
        "as f32",
        "?",
        "&mut ",
        "'a",
        "\"str\"",
        "0x1F",
        "1.5e-3",
        "{",
        "}",
        "(",
        ")",
    ];
    let mut rng = XorShift(0x5EED_5EED_0000_0002);
    for _ in 0..1500 {
        let len = 1 + rng.below(24);
        let mut src = String::new();
        for _ in 0..len {
            src.push_str(fragments[rng.below(fragments.len())]);
        }
        roundtrip(&src, "fragment sweep");
    }
}
