//! Walks the workspace, prepares per-file analysis units (token stream,
//! AST, test regions, suppressions), collects the names of every workspace
//! fn, runs every rule on its scope-selected files, and applies the
//! inline-suppression and test-code filters to every diagnostic.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{lex, TokKind, Token};
use crate::parser::{parse_file, File};
use crate::rules::all_rules;

/// Everything a rule gets to look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    pub tokens: &'a [Token<'a>],
    /// The parsed (lossless) syntax tree over `tokens`.
    pub ast: &'a File,
    /// The name of every fn defined anywhere in the linted workspace.
    pub workspace_fns: &'a BTreeSet<&'a str>,
}

impl FileCtx<'_> {
    /// Indices (into `self.tokens`) of non-trivia tokens — the stream the
    /// pattern matchers walk.
    pub fn significant(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| !self.tokens[i].is_trivia())
            .collect()
    }

    /// True if the line holding `tokens[idx]` mentions a float type or a
    /// float literal — the "is this a float expression?" heuristic used by
    /// nan-laundering.
    pub fn line_has_float_marker(&self, idx: usize) -> bool {
        let line = self.tokens[idx].line;
        self.tokens
            .iter()
            .filter(|t| t.line == line && !t.is_trivia())
            .any(|t| {
                t.is_float_literal()
                    || (t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
            })
    }

    /// True if the line holding `tokens[idx]` calls `is_nan` — an explicit
    /// NaN guard on the same line exempts a `.max(`/`.min(` from
    /// nan-laundering (the author has visibly handled propagation).
    pub fn line_has_nan_guard(&self, idx: usize) -> bool {
        let line = self.tokens[idx].line;
        self.tokens
            .iter()
            .filter(|t| t.line == line)
            .any(|t| t.kind == TokKind::Ident && t.text == "is_nan")
    }

    /// Builds a diagnostic anchored at `tokens[idx]`.
    pub fn diag(
        &self,
        idx: usize,
        rule: &'static str,
        message: impl Into<String>,
        suggestion: impl Into<String>,
    ) -> Diagnostic {
        let t = &self.tokens[idx];
        Diagnostic {
            file: self.path.to_string(),
            line: t.line,
            col: t.col,
            rule,
            message: message.into(),
            suggestion: suggestion.into(),
        }
    }
}

/// One fully-analysed file: source, tokens, AST, and the engine-level
/// metadata (test regions, suppressions) the filters need.
struct FileUnit<'a> {
    path: &'a str,
    tokens: Vec<Token<'a>>,
    ast: File,
    test_regions: Vec<(usize, usize)>,
    is_test_file: bool,
    suppressions: Vec<Suppression>,
    bad: Vec<Diagnostic>,
}

impl<'a> FileUnit<'a> {
    fn build(path: &'a str, src: &'a str) -> FileUnit<'a> {
        let tokens = lex(src);
        let ast = parse_file(&tokens);
        let regions = test_regions(&tokens);
        let mut bad = Vec::new();
        let suppressions = parse_suppressions(&tokens, path, &mut bad);
        FileUnit {
            path,
            tokens,
            ast,
            test_regions: regions,
            is_test_file: is_test_path(path),
            suppressions,
            bad,
        }
    }

    /// The borrowed view rules receive.
    fn ctx(&'a self, workspace_fns: &'a BTreeSet<&'a str>) -> FileCtx<'a> {
        FileCtx {
            path: self.path,
            tokens: &self.tokens,
            ast: &self.ast,
            workspace_fns,
        }
    }

    /// Is the byte at `offset` inside test code?
    fn in_test_code(&self, offset: usize) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| offset >= s && offset < e)
    }
}

/// One parsed `// tdfm-lint: allow(rule, reason)` comment (the reason is
/// checked at parse time; a reasonless comment never becomes one).
#[derive(Debug)]
struct Suppression {
    rule: String,
    /// The source line the suppression applies to: its own line for a
    /// trailing comment, the next line for a standalone comment line.
    target_line: u32,
    /// Where the comment itself sits, for the stale-suppression finding.
    line: u32,
    col: u32,
}

const SUPPRESSION_PREFIX: &str = "tdfm-lint:";

/// Extracts suppressions from the token stream. A comment whose only line
/// content is the suppression applies to the next line; a trailing comment
/// applies to its own line.
fn parse_suppressions(
    tokens: &[Token<'_>],
    path: &str,
    bad: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix(SUPPRESSION_PREFIX) else {
            continue;
        };
        let standalone = tokens[..i]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .all(|p| p.kind == TokKind::Whitespace);
        let target_line = if standalone { t.line + 1 } else { t.line };
        let mut push_bad = |message: String| {
            bad.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                col: t.col,
                rule: "bad-suppression",
                message,
                suggestion:
                    "write `// tdfm-lint: allow(<rule-id>, <reason>)` — the reason is mandatory"
                        .to_string(),
            });
        };
        let rest = rest.trim();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|a| a.strip_suffix(')'))
        else {
            push_bad(format!("malformed suppression `{body}`"));
            continue;
        };
        let (rule, reason) = match args.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (args.trim(), ""),
        };
        if !crate::rules::is_known_rule(rule) {
            push_bad(format!("suppression names unknown rule `{rule}`"));
            continue;
        }
        if reason.is_empty() {
            push_bad(format!("suppression of `{rule}` is missing its reason"));
            continue;
        }
        out.push(Suppression {
            rule: rule.to_string(),
            target_line,
            line: t.line,
            col: t.col,
        });
    }
    out
}

/// Finds byte ranges of `#[cfg(test)]` items: the attribute plus the
/// braced item that follows it (further attributes in between are fine).
fn test_regions(tokens: &[Token<'_>]) -> Vec<(usize, usize)> {
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_trivia())
        .collect();
    let mut out = Vec::new();
    let mut s = 0;
    while s < sig.len() {
        if !is_cfg_test_attr(tokens, &sig, s) {
            s += 1;
            continue;
        }
        let attr_start = tokens[sig[s]].start;
        // Skip to the end of this attribute (`]`), then past any further
        // attributes, then brace-match the item body.
        let mut j = match skip_attr(tokens, &sig, s) {
            Some(j) => j,
            None => break,
        };
        while j < sig.len() && tokens[sig[j]].text == "#" {
            j = match skip_attr(tokens, &sig, j) {
                Some(n) => n,
                None => break,
            };
        }
        // Find the item's opening brace, stopping at `;` (e.g. `mod x;`).
        let mut open = None;
        while j < sig.len() {
            match tokens[sig[j]].text {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            s += 1;
            continue;
        };
        let mut depth = 0usize;
        let mut k = open;
        let mut end = tokens[sig[open]].end();
        while k < sig.len() {
            match tokens[sig[k]].text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = tokens[sig[k]].end();
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if depth > 0 {
            end = tokens.last().map_or(end, |t| t.end()); // unbalanced: to EOF
        }
        out.push((attr_start, end));
        s = k.max(s + 1);
    }
    out
}

/// Is `sig[s]` the start of exactly `#[cfg(test)]`?
fn is_cfg_test_attr(tokens: &[Token<'_>], sig: &[usize], s: usize) -> bool {
    let texts: Vec<&str> = sig[s..].iter().take(6).map(|&i| tokens[i].text).collect();
    texts == ["#", "[", "cfg", "(", "test", ")"]
}

/// Given `sig[s]` == `#`, returns the significant index one past the
/// closing `]` of the attribute.
fn skip_attr(tokens: &[Token<'_>], sig: &[usize], s: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (off, &i) in sig[s..].iter().enumerate() {
        match tokens[i].text {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(s + off + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whole-file test/bench/example classification by path.
fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
        || path.ends_with("_test.rs")
}

/// The result of a lint run.
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_checked: usize,
}

/// Lints a set of files as one workspace: each rule runs on the files its
/// scope selects, and the suppression/test-code filters apply to every
/// diagnostic based on the file it landed in. A suppression that silences
/// nothing is itself a `bad-suppression` finding, like an unfulfilled
/// `#[expect]`. `files` are `(workspace-relative path, source)` pairs.
pub fn lint_files(files: &[(String, String)], config: &Config) -> Vec<Diagnostic> {
    let units: Vec<FileUnit<'_>> = files
        .iter()
        .map(|(path, src)| FileUnit::build(path, src))
        .collect();
    let workspace_fns: BTreeSet<&str> = units
        .iter()
        .flat_map(|u| u.ast.fns())
        .map(|f| f.name.as_str())
        .collect();

    let mut raw: Vec<(bool, Diagnostic)> = Vec::new(); // (applies_in_tests, diag)
    for rule in all_rules() {
        let scope = config
            .rules
            .get(rule.id())
            .cloned()
            .unwrap_or_else(|| rule.default_scope());
        let mut found = Vec::new();
        for unit in &units {
            if scope.selects(unit.path) {
                rule.check(&unit.ctx(&workspace_fns), &mut found);
            }
        }
        raw.extend(found.into_iter().map(|d| (rule.applies_in_tests(), d)));
    }

    // fulfilled[u][s]: suppression `s` of unit `u` silenced a finding.
    let mut fulfilled: Vec<Vec<bool>> = units
        .iter()
        .map(|u| vec![false; u.suppressions.len()])
        .collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (in_tests, d) in raw {
        let Some(u) = units.iter().position(|u| u.path == d.file) else {
            diags.push(d); // foreign path: keep verbatim
            continue;
        };
        let unit = &units[u];
        if !in_tests && unit.in_test_code(byte_of(&unit.tokens, d.line, d.col)) {
            continue;
        }
        match unit
            .suppressions
            .iter()
            .position(|s| s.rule == d.rule && s.target_line == d.line)
        {
            Some(s) => fulfilled[u][s] = true,
            None => diags.push(d),
        }
    }
    for (unit, used) in units.iter().zip(&fulfilled) {
        diags.extend(unit.bad.iter().cloned());
        for (s, _) in unit.suppressions.iter().zip(used).filter(|(_, &u)| !u) {
            diags.push(Diagnostic {
                file: unit.path.to_string(),
                line: s.line,
                col: s.col,
                rule: "bad-suppression",
                message: format!(
                    "stale suppression: no `{}` finding on line {}",
                    s.rule, s.target_line
                ),
                suggestion: "delete the comment, or move it onto the line it is meant for"
                    .to_string(),
            });
        }
    }
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    diags.dedup_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule) == (b.file.as_str(), b.line, b.col, b.rule)
    });
    diags
}

/// Lints one file's source text. `path` must be workspace-relative with
/// `/` separators. (Single-element [`lint_files`]: the file is the whole
/// workspace.)
pub fn lint_source(path: &str, src: &str, config: &Config) -> Vec<Diagnostic> {
    lint_files(&[(path.to_string(), src.to_string())], config)
}

/// Maps a (line, col) back to a byte offset via the token stream.
fn byte_of(tokens: &[Token<'_>], line: u32, col: u32) -> usize {
    tokens
        .iter()
        .find(|t| t.line == line && t.col == col)
        .map_or(0, |t| t.start)
}

/// Recursively collects workspace `.rs` files (sorted, relative paths).
fn collect_files(root: &Path, config: &Config) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                if config
                    .files_exclude
                    .iter()
                    .any(|p| rel_path(root, &path).starts_with(p.trim_end_matches('/')))
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = rel_path(root, &path);
                if !config
                    .files_exclude
                    .iter()
                    .any(|p| rel.starts_with(p.as_str()))
                {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints every workspace `.rs` file under `root` as one unit (the fn
/// names `lock-held-across-call` looks up span all of them).
pub fn lint_workspace(root: &Path, config: &Config) -> Result<LintReport, String> {
    let paths = collect_files(root, config)?;
    let mut files = Vec::with_capacity(paths.len());
    for file in &paths {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        files.push((rel_path(root, file), src));
    }
    Ok(LintReport {
        diagnostics: lint_files(&files, config),
        files_checked: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src, &Config::default())
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = r#"
fn lib() { let x: f32 = y.max(0.0); }

#[cfg(test)]
mod tests {
    fn t() { let x: f32 = y.max(0.0); }
}
"#;
        let diags = lint_str("crates/tensor/src/ops/fake.rs", src);
        let nan: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "nan-laundering")
            .collect();
        assert_eq!(nan.len(), 1, "{diags:?}");
        assert_eq!(nan[0].line, 2);
    }

    /// A NaN-laundering `max` and the kernel path nan-laundering covers.
    const RELU: &str = "let x: f32 = y.max(0.0);";
    const KERNEL: &str = "crates/tensor/src/ops/x.rs";

    #[test]
    fn test_files_are_exempt_by_path() {
        let src = format!("fn t() {{ {RELU} }}");
        assert!(lint_str("crates/tensor/src/ops/tests/x.rs", &src).is_empty());
        assert!(!lint_str(KERNEL, &src).is_empty());
    }

    #[test]
    fn trailing_suppression_with_reason_silences_its_line() {
        let src = format!(
            "fn f() {{ {RELU} // tdfm-lint: allow(nan-laundering, NaN checked by caller)\n}}"
        );
        assert!(lint_str(KERNEL, &src).is_empty());
    }

    #[test]
    fn standalone_suppression_applies_to_next_line() {
        let src = format!(
            "fn f() {{\n    // tdfm-lint: allow(nan-laundering, NaN checked above)\n    {RELU}\n}}"
        );
        assert!(lint_str(KERNEL, &src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_itself_a_finding() {
        let src = format!("fn f() {{ {RELU} // tdfm-lint: allow(nan-laundering)\n}}");
        let diags = lint_str(KERNEL, &src);
        assert!(
            diags.iter().any(|d| d.rule == "bad-suppression"),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.rule == "nan-laundering"),
            "reasonless suppression must not suppress"
        );
    }

    #[test]
    fn suppression_of_unknown_rule_is_flagged() {
        let src = "// tdfm-lint: allow(no-such-rule, because)\nfn f() {}";
        let diags = lint_str("crates/nn/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "bad-suppression");
    }
}
