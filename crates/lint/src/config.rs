//! The committed `lint.toml` path configuration.
//!
//! Only the TOML subset the config actually needs is parsed: `# comments`,
//! `[section]` / `[section.sub-name]` headers, and (possibly multi-line)
//! `key = ["string", ...]` arrays. Anything else, an unknown rule id
//! included, is a hard error that names its line: a typo in the committed
//! scoping file must fail CI, not silently widen or narrow a rule.
//!
//! Semantics: a rule applies to a file iff its `include` list is empty or
//! some entry prefix-matches the workspace-relative path, AND no `exclude`
//! entry prefix-matches. `[files] exclude` drops files from the walk
//! entirely.

use std::collections::BTreeMap;

/// Path scoping for one rule. Entries are `/`-separated path prefixes
/// relative to the workspace root (`crates/tensor/src/ops/`, or a full
/// file path).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scope {
    pub include: Vec<String>,
    pub exclude: Vec<String>,
}

impl Scope {
    /// Does this scope select `path` (workspace-relative, `/`-separated)?
    pub fn selects(&self, path: &str) -> bool {
        let included =
            self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p.as_str()));
        included && !self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Files dropped from the walk entirely (`[files] exclude`).
    pub files_exclude: Vec<String>,
    /// Per-rule scope overrides (`[rules.<id>]` sections). A rule absent
    /// here keeps its built-in default scope.
    pub rules: BTreeMap<String, Scope>,
}

impl Config {
    /// Parses the `lint.toml` subset read from `file`; errors start with
    /// `file:<line>:`.
    pub fn parse(file: &str, text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // A `key = [` array may span lines; join until the `]`.
            while line.contains('=') && line.contains('[') && !line.contains(']') {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("{file}:{lineno}: unterminated `[...]` array"));
                };
                line.push(' ');
                line.push_str(strip_comment(cont).trim());
            }
            let line = line.as_str();
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if let Some(rule) = name.strip_prefix("rules.") {
                    if !crate::rules::is_known_rule(rule) {
                        return Err(format!(
                            "{file}:{lineno}: unknown rule `{rule}` (known: {})",
                            crate::rules::all_rules()
                                .iter()
                                .map(|r| r.id())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                } else if name != "files" {
                    return Err(format!(
                        "{file}:{lineno}: unknown section `[{name}]` (expected `[files]` or `[rules.<id>]`)"
                    ));
                }
                section = name.to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("{file}:{lineno}: expected `key = [...]`"));
            };
            let key = key.trim();
            let entries =
                parse_string_array(value.trim()).map_err(|e| format!("{file}:{lineno}: {e}"))?;
            match (section.as_str(), key) {
                ("files", "exclude") => cfg.files_exclude = entries,
                ("files", other) => {
                    return Err(format!(
                        "{file}:{lineno}: unknown key `{other}` in [files] (expected `exclude`)"
                    ));
                }
                (sec, "include" | "exclude") if sec.starts_with("rules.") => {
                    let rule = sec["rules.".len()..].to_string();
                    let scope = cfg.rules.entry(rule).or_default();
                    if key == "include" {
                        scope.include = entries;
                    } else {
                        scope.exclude = entries;
                    }
                }
                (_, other) => {
                    return Err(format!(
                        "{file}:{lineno}: unknown key `{other}` (expected `include`/`exclude` under a `[rules.<id>]` section)"
                    ));
                }
            }
        }
        Ok(cfg)
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `["a", "b"]` (single-line; trailing comma allowed).
fn parse_string_array(text: &str) -> Result<Vec<String>, String> {
    let inner = text
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| format!("expected a `[\"...\"]` array, got `{text}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let s = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| format!("expected a double-quoted string, got `{part}`"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = Config::parse(
            "lint.toml",
            r#"
# scoping for tdfm-lint
[files]
exclude = ["lint-fixtures/", "target/"]

[rules.sparsity-skip]
include = ["crates/tensor/src/ops/"]

[rules.nondeterministic-time]
exclude = ["crates/bench/",] # trailing comma + comment
"#,
        )
        .expect("config parses");
        assert_eq!(cfg.files_exclude, vec!["lint-fixtures/", "target/"]);
        assert_eq!(
            cfg.rules["sparsity-skip"].include,
            vec!["crates/tensor/src/ops/"]
        );
        assert_eq!(
            cfg.rules["nondeterministic-time"].exclude,
            vec!["crates/bench/"]
        );
    }

    #[test]
    fn scope_selection() {
        let scope = Scope {
            include: vec!["crates/tensor/src/ops/".to_string()],
            exclude: vec!["crates/tensor/src/ops/reduce.rs".to_string()],
        };
        assert!(scope.selects("crates/tensor/src/ops/gemm.rs"));
        assert!(!scope.selects("crates/tensor/src/ops/reduce.rs"));
        assert!(!scope.selects("crates/nn/src/trainer.rs"));
        assert!(Scope::default().selects("anything/at/all.rs"));
    }

    #[test]
    fn rejects_typos_loudly() {
        assert!(Config::parse("lint.toml", "[fils]\nexclude = []").is_err());
        assert!(Config::parse("lint.toml", "[files]\nexclud = []").is_err());
        assert!(Config::parse(
            "lint.toml",
            "[rules.sparsity-skip]\ninclude = \"not-an-array\""
        )
        .is_err());
        assert!(Config::parse("lint.toml", "[rules.sparsity-skip]\ninclude = [unquoted]").is_err());
        assert!(Config::parse("lint.toml", "loose = []").is_err());
    }

    #[test]
    fn unknown_rule_is_rejected_at_its_header() {
        let err = Config::parse(
            "lint.toml",
            "[files]\nexclude = []\n\n[rules.no-such-rule]\ninclude = []",
        )
        .expect_err("unknown rule id");
        assert!(
            err.starts_with("lint.toml:4: unknown rule `no-such-rule` (known: nan-laundering,"),
            "{err}"
        );
    }

    /// Byte deletions, insertions and duplicated runs applied to the
    /// committed `lint.toml` from a fixed seed: the parser never panics,
    /// and every rejection starts with `lint.toml:<line>:` for a line that
    /// exists in the mutated text.
    #[test]
    fn mutated_lint_toml_never_panics_and_every_error_names_a_line() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml");
        let base = std::fs::read(path).expect("committed lint.toml");
        assert!(Config::parse("lint.toml", std::str::from_utf8(&base).expect("UTF-8")).is_ok());
        // The bytes the format is made of, so mutations hit its syntax.
        const INSERTS: &[u8] = b"[]=\",# .\nrules-x";
        let mut state = 0x5EED_u64;
        let mut below = |n: usize| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut rejected = 0;
        for _ in 0..3000 {
            let mut bytes = base.clone();
            for _ in 0..1 + below(3) {
                let at = below(bytes.len());
                match below(3) {
                    0 => {
                        bytes.remove(at);
                    }
                    1 => bytes.insert(at, INSERTS[below(INSERTS.len())]),
                    _ => {
                        let end = (at + 1 + below(24)).min(bytes.len());
                        let run = bytes[at..end].to_vec();
                        bytes.splice(at..at, run);
                    }
                }
            }
            let text = String::from_utf8(bytes).expect("ASCII mutations of ASCII stay UTF-8");
            let Err(err) = Config::parse("lint.toml", &text) else {
                continue;
            };
            rejected += 1;
            let line = err
                .strip_prefix("lint.toml:")
                .and_then(|rest| rest.split_once(": "))
                .and_then(|(line, _)| line.parse::<usize>().ok());
            assert!(
                line.is_some_and(|l| (1..=text.lines().count()).contains(&l)),
                "error without a valid line: {err}\n--- input ---\n{text}"
            );
        }
        // Most of the file is comments, where a mutation changes nothing.
        assert!(rejected > 300, "only {rejected} of 3000 mutants rejected");
    }

    #[test]
    fn errors_name_the_file_read() {
        let err = Config::parse("other.toml", "[files]\nexclude = []\n[fils]")
            .expect_err("unknown section");
        assert!(
            err.starts_with("other.toml:3: unknown section `[fils]`"),
            "{err}"
        );
    }

    #[test]
    fn multi_line_arrays_join() {
        let cfg = Config::parse(
            "lint.toml",
            "[rules.hot-path-alloc]\ninclude = [\n    \"a.rs\", # first\n    \"b.rs\",\n]",
        )
        .expect("multi-line array parses");
        assert_eq!(cfg.rules["hot-path-alloc"].include, vec!["a.rs", "b.rs"]);
        assert!(Config::parse(
            "lint.toml",
            "[rules.hot-path-alloc]\ninclude = [\n\"a.rs\","
        )
        .is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("lint.toml", "[files]\nexclude = [\"a#b/\"]").expect("parses");
        assert_eq!(cfg.files_exclude, vec!["a#b/"]);
    }
}
