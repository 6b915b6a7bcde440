//! Self-test on the `lint-fixtures/` corpus: every rule is pinned to the
//! exact (rule, line, column) diagnostics it produces on a deliberately
//! bad snippet. A rule that drifts (new false positive, lost detection,
//! moved anchor token) fails here before it ever reaches a `tdfm lint`
//! run on the real tree.
//!
//! The fixtures are excluded from real runs by the repo `lint.toml`; this
//! test re-includes them with an explicit in-memory config.

use std::collections::BTreeMap;
use std::path::PathBuf;

use tdfm_lint::rules::all_rules;
use tdfm_lint::{lint_source, Config, Scope};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../lint-fixtures")
}

/// A config that points every rule at the fixture corpus (overriding the
/// repo-tree default scopes, which deliberately do not cover it).
fn fixture_config() -> Config {
    let everywhere = Scope {
        include: vec!["lint-fixtures/".to_string()],
        exclude: vec![],
    };
    let rules: BTreeMap<String, Scope> = all_rules()
        .iter()
        .map(|r| (r.id().to_string(), everywhere.clone()))
        .collect();
    Config {
        files_exclude: vec![],
        rules,
    }
}

fn check(name: &str, expected: &[(&str, u32, u32)]) {
    let path = fixtures_dir().join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let rel = format!("lint-fixtures/{name}");
    let mut got: Vec<(String, u32, u32)> = lint_source(&rel, &src, &fixture_config())
        .into_iter()
        .map(|d| {
            assert_eq!(d.file, rel);
            assert!(!d.message.is_empty(), "{}: empty message", d.rule);
            assert!(!d.suggestion.is_empty(), "{}: empty suggestion", d.rule);
            (d.rule.to_string(), d.line, d.col)
        })
        .collect();
    got.sort();
    let mut want: Vec<(String, u32, u32)> = expected
        .iter()
        .map(|&(r, l, c)| (r.to_string(), l, c))
        .collect();
    want.sort();
    assert_eq!(got, want, "diagnostics for {name}");
}

#[test]
fn sparsity_skip_fixture_flags_the_historical_gemm_skip() {
    // The verbatim `if a_ip == 0.0 {{ continue; }}` from the seed GEMM.
    check("sparsity_skip.rs", &[("sparsity-skip", 7, 17)]);
}

#[test]
fn nan_laundering_fixture_flags_both_max_forms() {
    check(
        "nan_laundering.rs",
        &[("nan-laundering", 5, 6), ("nan-laundering", 9, 49)],
    );
}

#[test]
fn nan_laundering_null_fixture_flags_the_write_float_shape() {
    // The verbatim non-finite-to-null encode branch from the JSON writer.
    check("nan_laundering_null.rs", &[("nan-laundering", 6, 10)]);
}

#[test]
fn hot_path_alloc_fixture_flags_the_vec_constructor() {
    check("hot_path_alloc.rs", &[("hot-path-alloc", 5, 19)]);
}

#[test]
fn nondeterministic_time_fixture_flags_instant_now() {
    check(
        "nondeterministic_time.rs",
        &[("nondeterministic-time", 6, 24)],
    );
}

#[test]
fn partial_cmp_sort_fixture_flags_the_float_comparator() {
    // The suspect-ranking comparator shape detect.rs shipped before the
    // `total_cmp` fix (with the silently-misordering `unwrap_or` dodge).
    check("partial_cmp_sort.rs", &[("partial-cmp-sort", 6, 12)]);
}

#[test]
fn lock_held_across_call_fixture_flags_only_the_pre_drop_call() {
    // `build_span` runs under the guard and is flagged; `emit` runs after
    // the explicit `drop(guard)` and is not.
    check(
        "lock_held_across_call.rs",
        &[("lock-held-across-call", 6, 16)],
    );
}

#[test]
fn unordered_float_reduce_fixture_flags_the_hash_order_sum() {
    check(
        "unordered_float_reduce.rs",
        &[("unordered-float-reduce", 5, 20)],
    );
}

#[test]
fn reasonless_suppression_is_rejected_and_does_not_suppress() {
    check(
        "bad_suppression.rs",
        &[("bad-suppression", 5, 5), ("nan-laundering", 6, 6)],
    );
}

#[test]
fn stale_suppression_is_a_finding() {
    // Aimed at the line below the `max`: the finding stays and the comment
    // is reported as stale, like an unfulfilled `#[expect]`.
    check(
        "stale_suppression.rs",
        &[("nan-laundering", 5, 6), ("bad-suppression", 6, 5)],
    );
}

#[test]
fn repo_lint_toml_excludes_the_fixture_corpus() {
    let root = fixtures_dir().join("..").canonicalize().expect("repo root");
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("committed lint.toml");
    let config = Config::parse("lint.toml", &toml).expect("lint.toml parses");
    assert!(
        config.files_exclude.iter().any(|p| p == "lint-fixtures/"),
        "lint.toml must exclude lint-fixtures/ so `tdfm lint` stays green"
    );
}
