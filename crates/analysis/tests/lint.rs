//! Integration tests: the rule's fixture pair, and — the test that gives this crate
//! its teeth — the whole workspace, which runs under `cargo test --workspace`.

use mergesfl_analysis::{lint_source, lint_workspace, RULE};
use std::path::Path;

fn lint_fixture(kind: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/fixtures/hot_path_alloc/{kind}.rs"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    lint_source(kind, &src)
        .iter()
        .map(|v| v.to_string())
        .collect()
}

#[test]
fn violating_fixture_fires_on_every_site_and_clean_fixture_is_clean() {
    let violating = lint_fixture("violating");
    assert_eq!(violating.len(), 3, "{violating:#?}");
    assert!(violating.iter().all(|v| v.contains(RULE)), "{violating:#?}");
    let clean = lint_fixture("clean");
    assert!(clean.is_empty(), "{clean:#?}");
}

/// The zero-alloc modules carry no unexcused allocation call and no malformed marker.
#[test]
fn workspace_has_no_unmarked_hot_path_allocations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let violations = lint_workspace(root).unwrap();
    let rendered: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        violations.is_empty(),
        "hot-path-alloc violations:\n{}",
        rendered.join("\n")
    );
}
