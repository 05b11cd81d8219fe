//! The knob table in `crates/nn/src/env.rs` is the one list of `MERGESFL_*` environment
//! variables. This test holds it to the code and to the docs: its rows are exactly the
//! names the program reads, and every name README.md or the CI workflow mentions has a
//! row, so a retired knob cannot linger in either.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn read(path: &Path) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(path)).unwrap()
}

/// Every `MERGESFL_*` name in `text`; with `quoted`, only names written as a whole string
/// literal (`"MERGESFL_X"`).
fn knob_names(text: &str, quoted: bool) -> BTreeSet<String> {
    let word = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_' || c == '"';
    text.split(|c| !word(c))
        .filter_map(|w| match quoted {
            true => w.strip_prefix('"')?.strip_suffix('"'),
            false => Some(w.trim_matches('"')),
        })
        .filter(|name| name.len() > "MERGESFL_".len() && name.starts_with("MERGESFL_"))
        .map(str::to_owned)
        .collect()
}

/// The names in the first column of the knob table in `env.rs`.
fn table_rows() -> BTreeSet<String> {
    read(Path::new("crates/nn/src/env.rs"))
        .lines()
        .filter_map(|line| line.strip_prefix("//! | `MERGESFL_"))
        .map(|rest| format!("MERGESFL_{}", rest.split('`').next().unwrap()))
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: PathBuf, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_knob_table_lists_exactly_the_names_the_program_reads() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(Path::new(env!("CARGO_MANIFEST_DIR")).join(dir), &mut files);
    }
    // Code outside each file's trailing `#[cfg(test)]` module; the analysis crate's
    // canaries are compile-only clippy fixtures that nothing runs.
    let read_by_the_program: BTreeSet<String> = files
        .iter()
        .filter(|path| !path.ends_with("crates/analysis/src/canaries.rs"))
        .map(|path| read(path))
        .flat_map(|source| knob_names(source.split("#[cfg(test)]").next().unwrap(), true))
        .collect();
    let rows = table_rows();
    let unread: Vec<_> = rows.difference(&read_by_the_program).collect();
    let undocumented: Vec<_> = read_by_the_program.difference(&rows).collect();
    assert!(
        unread.is_empty() && undocumented.is_empty(),
        "rows no code reads: {unread:?}; knobs read without a row: {undocumented:?}"
    );
}

#[test]
fn every_knob_the_docs_and_ci_name_has_a_table_row() {
    let rows = table_rows();
    for doc in ["README.md", ".github/workflows/ci.yml"] {
        let named = knob_names(&read(Path::new(doc)), false);
        let unknown: Vec<_> = named.difference(&rows).collect();
        assert!(
            unknown.is_empty(),
            "{doc} names knobs with no row: {unknown:?}"
        );
    }
}
