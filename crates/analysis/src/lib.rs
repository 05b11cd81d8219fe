//! `hot-path-alloc`: the one source-level contract of this workspace that clippy
//! cannot express.
//!
//! The other contracts — no fused multiply-add, environment reads only through
//! `mergesfl_nn::env`, no `HashMap`/`HashSet`, `unsafe` only in three audited files
//! behind SAFETY comments, and a reason on every lint exemption — are checked by
//! clippy and rustc from the root `clippy.toml` and `[workspace.lints]` (see
//! README.md, "Static analysis"); [`canaries`] keeps each `clippy.toml` entry live.
//!
//! This rule forbids allocation calls (`Vec::with_capacity`, `vec![]`, `.to_vec()`,
//! `Box::new`, `.collect()`) in the modules the zero-allocation gate covers
//! ([`SCOPE`]), unless a `// lint: allow(hot-path-alloc) <reason>` comment on or
//! directly above the site says why the site is not per-iteration. A hand-rolled
//! lexer ([`lexer`]) classifies every byte as code, comment or literal, so calls in
//! strings and comments never fire; `#[cfg(test)]` modules are exempt ([`engine`]).
//! `cargo test` runs it over the workspace (`tests/lint.rs`).

#![forbid(unsafe_code)]

#[cfg(test)]
mod canaries;
pub mod engine;
pub mod lexer;

use engine::{FileCtx, Violation};
use lexer::TokKind;
use std::path::Path;

/// The rule's id, as written in allow-markers.
pub const RULE: &str = "hot-path-alloc";

/// The modules the zero-allocation gate covers, relative to the workspace root: a
/// directory covers every `.rs` file under it. `tensor.rs` and `model.rs`
/// construction paths are deliberately not yet covered (tracked in ROADMAP.md).
pub const SCOPE: [&str; 4] = [
    "crates/nn/src/kernels",
    "crates/nn/src/layers",
    "crates/nn/src/pool.rs",
    "crates/core/src/sfl/merge.rs",
];

/// Lints one file: every unexcused allocation call outside `#[cfg(test)]` modules,
/// and every marker that does not name this rule or gives no reason (a typo would
/// otherwise silently excuse nothing).
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let ctx = FileCtx::new(src);
    let violation = |rule, line, message| Violation {
        rule,
        file: rel.to_string(),
        line,
        message,
    };
    let malformed = format!("malformed lint marker; expected `lint: allow({RULE}) <reason>`");
    let mut out: Vec<Violation> = ctx
        .markers
        .iter()
        .filter(|m| !m.well_formed)
        .map(|m| violation("lint-marker", m.line, malformed.clone()))
        .collect();
    let n = ctx.code.len();
    for k in 0..n {
        let t = ctx.code_tok(k);
        if t.kind != TokKind::Ident || ctx.in_tests(t.line) || ctx.allowed(t.line) {
            continue;
        }
        let what = match t.text.as_str() {
            "with_capacity" | "to_vec" | "collect" => t.text.as_str(),
            "vec" if k + 1 < n && ctx.code_tok(k + 1).is_punct('!') => "vec!",
            "Box"
                if k + 3 < n
                    && ctx.code_tok(k + 1).is_punct(':')
                    && ctx.code_tok(k + 2).is_punct(':')
                    && ctx.code_tok(k + 3).is_ident("new") =>
            {
                "Box::new"
            }
            _ => continue,
        };
        let message = format!(
            "`{what}` allocates inside a zero-alloc module; hoist the buffer to setup or \
             annotate with `lint: allow({RULE}) <reason>`"
        );
        out.push(violation(RULE, t.line, message));
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Lints every `.rs` file under the [`SCOPE`] prefixes of the workspace at `root`,
/// in sorted path order.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    let mut stack: Vec<_> = SCOPE.iter().map(|p| root.join(p)).collect();
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            let entries =
                std::fs::read_dir(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            stack.extend(entries.filter_map(|e| e.ok().map(|e| e.path())));
        } else if path.extension().is_some_and(|x| x == "rs") {
            files.push(path);
        } else if !path.exists() {
            return Err(format!("scope entry {} does not exist", path.display()));
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        out.extend(lint_source(&rel.replace('\\', "/"), &src));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::lint_source;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        lint_source("x.rs", src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn allocation_tokens_inside_strings_and_comments_never_fire() {
        let src = r#"
// mentions vec!, Box::new and collect() in prose
fn f() {
    let s = "vec![0; 4] and .to_vec()";
    let r = r"Box::new(with_capacity) collect";
    let _ = (s, r);
}
"#;
        assert!(rules_hit(src).is_empty());
    }

    #[test]
    fn every_allocation_call_fires() {
        for src in [
            "fn f() { let v = vec![0u8; 4]; }",
            "fn f() { let v = Vec::<u8>::with_capacity(4); }",
            "fn f(x: &[u8]) { let v = x.to_vec(); }",
            "fn f() { let b = Box::new(1); }",
            "fn f(x: &[u8]) { let v: Vec<u8> = x.iter().copied().collect(); }",
        ] {
            assert_eq!(rules_hit(src), ["hot-path-alloc"], "{src}");
        }
    }

    #[test]
    fn markers_excuse_and_malformed_markers_are_reported() {
        let ok = "// lint: allow(hot-path-alloc) one-time setup buffer\n\
                  fn f() { let v = vec![0u8; 4]; let _ = v; }\n";
        assert!(rules_hit(ok).is_empty());

        let unknown = "// lint: allow(hot-path-allocs) typo in rule name\n\
                       fn f() { let v = vec![0u8; 4]; let _ = v; }\n";
        assert_eq!(rules_hit(unknown), ["lint-marker", "hot-path-alloc"]);

        let no_reason = "// lint: allow(hot-path-alloc)\n\
                         fn f() { let v = vec![0u8; 4]; let _ = v; }\n";
        assert_eq!(rules_hit(no_reason), ["lint-marker", "hot-path-alloc"]);
    }

    #[test]
    fn test_modules_may_allocate() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   \u{20}   fn f() { let v = vec![0u8; 4]; let _ = v; }\n\
                   }\n";
        assert!(rules_hit(src).is_empty());
    }
}
