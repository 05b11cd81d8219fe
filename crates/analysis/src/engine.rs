//! Per-file context for the rule: the lexed token stream, the parsed allow-markers
//! and the line ranges of `#[cfg(test)] mod … { … }` bodies.
//!
//! The `hot-path-alloc` rule guards a *runtime* contract (zero steady-state
//! allocation), so sites inside test modules are exempt; the ranges below are how
//! the rule knows where those modules are.

use crate::lexer::{lex, Tok, TokKind};
use crate::RULE;

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// `hot-path-alloc` for an allocation site, `lint-marker` for a malformed marker.
    pub rule: &'static str,
    /// Path relative to the workspace root, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A comment opening with `lint:`. A well-formed marker, `lint: allow(hot-path-alloc)
/// <reason>`, excuses the rule on the comment's own lines and on the line immediately
/// after it, so both placements work: a comment line directly above the site, or a
/// trailing comment on the site's line. A reason too long for one line may continue
/// onto directly-following comment lines; the continuation extends the coverage.
#[derive(Clone, Debug)]
pub struct Marker {
    /// Names this rule and gives a non-empty reason.
    pub well_formed: bool,
    pub line: usize,
    pub end_line: usize,
}

/// Everything the rule needs to know about one file.
pub struct FileCtx {
    /// Full token stream, comments included.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    pub markers: Vec<Marker>,
    /// Line ranges (inclusive) covered by `#[cfg(test)] mod … { … }` bodies.
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileCtx {
    pub fn new(src: &str) -> Self {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokKind::Comment)
            .map(|(i, _)| i)
            .collect();
        let markers = parse_markers(&toks);
        let test_ranges = test_ranges(&toks, &code);
        FileCtx {
            toks,
            code,
            markers,
            test_ranges,
        }
    }

    /// The `i`-th code token (comments skipped).
    pub fn code_tok(&self, i: usize) -> &Tok {
        &self.toks[self.code[i]]
    }

    /// Whether `line` falls inside a `#[cfg(test)]` module body.
    pub fn in_tests(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// Whether a well-formed allow-marker covers `line`.
    pub fn allowed(&self, line: usize) -> bool {
        self.markers
            .iter()
            .any(|m| m.well_formed && (m.line..=m.end_line + 1).contains(&line))
    }
}

/// The comment's text with the opening `//`/`/*`/doc sigils stripped, if the comment
/// *opens* with `lint:` — prose that merely mentions the syntax mid-sentence is not
/// a marker.
fn marker_body(tok: &Tok) -> Option<&str> {
    let body = tok.text.trim_start_matches(['/', '*', '!']).trim_start();
    body.strip_prefix("lint:")
}

/// Extracts every `lint:` marker from the comment tokens. Markers are returned even
/// when malformed (another rule, no reason) so the rule can report them. Non-marker
/// comment lines that directly follow a marker comment are treated as the reason's
/// continuation and extend the marker's line coverage, so a multi-line explanation
/// still sits adjacent to the code it excuses.
fn parse_markers(toks: &[Tok]) -> Vec<Marker> {
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Comment {
            continue;
        }
        let Some(body) = marker_body(tok) else {
            continue;
        };
        let reason = body.trim_start().strip_prefix(&format!("allow({RULE})"));
        let well_formed =
            reason.is_some_and(|r| !r.trim().trim_end_matches("*/").trim().is_empty());
        // Absorb continuation comment lines (not themselves markers) that start on
        // the line right after the marker. Tokens are sequential, so if the *next*
        // token is such a comment, no code sits between the marker and it.
        let mut end_line = tok.end_line;
        for next in &toks[i + 1..] {
            if next.kind == TokKind::Comment
                && next.line == end_line + 1
                && marker_body(next).is_none()
            {
                end_line = next.end_line;
            } else {
                break;
            }
        }
        out.push(Marker {
            well_formed,
            line: tok.line,
            end_line,
        });
    }
    out
}

/// Line ranges of `#[cfg(test)] mod … { … }` bodies, found by token-pattern matching
/// plus brace counting. Additional attributes between `#[cfg(test)]` and `mod` are
/// tolerated; `#[cfg(test)]` on anything that is not a `mod` is ignored.
fn test_ranges(toks: &[Tok], code: &[usize]) -> Vec<(usize, usize)> {
    let at = |i: usize| -> Option<&Tok> { code.get(i).map(|&j| &toks[j]) };
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = at(i).is_some_and(|t| t.is_punct('#'))
            && at(i + 1).is_some_and(|t| t.is_punct('['))
            && at(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && at(i + 3).is_some_and(|t| t.is_punct('('))
            && at(i + 4).is_some_and(|t| t.is_ident("test"))
            && at(i + 5).is_some_and(|t| t.is_punct(')'))
            && at(i + 6).is_some_and(|t| t.is_punct(']'));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip further attributes (`#[…]`, brackets balanced).
        while at(j).is_some_and(|t| t.is_punct('#')) && at(j + 1).is_some_and(|t| t.is_punct('[')) {
            let mut depth = 0usize;
            j += 1;
            loop {
                match at(j) {
                    Some(t) if t.is_punct('[') => depth += 1,
                    Some(t) if t.is_punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    Some(_) => {}
                    None => break,
                }
                j += 1;
            }
        }
        let is_mod = at(j).is_some_and(|t| t.is_ident("mod"))
            || (at(j).is_some_and(|t| t.is_ident("pub"))
                && at(j + 1).is_some_and(|t| t.is_ident("mod")));
        if !is_mod {
            i += 1;
            continue;
        }
        // Find the opening brace of the module body (a `mod tests;` has none).
        let mut k = j;
        let mut open = None;
        while let Some(t) = at(k) {
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('{') {
                open = Some(k);
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let start_line = at(i).map(|t| t.line).unwrap_or(1);
        let mut depth = 0usize;
        let mut k = open;
        let mut end_line = start_line;
        while let Some(t) = at(k) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    end_line = t.end_line;
                    break;
                }
            }
            end_line = t.end_line;
            k += 1;
        }
        out.push((start_line, end_line));
        i = k + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_ranges_cover_cfg_test_modules_only() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \u{20}   fn helper() {}\n\
                   }\n\
                   fn also_real() {}\n";
        let ctx = FileCtx::new(src);
        assert_eq!(ctx.test_ranges, vec![(2, 5)]);
        assert!(!ctx.in_tests(1));
        assert!(ctx.in_tests(4));
        assert!(!ctx.in_tests(6));
    }

    #[test]
    fn test_ranges_tolerate_extra_attributes_and_nested_braces() {
        let src = "#[cfg(test)]\n\
                   #[allow(dead_code)]\n\
                   mod tests {\n\
                   \u{20}   fn f() { if true { let _ = '{'; } }\n\
                   }\n\
                   fn real() {}\n";
        let ctx = FileCtx::new(src);
        assert_eq!(ctx.test_ranges, vec![(1, 5)]);
        assert!(!ctx.in_tests(6));
    }

    #[test]
    fn cfg_test_on_a_fn_is_not_a_module_range() {
        let src = "#[cfg(test)]\nfn only_in_tests() {}\nfn real() {}\n";
        let ctx = FileCtx::new(src);
        assert!(ctx.test_ranges.is_empty());
    }

    #[test]
    fn markers_cover_own_and_next_line() {
        let src = "// lint: allow(hot-path-alloc) one-time setup buffer\n\
                   let v = vec![0; 4];\n\
                   let w = vec![0; 4]; // lint: allow(hot-path-alloc) same-line marker\n";
        let ctx = FileCtx::new(src);
        assert!(ctx.allowed(2));
        assert!(ctx.allowed(3));
        // A marker does not excuse lines beyond the one following it.
        assert!(!ctx.allowed(5));
    }

    #[test]
    fn marker_reason_may_continue_onto_following_comment_lines() {
        let src = "// lint: allow(hot-path-alloc) this reason is long enough that it\n\
                   // wraps onto a second comment line before the site\n\
                   let v = vec![0; 4];\n\
                   let w = vec![0; 4];\n";
        let ctx = FileCtx::new(src);
        assert!(ctx.allowed(3));
        // The continuation extends coverage, it does not widen it past one code line.
        assert!(!ctx.allowed(4));
        // A marker without a reason excuses nothing.
        let ctx = FileCtx::new("// lint: allow(hot-path-alloc)\nlet v = vec![0; 4];\n");
        assert!(!ctx.allowed(2));
        // A second marker is its own marker, not a continuation of the first.
        let src = "// lint: allow(hot-path-alloc) setup\n\
                   // lint: allow(other) scratch\n\
                   let v = vec![0; 4];\n";
        let ctx = FileCtx::new(src);
        assert!(ctx.allowed(2));
        assert!(!ctx.allowed(3));
    }
}
