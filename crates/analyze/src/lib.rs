//! damaris-analyze: dependency-free offline static analysis for the
//! hot-path discipline the paper's jitter-free claim rests on, and the
//! repo's one source checker.
//!
//! Driven by `cargo run -p xtask -- analyze`. The pipeline:
//!
//! ```text
//! split_lines (lexer) ─┬→ tags::check                      (every .rs file)
//!                      └→ tokenize → parse_file → run      (shipped code)
//! ```
//!
//! See DESIGN.md §11 for rule semantics, the annotation grammar, the
//! waiver policy, and the documented false-negative limits of the
//! call-graph approximation.

pub mod analysis;
pub mod lexer;
pub mod parser;
pub mod tags;

use std::path::Path;

pub use analysis::{ClosureReport, ColdBoundary, Finding, Report, WaiverRecord};
use lexer::split_lines;

/// Runs the call-graph rules over in-memory `(path, source)` pairs. Paths
/// should be repo-relative (`crates/<name>/src/...`) — crate scoping for
/// the lock-order and atomic-pairing rules is derived from them.
pub fn analyze_sources(sources: &[(String, String)]) -> Report {
    let parsed: Vec<(String, parser::ParsedFile)> = sources
        .iter()
        .map(|(f, s)| (f.clone(), parser::parse_file(f, split_lines(s))))
        .collect();
    analysis::run(&parsed)
}

/// Crates outside the production I/O path, excluded from the call-graph
/// rules: `check` *implements* the model-checked sync substrate (its
/// scheduler allocates, locks, and panics by design and is swapped in only
/// under `--features check`); `xtask` and `analyze` are dev tooling.
const NON_PRODUCTION_CRATES: &[&str] = &["check", "xtask", "analyze"];

/// Is `file` shipped code, `crates/<crate>/src/**`, of a production crate?
/// Fixture/test/bench trees are out of the call-graph rules' scope: they
/// audit shipped code, and the analyzer's own seeded-violation corpus must
/// not pollute the repo report.
fn shipped(file: &str) -> bool {
    let mut parts = file.split('/');
    parts.next() == Some("crates")
        && parts
            .next()
            .is_some_and(|c| !NON_PRODUCTION_CRATES.contains(&c))
        && parts.next() == Some("src")
}

/// Scans every `.rs` file under `<root>/crates` (build trees skipped): the
/// tag rules read them all, the call-graph rules the [`shipped`] ones.
pub fn analyze_root(root: &Path) -> std::io::Result<Report> {
    let mut sources = Vec::new();
    collect_rs(&root.join("crates"), root, &mut sources)?;
    sources.sort();
    let mut tagged = Vec::new();
    let mut parsed = Vec::new();
    for (file, src) in &sources {
        let lines = split_lines(src);
        tagged.extend(tags::check(file, &lines));
        if shipped(file) {
            parsed.push((file.clone(), parser::parse_file(file, lines)));
        }
    }
    let mut report = analysis::run(&parsed);
    report.files_scanned = sources.len();
    report.findings.extend(tagged);
    Ok(report)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for path in std::fs::read_dir(dir)?.flatten().map(|e| e.path()) {
        if path.is_dir() {
            if !path.ends_with("target") {
                collect_rs(&path, root, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_str_list(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", inner.join(","))
}

impl Report {
    /// Machine-readable report (schema `damaris-analyze/v1`), uploaded by
    /// the CI `static-analysis` job. Hand-rolled: this crate takes no
    /// dependencies so it can never be confused with the code it audits.
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"path\":{}}}",
                    esc(&f.rule),
                    esc(&f.file),
                    f.line,
                    esc(&f.message),
                    json_str_list(&f.path)
                )
            })
            .collect();
        let waivers: Vec<String> = self
            .waivers
            .iter()
            .map(|w| {
                format!(
                    "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"reason\":\"{}\",\"used\":{}}}",
                    esc(&w.rule),
                    esc(&w.file),
                    w.line,
                    esc(&w.reason),
                    w.used
                )
            })
            .collect();
        let closures: Vec<String> = self
            .closures
            .iter()
            .map(|c| {
                format!(
                    "{{\"root\":\"{}\",\"strict\":{},\"fns\":{},\"waived\":{}}}",
                    esc(&c.root),
                    c.strict,
                    c.fns,
                    c.waived
                )
            })
            .collect();
        let boundaries: Vec<String> = self
            .cold_boundaries
            .iter()
            .map(|b| {
                format!(
                    "{{\"fn\":\"{}\",\"reason\":\"{}\",\"reached_from\":\"{}\"}}",
                    esc(&b.qname),
                    esc(&b.reason),
                    esc(&b.reached_from)
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"damaris-analyze/v1\",\n  \"files_scanned\": {},\n  \
             \"fns_indexed\": {},\n  \"unresolved_calls\": {},\n  \"in_bounds_tags\": {},\n  \
             \"hot_roots\": {},\n  \"closures\": [{}],\n  \"cold_boundaries\": [{}],\n  \
             \"waivers\": [{}],\n  \"findings\": [{}]\n}}\n",
            self.files_scanned,
            self.fns_indexed,
            self.unresolved_calls,
            self.in_bounds_tags,
            json_str_list(&self.hot_roots),
            closures.join(","),
            boundaries.join(","),
            waivers.join(","),
            findings.join(",")
        )
    }

    /// Human-readable `file:line: [rule] message` lines, plus the hot call
    /// path when known.
    pub fn render_findings(&self) -> Vec<String> {
        self.findings
            .iter()
            .map(|f| {
                let via = if f.path.len() > 1 {
                    format!("  (via {})", f.path.join(" -> "))
                } else {
                    String::new()
                };
                format!("{}:{}: [{}] {}{via}", f.file, f.line, f.rule, f.message)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_enough() {
        let r = analyze_sources(&[(
            "crates/core/src/a.rs".to_string(),
            "// ANALYZE: hot\nfn f() { let b = Box::new(1); }\n".to_string(),
        )]);
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"damaris-analyze/v1\""));
        assert!(j.contains("\"rule\":\"hot-alloc\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn render_includes_path() {
        let r = analyze_sources(&[(
            "crates/core/src/a.rs".to_string(),
            "// ANALYZE: hot\nfn f() { g(); }\nfn g() { let b = Box::new(1); }\n".to_string(),
        )]);
        let lines = r.render_findings();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("[hot-alloc]"));
        assert!(lines[0].contains("(via f -> g)"));
    }
}
