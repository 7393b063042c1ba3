//! Repo-specific developer tasks; the one task is the source checker, a
//! hard CI gate:
//!
//! ```text
//! cargo run -p xtask -- analyze
//! ```
//!
//! It runs `damaris-analyze` over the workspace: the call-graph rules
//! (hot-path purity, lock order, atomic pairing; DESIGN.md §11) and the
//! comment-tag rules (`SAFETY:`, `invariant:`, `seqcst:`, `metric:`,
//! `offset-only:`; listed in `damaris_analyze::tags`). Exits non-zero when
//! any rule fires; each finding prints as `file:line: [rule] message`.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("analyze") => run_analyze(),
        Some(other) => {
            eprintln!("unknown task `{other}`; available: analyze");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- analyze");
            ExitCode::FAILURE
        }
    }
}

/// Writes the machine-readable report to `target/analyze-report.json`
/// either way.
fn run_analyze() -> ExitCode {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf();
    let report = match damaris_analyze::analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = root.join("target").join("analyze-report.json");
    if let Err(e) = std::fs::create_dir_all(root.join("target"))
        .and_then(|()| std::fs::write(&out, report.to_json()))
    {
        eprintln!("xtask analyze: could not write {}: {e}", out.display());
    }
    let waived: usize = report.waivers.iter().filter(|w| w.used).count();
    println!(
        "xtask analyze: {} files, {} fns, {} hot roots, {} waiver(s) in effect, \
         {} cold boundar(ies), {} unresolved call(s)",
        report.files_scanned,
        report.fns_indexed,
        report.hot_roots.len(),
        waived,
        report.cold_boundaries.len(),
        report.unresolved_calls
    );
    for c in &report.closures {
        println!(
            "  closure {}{}: {} fns, {} waived",
            c.root,
            if c.strict { " [strict]" } else { "" },
            c.fns,
            c.waived
        );
    }
    if report.is_clean() {
        println!("xtask analyze: clean (report: {})", out.display());
        ExitCode::SUCCESS
    } else {
        for line in report.render_findings() {
            eprintln!("{line}");
        }
        eprintln!("xtask analyze: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}
