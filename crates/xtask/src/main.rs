//! Repo-specific developer tasks. The one that matters is the lint pass:
//!
//! ```text
//! cargo run -p xtask -- lint
//! ```
//!
//! A custom, text-level lint for the concurrency invariants the compiler
//! and clippy cannot see (wired into CI as the `xtask-lint` job). Exits
//! non-zero when any rule fires; each violation prints as
//! `file:line: [rule] message`. The rules, and the invariants they pin:
//!
//! 1. **raw-sync-primitives** — inside `crates/shm` and `crates/core`,
//!    non-test code must not name `std::sync::atomic` or `parking_lot`
//!    directly; everything goes through the `damaris_shm::sync` facade so
//!    that `--features check` can swap the model checker underneath the
//!    entire substrate. (Tests are exempt: they are compiled out under
//!    `check` and may use std types for harness bookkeeping.)
//! 2. **undocumented-unsafe** — every `unsafe` keyword carries a
//!    `// SAFETY:` comment on the same line or in the comment/attribute
//!    block immediately above its statement. Broader than clippy's
//!    `undocumented_unsafe_blocks` (which we also enable): this one
//!    covers `unsafe impl`/`unsafe fn` and test code too.
//! 3. **untagged-expect** — `unwrap()`/`expect(` in `crates/core`
//!    non-test code requires an `// invariant:` comment justifying why
//!    the failure is impossible (or why crashing is the right response).
//! 4. **untagged-seqcst** — `Ordering::SeqCst` in non-test code requires
//!    a `// seqcst:` comment justifying why acquire/release is not
//!    enough. The memory-ordering audit (DESIGN.md) showed every SeqCst
//!    in the hot paths was cargo-culted; new ones must argue their case.
//!    (`crates/check` is exempt: it *implements* ordering semantics.)
//! 5. **untagged-report-counter** — `pub ...: u64` fields inside the
//!    `struct NodeReport` region require a `metric:` doc tag naming the
//!    `damaris_obs::Registry` counter the field snapshots (or
//!    `metric: report-only (...)` for shutdown-derived values). Keeps
//!    NodeReport a *view* over the metrics registry rather than a second,
//!    diverging set of ad-hoc counters.
//! 6. **pointer-in-shm-struct** — fields of `#[repr(C)]` structs in
//!    `crates/shm`/`crates/core` must be plain words and offsets: these
//!    layouts can describe a file-backed mapping that lands at a
//!    different virtual address in every process, so raw pointers,
//!    references, owning containers (`Box`/`Vec`/`String`/`Arc`), and
//!    process-private sync/time types (`Mutex`, `Instant`) are banned
//!    unless an `// offset-only:` comment argues the representation.
//!    Handles and geometry belong in per-process mirror structs.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod lint;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("analyze") => run_analyze(),
        Some(other) => {
            eprintln!("unknown task `{other}`; available: lint, analyze");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- <lint|analyze>");
            ExitCode::FAILURE
        }
    }
}

/// The call-graph static analysis (hot-path purity, lock-order cycles,
/// atomic pairing — see `crates/analyze` and DESIGN.md §11). Hard CI
/// gate; writes the machine-readable report to
/// `target/analyze-report.json` either way.
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

fn run_lint() -> ExitCode {
    // The workspace root is two levels above this crate's manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for path in files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        scanned += 1;
        violations.extend(lint::lint_source(&rel, &src));
    }

    if violations.is_empty() {
        println!("xtask lint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!(
            "xtask lint: {} violation(s) in {scanned} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One lint finding, printed `file:line: [rule] message`.
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}
