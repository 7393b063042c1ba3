//! The lint pass proper: a line-oriented scanner with just enough Rust
//! lexing (line/block comments, string and raw-string literals, brace
//! depth) to tell code from prose, plus `#[cfg(test)]`-region tracking so
//! test-only exemptions work. Deliberately text-level — the rules gate
//! *comments* (SAFETY/invariant/seqcst justifications), which no AST
//!-level tool sees, and a dependency-free scanner keeps the task offline.

use crate::Violation;

/// Lexer state carried across lines.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    /// Inside `/* ... */`, tracking nesting depth.
    BlockComment(u32),
    /// Inside a raw string literal, remembering its `#` count.
    RawStr(u32),
}

/// Strips comments and literal contents from one line, continuing from
/// `mode`. Returns the code-only text (literals hollowed out, comments
/// removed) and the state to carry into the next line.
fn strip_line(raw: &str, mut mode: Mode) -> (String, Mode) {
    let b = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    while i < b.len() {
        match mode {
            Mode::BlockComment(depth) => {
                if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                // Closes on `"` followed by exactly `hashes` `#`s.
                if b[i] == b'"' {
                    let mut n = 0usize;
                    while i + 1 + n < b.len() && b[i + 1 + n] == b'#' && (n as u32) < hashes {
                        n += 1;
                    }
                    if n as u32 == hashes {
                        mode = Mode::Code;
                        i += 1 + n;
                        continue;
                    }
                }
                i += 1;
            }
            Mode::Code => match b[i] {
                b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break, // line comment
                b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                    mode = Mode::BlockComment(1);
                    i += 2;
                }
                b'r' if i + 1 < b.len()
                    && (b[i + 1] == b'"' || b[i + 1] == b'#')
                    && !prev_is_ident(b, i) =>
                {
                    let mut hashes = 0u32;
                    let mut j = i + 1;
                    while j < b.len() && b[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < b.len() && b[j] == b'"' {
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    } else {
                        out.push('r');
                        i += 1;
                    }
                }
                b'"' => {
                    // Plain string: skip to the closing quote (escape-aware).
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'"' {
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                }
                b'\'' => {
                    // Char literal or lifetime. `'x'` / `'\n'` are consumed;
                    // a lifetime keeps just the quote dropped.
                    if i + 2 < b.len() && b[i + 1] == b'\\' {
                        let mut j = i + 2;
                        while j < b.len() && b[j] != b'\'' {
                            j += 1;
                        }
                        i = j + 1;
                    } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                        i += 3;
                    } else {
                        i += 1; // lifetime tick
                    }
                }
                c => {
                    out.push(c as char);
                    i += 1;
                }
            },
        }
    }
    // A line comment never carries past the newline.
    (out, mode)
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Is a justification tag (`SAFETY:` / `invariant:` / `seqcst:`) present
/// on the flagged line itself or in the contiguous comment/attribute
/// block immediately above it? Walking the adjacent block (instead of a
/// fixed window) lets justifications run as long as they need to while
/// still rejecting tags separated from the code they excuse.
fn tag_above(lines: &[String], idx: usize, needle: &str) -> bool {
    if lines[idx].contains(needle) {
        return true;
    }
    for line in lines[..idx].iter().rev() {
        let t = line.trim();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![") {
            if line.contains(needle) {
                return true;
            }
        } else if t.is_empty() || t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
            // A blank line or a completed statement ends the adjacent
            // block: tags further up excuse someone else's code.
            break;
        }
        // Otherwise this is a continuation of the flagged statement
        // (e.g. `let value =` split across lines) — keep walking.
    }
    false
}

/// Does `code` contain `word` bounded by non-identifier characters?
fn contains_word(code: &str, word: &str) -> bool {
    let b = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let end = at + word.len();
        let after_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Lints one file's source. `file` is the workspace-relative path (with
/// forward slashes); it selects which rules apply.
pub fn lint_source(file: &str, src: &str) -> Vec<Violation> {
    let in_shm_or_core = file.starts_with("crates/shm/src") || file.starts_with("crates/core/src");
    let is_facade = file == "crates/shm/src/sync.rs";
    // The untagged-expect gate covers the crates whose panics take down
    // supervised threads: core (the dedicated-core server), mpi (the rank
    // substrate, where an unwrap kills a "rank"), shm (the lease /
    // allocator layer both sides of the boundary call into), obs (the
    // recorder rides inside every client write call — a panic there *is*
    // a client crash), query (the read tier serves arbitrary reader
    // threads while the EPE writes — a panic there kills an analysis
    // consumer mid-run), and chaos (the harness adjudicates node
    // correctness — a panic in the runner reads as a node failure and
    // poisons every seed's verdict).
    let in_core_src = file.starts_with("crates/core/src")
        || file.starts_with("crates/mpi/src")
        || file.starts_with("crates/shm/src")
        || file.starts_with("crates/obs/src")
        || file.starts_with("crates/query/src")
        || file.starts_with("crates/chaos/src");
    let in_check = file.starts_with("crates/check/");
    let in_xtask = file.starts_with("crates/xtask/");
    // Integration tests, benches, and examples are test code wholesale.
    let test_file =
        file.contains("/tests/") || file.contains("/benches/") || file.contains("/examples/");

    let mut out = Vec::new();
    let mut mode = Mode::Code;
    // Brace depth and the depths at which `#[cfg(test)]` regions began.
    let mut depth: i64 = 0;
    let mut test_regions: Vec<i64> = Vec::new();
    let mut pending_test_attr = false;
    // The `struct NodeReport { ... }` brace region: counter fields added
    // there must carry a `metric:` tag naming their registry counter.
    let mut pending_report_struct = false;
    let mut report_region: Option<i64> = None;
    // `#[repr(C)]` struct regions in the substrate: these describe bytes
    // that may live in a file-backed mapping shared across processes, so
    // nothing address-bearing or process-private may be a field.
    let mut pending_repr_c = false;
    let mut repr_c_region: Option<i64> = None;
    let raw_lines: Vec<String> = src.lines().map(str::to_string).collect();

    for (idx, raw) in raw_lines.iter().enumerate() {
        let line_no = idx + 1;
        let (code, next_mode) = strip_line(raw, mode);
        let started_in_code = mode == Mode::Code;
        mode = next_mode;

        if !started_in_code {
            continue; // whole line opened inside a comment/raw string
        }

        if code.contains("cfg(test") || code.contains("cfg(all(test") {
            pending_test_attr = true;
        }
        if code.contains("struct NodeReport") {
            pending_report_struct = true;
        }
        // `repr(C)` and `repr(C, align…)` arm the offset-only gate for
        // the next struct block; `repr(transparent)` wrappers do not
        // (they are facade views, not mapped layouts).
        if in_shm_or_core && code.contains("repr(C") {
            pending_repr_c = true;
        }
        let in_test = test_file || !test_regions.is_empty();
        let tag = |needle: &str| tag_above(&raw_lines, idx, needle);

        // Rules look at the line *before* its braces move the depth, so a
        // `#[cfg(test)] mod t { ... }` one-liner is already exempt (the
        // attr check above ran first) and a violation on a `}` line still
        // belongs to the region being closed.
        if in_shm_or_core
            && !is_facade
            && !in_test
            && !test_file
            && (code.contains("std::sync::atomic") || contains_word(&code, "parking_lot"))
        {
            out.push(Violation {
                file: file.to_string(),
                line: line_no,
                rule: "raw-sync-primitives",
                message: "non-test code in the substrate must use the \
                          `damaris_shm::sync` facade, not std/parking_lot \
                          primitives directly (so `--features check` can \
                          model-check it)"
                    .to_string(),
            });
        }
        if !in_xtask && contains_word(&code, "unsafe") && !tag("SAFETY:") {
            out.push(Violation {
                file: file.to_string(),
                line: line_no,
                rule: "undocumented-unsafe",
                message: "`unsafe` without a `// SAFETY:` comment in the \
                          comment block immediately above"
                    .to_string(),
            });
        }
        if in_core_src
            && !in_test
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !tag("invariant:")
        {
            out.push(Violation {
                file: file.to_string(),
                line: line_no,
                rule: "untagged-expect",
                message: "unwrap/expect in non-test core/mpi code without \
                          an `// invariant:` justification in the comment \
                          block immediately above"
                    .to_string(),
            });
        }
        if !in_check
            && !in_xtask
            && !in_test
            && code.contains("Ordering::SeqCst")
            && !tag("seqcst:")
        {
            out.push(Violation {
                file: file.to_string(),
                line: line_no,
                rule: "untagged-seqcst",
                message: "`Ordering::SeqCst` in non-test code without a \
                          `// seqcst:` justification in the comment block \
                          immediately above — the ordering audit found every \
                          hot-path SeqCst unnecessary; argue the total-order \
                          requirement or use acquire/release"
                    .to_string(),
            });
        }

        if report_region.is_some()
            && !in_test
            && code.trim_start().starts_with("pub ")
            && code.contains(": u64")
            && !tag("metric:")
        {
            out.push(Violation {
                file: file.to_string(),
                line: line_no,
                rule: "untagged-report-counter",
                message: "counter field on `NodeReport` without a \
                          `metric:` tag in the doc comment above — counters \
                          live on the obs registry (`damaris_obs::Registry`); \
                          NodeReport is a snapshot view. Tag the field with \
                          the registry counter it snapshots (`metric: \
                          node.<name>`) or `metric: report-only (...)` for \
                          values with no live counter"
                    .to_string(),
            });
        }

        if repr_c_region.is_some() && !in_test {
            let forbidden = ["*const", "*mut", "Box<", "Vec<", "String", "Arc<", "Rc<"];
            let pointy = forbidden.iter().any(|t| code.contains(t))
                || contains_word(&code, "Mutex")
                || contains_word(&code, "RwLock")
                || contains_word(&code, "Instant")
                || contains_word(&code, "PathBuf")
                || code.contains('&');
            if pointy && !tag("offset-only:") {
                out.push(Violation {
                    file: file.to_string(),
                    line: line_no,
                    rule: "pointer-in-shm-struct",
                    message: "address-bearing or process-private field in a \
                              `#[repr(C)]` substrate struct — a file-backed \
                              mapping lands at a different virtual address in \
                              every process, so mapped layouts may hold only \
                              plain words and offsets (keep handles in a \
                              per-process mirror), or justify with an \
                              `// offset-only:` comment above the field"
                        .to_string(),
                });
            }
        }

        // Update brace depth and test-region bookkeeping *after* linting
        // the line. A pending test attr binds to the first `{` opened.
        for ch in code.chars() {
            match ch {
                '{' => {
                    if pending_test_attr {
                        test_regions.push(depth);
                        pending_test_attr = false;
                    }
                    if pending_report_struct {
                        report_region = Some(depth);
                        pending_report_struct = false;
                    }
                    if pending_repr_c {
                        repr_c_region = Some(depth);
                        pending_repr_c = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_regions.last().is_some_and(|&d| d == depth) {
                        test_regions.pop();
                    }
                    if report_region == Some(depth) {
                        report_region = None;
                    }
                    if repr_c_region == Some(depth) {
                        repr_c_region = None;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(file: &str, src: &str) -> Vec<&'static str> {
        lint_source(file, src).into_iter().map(|v| v.rule).collect()
    }

    // -- scanner ----------------------------------------------------------

    #[test]
    fn strips_line_and_block_comments() {
        let (code, mode) = strip_line("let x = 1; // unsafe mention", Mode::Code);
        assert_eq!(code.trim_end(), "let x = 1;");
        assert!(mode == Mode::Code);
        let (code, mode) = strip_line("a /* unsafe */ b /* open", Mode::Code);
        assert_eq!(code, "a  b ");
        assert!(matches!(mode, Mode::BlockComment(1)));
        let (code, mode) = strip_line("still closed */ tail", mode);
        assert_eq!(code, " tail");
        assert!(mode == Mode::Code);
    }

    #[test]
    fn strips_strings_and_raw_strings() {
        let (code, _) = strip_line(r#"let s = "unsafe .unwrap()";"#, Mode::Code);
        assert!(!code.contains("unwrap"));
        let (_, mode) = strip_line(r##"let s = r#"multi"##, Mode::Code);
        assert!(matches!(mode, Mode::RawStr(1)));
        let (code, mode) = strip_line(r##"line Ordering::SeqCst "# done"##, mode);
        assert_eq!(code, " done");
        assert!(mode == Mode::Code);
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("UnsafeCell::new", "unsafe"));
        assert!(!contains_word("not_unsafe_fn()", "unsafe"));
    }

    // -- rule 1: facade bypass --------------------------------------------

    #[test]
    fn raw_atomics_in_substrate_flagged() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        assert_eq!(
            rules("crates/shm/src/queue.rs", src),
            ["raw-sync-primitives"]
        );
        assert_eq!(
            rules("crates/core/src/node.rs", src),
            ["raw-sync-primitives"]
        );
        // The facade itself and unrelated crates may.
        assert!(rules("crates/shm/src/sync.rs", src).is_empty());
        assert!(rules("crates/fs/src/faulty.rs", src).is_empty());
    }

    #[test]
    fn raw_atomics_in_test_module_allowed() {
        let src = "\
#[cfg(all(test, not(feature = \"check\")))]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use parking_lot::Mutex;
}
";
        assert!(rules("crates/shm/src/queue.rs", src).is_empty());
    }

    #[test]
    fn parking_lot_bypass_flagged() {
        let src = "use parking_lot::Mutex;\n";
        assert_eq!(
            rules("crates/shm/src/alloc_partition.rs", src),
            ["raw-sync-primitives"]
        );
    }

    // -- rule 2: undocumented unsafe --------------------------------------

    #[test]
    fn undocumented_unsafe_flagged_documented_passes() {
        let bad = "let v = unsafe { *p };\n";
        assert_eq!(
            rules("crates/shm/src/buffer.rs", bad),
            ["undocumented-unsafe"]
        );
        let good = "\
// SAFETY: p is valid for reads; the allocator guarantees no
// concurrent writer exists for this segment.
let v = unsafe { *p };
";
        assert!(rules("crates/shm/src/buffer.rs", good).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_not_flagged() {
        let src = "\
// this comment says unsafe but has no block
let s = \"unsafe\";
";
        assert!(rules("crates/shm/src/buffer.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_reaches_across_split_statement() {
        // The flagged keyword may sit on a continuation line of a
        // statement whose comment block starts above the first line.
        let src = "\
// SAFETY: the CAS made us the unique consumer of the slot, so the
// value is initialized and unaliased.
let value =
    slot.value.with(|p| unsafe { (*p).assume_init_read() });
";
        assert!(rules("crates/shm/src/queue.rs", src).is_empty());
        // But a completed statement in between breaks the adjacency.
        let src = "\
// SAFETY: stale justification for some earlier line.
let x = 1;
let v = unsafe { *p };
";
        assert_eq!(
            rules("crates/shm/src/buffer.rs", src),
            ["undocumented-unsafe"]
        );
    }

    #[test]
    fn unsafe_impl_needs_safety_too() {
        let src = "unsafe impl Send for Foo {}\n";
        assert_eq!(
            rules("crates/shm/src/queue.rs", src),
            ["undocumented-unsafe"]
        );
    }

    // -- rule 3: untagged expect/unwrap in core ---------------------------

    #[test]
    fn untagged_expect_in_core_flagged() {
        let src = "let v = maybe.expect(\"present\");\n";
        assert_eq!(rules("crates/core/src/node.rs", src), ["untagged-expect"]);
        let src = "let v = maybe.unwrap();\n";
        assert_eq!(rules("crates/core/src/node.rs", src), ["untagged-expect"]);
        // Other crates are out of scope for this rule.
        assert!(rules("crates/fs/src/lib.rs", src).is_empty());
    }

    #[test]
    fn untagged_expect_in_mpi_flagged() {
        // The mpi substrate is rank-failure territory: an unwrap there
        // kills a "rank", so it gets the same gate as core.
        let src = "let v = maybe.unwrap();\n";
        assert_eq!(rules("crates/mpi/src/comm.rs", src), ["untagged-expect"]);
        let tagged = "\
// invariant: the channel outlives every rank by construction.
let v = maybe.unwrap();
";
        assert!(rules("crates/mpi/src/comm.rs", tagged).is_empty());
        // mpi test files stay exempt like everyone else's.
        assert!(rules("crates/mpi/tests/faults.rs", src).is_empty());
    }

    #[test]
    fn untagged_expect_in_shm_flagged() {
        // The shm layer (leases, allocators) runs on both sides of the
        // client/server boundary: an unwrap there can take down either.
        let src = "let v = maybe.unwrap();\n";
        assert_eq!(rules("crates/shm/src/lease.rs", src), ["untagged-expect"]);
        let tagged = "\
// invariant: the lease table covers every client id by construction.
let v = maybe.unwrap();
";
        assert!(rules("crates/shm/src/lease.rs", tagged).is_empty());
        assert!(rules("crates/shm/tests/model.rs", src).is_empty());
    }

    #[test]
    fn untagged_expect_in_obs_flagged() {
        // The recorder rides inside every client write call: a panic in
        // obs *is* a client crash, so it gets the same gate.
        let src = "let v = maybe.unwrap();\n";
        assert_eq!(rules("crates/obs/src/ring.rs", src), ["untagged-expect"]);
        let tagged = "\
// invariant: the ring mask is a power of two by construction.
let v = maybe.unwrap();
";
        assert!(rules("crates/obs/src/ring.rs", tagged).is_empty());
        assert!(rules("crates/obs/tests/overhead.rs", src).is_empty());
    }

    #[test]
    fn untagged_expect_in_query_flagged() {
        // The read tier serves arbitrary reader threads while the EPE
        // writes: a panic there kills an analysis consumer mid-run.
        let src = "let v = maybe.unwrap();\n";
        assert_eq!(
            rules("crates/query/src/engine.rs", src),
            ["untagged-expect"]
        );
        let tagged = "\
// invariant: the snapshot's file table is non-empty by construction.
let v = maybe.unwrap();
";
        assert!(rules("crates/query/src/engine.rs", tagged).is_empty());
        assert!(rules("crates/query/tests/pruning.rs", src).is_empty());
    }

    #[test]
    fn untagged_expect_in_chaos_flagged() {
        // The chaos harness adjudicates node correctness: a panic in the
        // runner reads as a node failure and poisons every seed's verdict.
        let src = "let v = maybe.unwrap();\n";
        assert_eq!(
            rules("crates/chaos/src/runner.rs", src),
            ["untagged-expect"]
        );
        let tagged = "\
// invariant: the scenario generator emits at least one iteration.
let v = maybe.unwrap();
";
        assert!(rules("crates/chaos/src/runner.rs", tagged).is_empty());
        assert!(rules("crates/chaos/tests/scenarios.rs", src).is_empty());
    }

    #[test]
    fn invariant_tag_satisfies_expect_rule() {
        let src = "\
// invariant: handles are taken exactly once by documented contract.
let v = maybe.expect(\"present\");
";
        assert!(rules("crates/core/src/node.rs", src).is_empty());
    }

    #[test]
    fn expect_in_test_module_allowed() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f() {
        let v = maybe.unwrap();
    }
}
";
        assert!(rules("crates/core/src/node.rs", src).is_empty());
    }

    // -- rule 4: untagged SeqCst ------------------------------------------

    #[test]
    fn untagged_seqcst_flagged_tag_passes() {
        let bad = "x.store(1, Ordering::SeqCst);\n";
        assert_eq!(rules("crates/fs/src/faulty.rs", bad), ["untagged-seqcst"]);
        let good = "\
// seqcst: the flag participates in a Dekker-style handshake with the
// shutdown path; both sides must agree on a single total order.
x.store(1, Ordering::SeqCst);
";
        assert!(rules("crates/fs/src/faulty.rs", good).is_empty());
        // The checker crate implements the orderings; exempt.
        assert!(rules("crates/check/src/sync.rs", bad).is_empty());
        // Test files are exempt.
        assert!(rules("crates/core/tests/runtime.rs", bad).is_empty());
    }

    // -- rule 5: untagged NodeReport counters -----------------------------

    #[test]
    fn untagged_report_counter_flagged_tag_passes() {
        let bad = "\
pub struct NodeReport {
    pub iterations_persisted: u64,
}
";
        let vs = lint_source("crates/core/src/node.rs", bad);
        assert_eq!(vs.len(), 1);
        assert_eq!((vs[0].rule, vs[0].line), ("untagged-report-counter", 2));
        let good = "\
pub struct NodeReport {
    /// metric: node.iterations_persisted
    pub iterations_persisted: u64,
    /// metric: report-only (derived at shutdown)
    pub bytes_stored: u64,
}
";
        assert!(rules("crates/core/src/node.rs", good).is_empty());
    }

    #[test]
    fn report_counter_rule_scoped_to_the_struct() {
        // u64 fields on other structs are not this rule's business, and
        // the region ends at the struct's closing brace.
        let src = "\
pub struct Other {
    pub count: u64,
}
pub struct NodeReport {
    /// metric: node.user_events
    pub user_events: u64,
}
pub struct Later {
    pub bytes: u64,
}
";
        assert!(rules("crates/core/src/node.rs", src).is_empty());
    }

    #[test]
    fn report_counter_non_u64_fields_exempt() {
        let src = "\
pub struct NodeReport {
    pub label: String,
}
";
        assert!(rules("crates/core/src/node.rs", src).is_empty());
    }

    // -- rule 6: offset-only repr(C) structs ------------------------------

    #[test]
    fn pointer_in_repr_c_struct_flagged() {
        for field in [
            "pub head: *mut u8,",
            "pub owner: Box<Owner>,",
            "pub names: Vec<String>,",
            "pub guard: Mutex<u64>,",
            "pub stamp: Instant,",
            "pub path: PathBuf,",
            "pub view: &'static [u8],",
        ] {
            let src = format!("#[repr(C)]\npub struct Slot {{\n    {field}\n}}\n");
            let vs = lint_source("crates/shm/src/mapped.rs", &src);
            assert_eq!(
                vs.iter().map(|v| v.rule).collect::<Vec<_>>(),
                ["pointer-in-shm-struct"],
                "field {field:?} escaped the gate"
            );
            assert_eq!(vs[0].line, 3);
        }
    }

    #[test]
    fn plain_words_in_repr_c_struct_pass() {
        let src = "\
#[repr(C)]
pub struct Header {
    pub magic: u64,
    pub version: u64,
    pub n_clients: u64,
    pub data_offset: u64,
}
";
        assert!(rules("crates/shm/src/mapped.rs", src).is_empty());
    }

    #[test]
    fn offset_only_tag_and_scope_limits() {
        // A justified field passes.
        let tagged = "\
#[repr(C)]
pub struct Slot {
    // offset-only: stored as a self-relative offset, never dereferenced
    // as an address; accessors rebase against the mapping each call.
    pub next: *const u8,
}
";
        assert!(rules("crates/shm/src/mapped.rs", tagged).is_empty());
        // The region ends at the struct's closing brace.
        let after = "\
#[repr(C)]
pub struct Header {
    pub magic: u64,
}
pub struct Mirror {
    pub region: Vec<u8>,
}
";
        assert!(rules("crates/shm/src/mapped.rs", after).is_empty());
        // repr(transparent) facade views are exempt.
        let transparent = "\
#[repr(transparent)]
pub struct WordView {
    pub inner: &'static AtomicU64,
}
";
        assert!(rules("crates/shm/src/mapped.rs", transparent).is_empty());
        // Other crates are out of scope.
        let elsewhere = "\
#[repr(C)]
pub struct Ffi {
    pub p: *mut u8,
}
";
        assert!(rules("crates/fs/src/local.rs", elsewhere).is_empty());
    }

    // -- aggregate --------------------------------------------------------

    #[test]
    fn multiple_violations_reported_with_lines() {
        let src = "\
use std::sync::atomic::AtomicUsize;

fn f(p: *mut u8) {
    unsafe { *p = 0 };
}
";
        let vs = lint_source("crates/shm/src/queue.rs", src);
        assert_eq!(vs.len(), 2);
        assert_eq!((vs[0].rule, vs[0].line), ("raw-sync-primitives", 1));
        assert_eq!((vs[1].rule, vs[1].line), ("undocumented-unsafe", 4));
    }
}
