//! The comment-tag rules: line-level checks whose only justification is a
//! tag in the comment block above the flagged line — which no call-graph
//! rule sees. They read every `.rs` file under `crates/` (tests, benches,
//! examples and fixtures included) through the same
//! [`split_lines`](crate::lexer::split_lines) the
//! parser reads, so a string or comment that spans lines is prose to both.
//! `ANALYZE:` waivers do not apply to them. The rules, and what they pin:
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
//! 3. **untagged-expect** — `unwrap()`/`expect(` in the non-test code of
//!    the crates whose panics take down a supervised thread (core, mpi,
//!    shm, obs, query, chaos) requires an `// invariant:` comment
//!    justifying why the failure is impossible (or why crashing is right).
//! 4. **untagged-seqcst** — `Ordering::SeqCst` in non-test code requires
//!    a `// seqcst:` comment justifying why acquire/release is not
//!    enough: the memory-ordering audit (DESIGN.md) found every SeqCst in
//!    the hot paths cargo-culted. (`crates/check` is exempt: it
//!    *implements* ordering semantics.)
//! 5. **untagged-report-counter** — `pub ...: u64` fields of `struct
//!    NodeReport` require a `metric:` doc tag naming the
//!    `damaris_obs::Registry` counter the field snapshots (or `metric:
//!    report-only (...)`), so the report stays a view over the registry.
//! 6. **pointer-in-shm-struct** — fields of `#[repr(C)]` structs in
//!    `crates/shm`/`crates/core` must be plain words and offsets: these
//!    layouts can describe a file-backed mapping that lands at a different
//!    virtual address in every process, so pointers, references, owning
//!    containers and process-private types are banned unless an
//!    `// offset-only:` comment argues the representation.

use crate::analysis::Finding;
use crate::lexer::Line;

/// Is `tag` on the flagged line itself or in the contiguous
/// comment/attribute block immediately above it? Walking the adjacent
/// block (instead of a fixed window) lets justifications run as long as
/// they need to while still rejecting tags separated from the code they
/// excuse.
fn tag_above(lines: &[Line], idx: usize, tag: &str) -> bool {
    if lines[idx].comment.contains(tag) {
        return true;
    }
    for line in lines[..idx].iter().rev() {
        let code = line.code.trim();
        if code.starts_with("#[")
            || code.starts_with("#![")
            || (code.is_empty() && !line.comment.is_empty())
        {
            if line.comment.contains(tag) {
                return true;
            }
        } else if code.is_empty() || code.ends_with([';', '{', '}']) {
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
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let b = code.as_bytes();
    code.match_indices(word).any(|(at, _)| {
        let end = at + word.len();
        (at == 0 || !ident(b[at - 1])) && (end >= b.len() || !ident(b[end]))
    })
}

/// Does this code name a pointer, a reference, an owning container or a
/// process-private type?
fn address_bearing(code: &str) -> bool {
    let pointy = [
        "*const", "*mut", "Box<", "Vec<", "String", "Arc<", "Rc<", "&",
    ];
    let private = ["Mutex", "RwLock", "Instant", "PathBuf"];
    pointy.iter().any(|t| code.contains(t)) || private.iter().any(|w| contains_word(code, w))
}

/// Runs the rules over one file. `file` is the workspace-relative path
/// (forward slashes); it selects which rules apply.
pub fn check(file: &str, lines: &[Line]) -> Vec<Finding> {
    let under = |dirs: &[&str]| dirs.iter().any(|d| file.starts_with(d));
    let substrate = under(&["crates/shm/src", "crates/core/src"]);
    let facade = file == "crates/shm/src/sync.rs";
    let expect_gated = under(&[
        "crates/core/src",
        "crates/mpi/src",
        "crates/shm/src",
        "crates/obs/src",
        "crates/query/src",
        "crates/chaos/src",
    ]);
    let in_check = file.starts_with("crates/check/");
    // Integration tests, benches, and examples are test code wholesale.
    let test_file = ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|d| file.contains(d));

    let mut out = Vec::new();
    // Brace depth, and the depths at which `#[cfg(test)]` regions, the
    // `struct NodeReport` body and `#[repr(C)]` struct bodies opened. A
    // pending opener binds to the next `{`.
    let mut depth: i64 = 0;
    let mut tests: Vec<i64> = Vec::new();
    let (mut report, mut repr_c) = (None, None);
    let (mut test_attr, mut report_attr, mut repr_c_attr) = (false, false, false);

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        test_attr |= code.contains("cfg(test") || code.contains("cfg(all(test");
        report_attr |= code.contains("struct NodeReport");
        // `repr(C)` and `repr(C, align…)`, not `repr(transparent)` views.
        repr_c_attr |= substrate && code.contains("repr(C");
        let in_test = test_file || !tests.is_empty();
        let tagged = |tag: &str| tag_above(lines, idx, tag);
        let mut flag = |rule: &str, message: &str| {
            out.push(Finding {
                rule: rule.to_string(),
                file: file.to_string(),
                line: idx + 1,
                message: message.to_string(),
                path: Vec::new(),
            })
        };

        // Rules look at the line *before* its braces move the depth, so a
        // `#[cfg(test)] mod t { ... }` one-liner is already exempt and a
        // violation on a `}` line still belongs to the region it closes.
        if substrate
            && !facade
            && !in_test
            && (code.contains("std::sync::atomic") || contains_word(code, "parking_lot"))
        {
            flag(
                "raw-sync-primitives",
                "non-test code in the substrate must use the \
                 `damaris_shm::sync` facade, not std/parking_lot \
                 primitives directly (so `--features check` can \
                 model-check it)",
            );
        }
        if contains_word(code, "unsafe") && !tagged("SAFETY:") {
            flag(
                "undocumented-unsafe",
                "`unsafe` without a `// SAFETY:` comment in the \
                 comment block immediately above",
            );
        }
        if expect_gated
            && !in_test
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !tagged("invariant:")
        {
            flag(
                "untagged-expect",
                "unwrap/expect in non-test core/mpi code without \
                 an `// invariant:` justification in the comment \
                 block immediately above",
            );
        }
        if !in_check && !in_test && code.contains("Ordering::SeqCst") && !tagged("seqcst:") {
            flag(
                "untagged-seqcst",
                "`Ordering::SeqCst` in non-test code without a \
                 `// seqcst:` justification in the comment block \
                 immediately above — the ordering audit found every \
                 hot-path SeqCst unnecessary; argue the total-order \
                 requirement or use acquire/release",
            );
        }
        if report.is_some()
            && !in_test
            && code.trim_start().starts_with("pub ")
            && code.contains(": u64")
            && !tagged("metric:")
        {
            flag(
                "untagged-report-counter",
                "counter field on `NodeReport` without a \
                 `metric:` tag in the doc comment above — counters \
                 live on the obs registry (`damaris_obs::Registry`); \
                 NodeReport is a snapshot view. Tag the field with \
                 the registry counter it snapshots (`metric: \
                 node.<name>`) or `metric: report-only (...)` for \
                 values with no live counter",
            );
        }
        if repr_c.is_some() && !in_test && address_bearing(code) && !tagged("offset-only:") {
            flag(
                "pointer-in-shm-struct",
                "address-bearing or process-private field in a \
                 `#[repr(C)]` substrate struct — a file-backed \
                 mapping lands at a different virtual address in \
                 every process, so mapped layouts may hold only \
                 plain words and offsets (keep handles in a \
                 per-process mirror), or justify with an \
                 `// offset-only:` comment above the field",
            );
        }

        for ch in code.chars() {
            if ch == '{' {
                if std::mem::take(&mut test_attr) {
                    tests.push(depth);
                }
                if std::mem::take(&mut report_attr) {
                    report = Some(depth);
                }
                if std::mem::take(&mut repr_c_attr) {
                    repr_c = Some(depth);
                }
                depth += 1;
            } else if ch == '}' {
                depth -= 1;
                if tests.last() == Some(&depth) {
                    tests.pop();
                }
                if report == Some(depth) {
                    report = None;
                }
                if repr_c == Some(depth) {
                    repr_c = None;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;

    /// Each finding as `rule:line`.
    fn findings(file: &str, src: &str) -> Vec<String> {
        check(file, &split_lines(src))
            .into_iter()
            .map(|f| format!("{}:{}", f.rule, f.line))
            .collect()
    }

    fn rules(file: &str, src: &str) -> Vec<String> {
        check(file, &split_lines(src))
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    /// `(file, source, expected rules)` cases, checked in one loop.
    fn table(cases: &[(&str, &str, &[&str])]) {
        for (file, src, want) in cases {
            assert_eq!(rules(file, src), *want, "{file}: {src:?}");
        }
    }

    // -- the shared lexer, as the rules see it -----------------------------

    #[test]
    fn strips_line_and_block_comments() {
        let lines = split_lines(
            "let x = 1; // unsafe mention\na /* unsafe */ b /* open\nstill closed */ tail",
        );
        assert_eq!(lines[0].code.trim_end(), "let x = 1;");
        assert_eq!(lines[1].code, "a  b ");
        assert_eq!(lines[2].code, " tail");
    }

    #[test]
    fn strips_strings_and_raw_strings() {
        let lines = split_lines(
            "let s = \"unsafe .unwrap()\";\nlet s = r#\"multi\nline Ordering::SeqCst \"# done",
        );
        assert!(!lines[0].code.contains("unwrap"));
        assert_eq!(lines[1].code, "let s = ");
        assert_eq!(lines[2].code, " done");
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("unsafe {", "unsafe"));
        assert!(!contains_word("UnsafeCell::new", "unsafe"));
        assert!(!contains_word("not_unsafe_fn()", "unsafe"));
    }

    /// Literals that span lines end where the literal ends: an unwrap
    /// after a plain or raw string that closes on its line is code, and
    /// an `unsafe` inside a multi-line string is not.
    #[test]
    fn multi_line_literals_end_where_the_literal_ends() {
        table(&[
            (
                "crates/core/src/node.rs",
                "let s = \"a\nb\"; x.unwrap();\n",
                &["untagged-expect"],
            ),
            (
                "crates/shm/src/buffer.rs",
                "let s = \"text\nunsafe { *p }\nmore\";\n",
                &[],
            ),
            (
                "crates/core/src/node.rs",
                "let s = r#\"a\nb\"#; x.unwrap();\n",
                &["untagged-expect"],
            ),
        ]);
    }

    // -- rule 1: facade bypass --------------------------------------------

    #[test]
    fn raw_atomics_in_substrate_flagged() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        table(&[
            ("crates/shm/src/queue.rs", src, &["raw-sync-primitives"]),
            ("crates/core/src/node.rs", src, &["raw-sync-primitives"]),
            // The facade itself and unrelated crates may.
            ("crates/shm/src/sync.rs", src, &[]),
            ("crates/fs/src/faulty.rs", src, &[]),
        ]);
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
        table(&[("crates/shm/src/queue.rs", src, &[])]);
    }

    #[test]
    fn parking_lot_bypass_flagged() {
        let src = "use parking_lot::Mutex;\n";
        table(&[(
            "crates/shm/src/alloc_partition.rs",
            src,
            &["raw-sync-primitives"],
        )]);
    }

    // -- rule 2: undocumented unsafe --------------------------------------

    #[test]
    fn undocumented_unsafe_flagged_documented_passes() {
        let good = "\
// SAFETY: p is valid for reads; the allocator guarantees no
// concurrent writer exists for this segment.
let v = unsafe { *p };
";
        table(&[
            (
                "crates/shm/src/buffer.rs",
                "let v = unsafe { *p };\n",
                &["undocumented-unsafe"],
            ),
            ("crates/shm/src/buffer.rs", good, &[]),
        ]);
    }

    #[test]
    fn unsafe_in_comment_or_string_not_flagged() {
        let src = "\
// this comment says unsafe but has no block
let s = \"unsafe\";
";
        table(&[("crates/shm/src/buffer.rs", src, &[])]);
    }

    #[test]
    fn safety_comment_reaches_across_split_statement() {
        // The flagged keyword may sit on a continuation line of a
        // statement whose comment block starts above the first line.
        let split = "\
// SAFETY: the CAS made us the unique consumer of the slot, so the
// value is initialized and unaliased.
let value =
    slot.value.with(|p| unsafe { (*p).assume_init_read() });
";
        // But a completed statement in between breaks the adjacency.
        let stale = "\
// SAFETY: stale justification for some earlier line.
let x = 1;
let v = unsafe { *p };
";
        table(&[
            ("crates/shm/src/queue.rs", split, &[]),
            ("crates/shm/src/buffer.rs", stale, &["undocumented-unsafe"]),
        ]);
    }

    #[test]
    fn unsafe_impl_needs_safety_too() {
        let src = "unsafe impl Send for Foo {}\n";
        table(&[("crates/shm/src/queue.rs", src, &["undocumented-unsafe"])]);
    }

    // -- rule 3: untagged expect/unwrap -----------------------------------

    #[test]
    fn untagged_expect_in_core_flagged() {
        let unwrap = "let v = maybe.unwrap();\n";
        table(&[
            (
                "crates/core/src/node.rs",
                "let v = maybe.expect(\"present\");\n",
                &["untagged-expect"],
            ),
            ("crates/core/src/node.rs", unwrap, &["untagged-expect"]),
            // Other crates are out of scope for this rule.
            ("crates/fs/src/lib.rs", unwrap, &[]),
        ]);
    }

    /// The gated crates besides core: an unwrap in `src` is flagged, a
    /// tagged one passes, and the crate's tests stay exempt.
    #[test]
    fn untagged_expect_in_gated_crates_flagged() {
        let unwrap = "let v = maybe.unwrap();";
        for (src_file, test_file, tag) in [
            // mpi is rank-failure territory: an unwrap kills a "rank".
            (
                "crates/mpi/src/comm.rs",
                "crates/mpi/tests/faults.rs",
                "// invariant: the channel outlives every rank by construction.",
            ),
            // shm runs on both sides of the client/server boundary.
            (
                "crates/shm/src/lease.rs",
                "crates/shm/tests/model.rs",
                "// invariant: the lease table covers every client id by construction.",
            ),
            // The recorder rides inside every client write call.
            (
                "crates/obs/src/ring.rs",
                "crates/obs/tests/overhead.rs",
                "// invariant: the ring mask is a power of two by construction.",
            ),
            // The read tier serves reader threads while the EPE writes.
            (
                "crates/query/src/engine.rs",
                "crates/query/tests/pruning.rs",
                "// invariant: the snapshot's file table is non-empty by construction.",
            ),
            // The chaos harness adjudicates node correctness.
            (
                "crates/chaos/src/runner.rs",
                "crates/chaos/tests/scenarios.rs",
                "// invariant: the scenario generator emits at least one iteration.",
            ),
        ] {
            let tagged = format!("{tag}\n{unwrap}\n");
            table(&[
                (src_file, unwrap, &["untagged-expect"]),
                (src_file, &tagged, &[]),
                (test_file, unwrap, &[]),
            ]);
        }
    }

    #[test]
    fn invariant_tag_satisfies_expect_rule() {
        let src = "\
// invariant: handles are taken exactly once by documented contract.
let v = maybe.expect(\"present\");
";
        table(&[("crates/core/src/node.rs", src, &[])]);
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
        table(&[("crates/core/src/node.rs", src, &[])]);
    }

    // -- rule 4: untagged SeqCst ------------------------------------------

    #[test]
    fn untagged_seqcst_flagged_tag_passes() {
        let bad = "x.store(1, Ordering::SeqCst);\n";
        let good = "\
// seqcst: the flag participates in a Dekker-style handshake with the
// shutdown path; both sides must agree on a single total order.
x.store(1, Ordering::SeqCst);
";
        table(&[
            ("crates/fs/src/faulty.rs", bad, &["untagged-seqcst"]),
            ("crates/fs/src/faulty.rs", good, &[]),
            // The checker crate implements the orderings; exempt.
            ("crates/check/src/sync.rs", bad, &[]),
            // Test files are exempt.
            ("crates/core/tests/runtime.rs", bad, &[]),
        ]);
    }

    // -- rule 5: untagged NodeReport counters -----------------------------

    #[test]
    fn untagged_report_counter_flagged_tag_passes() {
        let bad = "\
pub struct NodeReport {
    pub iterations_persisted: u64,
}
";
        let good = "\
pub struct NodeReport {
    /// metric: node.iterations_persisted
    pub iterations_persisted: u64,
    /// metric: report-only (derived at shutdown)
    pub bytes_stored: u64,
}
";
        assert_eq!(
            findings("crates/core/src/node.rs", bad),
            ["untagged-report-counter:2"]
        );
        table(&[("crates/core/src/node.rs", good, &[])]);
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
        table(&[("crates/core/src/node.rs", src, &[])]);
    }

    #[test]
    fn report_counter_non_u64_fields_exempt() {
        let src = "\
pub struct NodeReport {
    pub label: String,
}
";
        table(&[("crates/core/src/node.rs", src, &[])]);
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
            assert_eq!(
                findings("crates/shm/src/mapped.rs", &src),
                ["pointer-in-shm-struct:3"],
                "field {field:?} escaped the gate"
            );
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
        table(&[("crates/shm/src/mapped.rs", src, &[])]);
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
        // repr(transparent) facade views are exempt.
        let transparent = "\
#[repr(transparent)]
pub struct WordView {
    pub inner: &'static AtomicU64,
}
";
        // Other crates are out of scope.
        let elsewhere = "\
#[repr(C)]
pub struct Ffi {
    pub p: *mut u8,
}
";
        table(&[
            ("crates/shm/src/mapped.rs", tagged, &[]),
            ("crates/shm/src/mapped.rs", after, &[]),
            ("crates/shm/src/mapped.rs", transparent, &[]),
            ("crates/fs/src/local.rs", elsewhere, &[]),
        ]);
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
        assert_eq!(
            findings("crates/shm/src/queue.rs", src),
            ["raw-sync-primitives:1", "undocumented-unsafe:4"]
        );
    }
}
