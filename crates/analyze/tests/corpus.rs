//! The seeded-violation corpus (`tests/fixtures/`) and the repo-level
//! accounting pins.
//!
//! Each fixture file contains exactly one class of violation and is fed
//! to the analyzer under a synthetic in-scope path; if a rule ever stops
//! firing on its fixture, the rule is broken, not the code. The repo
//! pins then freeze the *actual* waiver population: adding a waiver to
//! shipped code means updating the count here, in review.

use damaris_analyze::analyze_sources;
use std::path::Path;

fn fixture(path: &str, file: &str) -> damaris_analyze::Report {
    let src = match file {
        "hidden_alloc" => include_str!("fixtures/hidden_alloc.rs"),
        "lock_cycle" => include_str!("fixtures/lock_cycle.rs"),
        "unpaired_release" => include_str!("fixtures/unpaired_release.rs"),
        "bogus_waiver" => include_str!("fixtures/bogus_waiver.rs"),
        other => panic!("unknown fixture {other}"),
    };
    analyze_sources(&[(path.to_string(), src.to_string())])
}

#[test]
fn hidden_alloc_two_hops_fires_with_full_path() {
    let r = fixture("crates/core/src/fixture_hidden_alloc.rs", "hidden_alloc");
    let f: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "hot-alloc")
        .collect();
    assert_eq!(f.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(f[0].path, vec!["hot_root", "first_hop", "second_hop"]);
}

#[test]
fn lock_order_cycle_fires() {
    let r = fixture("crates/shm/src/fixture_lock_cycle.rs", "lock_cycle");
    assert!(
        r.findings.iter().any(|f| f.rule == "lock-order"),
        "findings: {:?}",
        r.findings
    );
}

#[test]
fn unpaired_release_store_fires() {
    let r = fixture(
        "crates/shm/src/fixture_unpaired_release.rs",
        "unpaired_release",
    );
    let f: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "atomic-pairing")
        .collect();
    assert_eq!(f.len(), 1, "findings: {:?}", r.findings);
    assert!(f[0].message.contains("ready"));
}

#[test]
fn bogus_and_unused_waivers_fire() {
    let r = fixture("crates/core/src/fixture_bogus_waiver.rs", "bogus_waiver");
    let bogus = r
        .findings
        .iter()
        .filter(|f| f.rule == "bogus-waiver")
        .count();
    let unused = r
        .findings
        .iter()
        .filter(|f| f.rule == "unused-waiver")
        .count();
    assert_eq!((bogus, unused), (2, 1), "findings: {:?}", r.findings);
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

/// A repo file as `analyze_sources` takes it: (path, source).
fn read(rel: &str) -> (String, String) {
    let src = std::fs::read_to_string(repo_root().join(rel)).expect(rel);
    (rel.to_string(), src)
}

fn repo_report() -> damaris_analyze::Report {
    damaris_analyze::analyze_root(repo_root()).expect("scan repo")
}

/// The repo-wide waiver population, pinned exactly. A new waiver in
/// shipped code must bump this number in the same change — that is the
/// review speed bump the waiver policy (DESIGN.md §11) wants.
#[test]
fn repo_waiver_count_is_pinned() {
    let r = repo_report();
    assert_eq!(
        r.waivers.len(),
        0,
        "waiver population changed; update this pin only with a justified waiver: {:?}",
        r.waivers
    );
    assert!(r.is_clean(), "repo has findings: {:?}", r.findings);
}

/// The paper's claim lives or dies on `write()`: its transitive closure
/// must be strict (no waivers tolerated) and waiver-free.
#[test]
fn client_write_closure_is_strict_and_waiver_free() {
    let r = repo_report();
    let c = r
        .closure("DamarisClient::write")
        .expect("DamarisClient::write is a hot root");
    assert!(c.strict, "write must be annotated hot(strict)");
    assert_eq!(c.waived, 0, "no waivers tolerated in the write closure");
    assert!(
        c.fns > 10,
        "closure suspiciously small ({} fns) — call resolution regressed?",
        c.fns
    );
}

/// The one CRC a payload gets is the dedicated core's, inside
/// `SdfWriter::write_dataset_bytes` (`crc32_update` over the parts it
/// writes): made a hot root here, its closure reaches the checksum
/// kernels, and with the table lookup's `in-bounds` proof taken away the
/// lookup is a panic edge on it.
#[test]
fn checksum_kernels_are_inside_the_dataset_write_closure() {
    let writer = dataset_write_root();
    let (path, checksum) = read("crates/format/src/checksum.rs");
    assert!(checksum.contains("// ANALYZE: in-bounds("));
    let stripped = checksum.replace("// ANALYZE: in-bounds(", "// (");
    let r = analyze_sources(&[writer, (path.clone(), stripped)]);
    let f: Vec<_> = r
        .findings
        .iter()
        .filter(|f| f.rule == "hot-panic" && f.file == path)
        .collect();
    assert_eq!(f.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(
        f[0].path.first().map(String::as_str),
        Some("SdfWriter::write_dataset_bytes")
    );
    assert!(
        f[0].path.iter().any(|hop| hop == "crc32_update"),
        "path: {:?}",
        f[0].path
    );
    assert_eq!(f[0].path.last().map(String::as_str), Some("lut"));
}

/// The wide kernel is inside the same closure: a panic edge planted in
/// its main loop is a finding of the dataset write, reached through the
/// dispatch (`crc32_update` → `update_wide` → the `#[target_feature]`
/// kernel).
#[test]
fn the_wide_checksum_kernel_is_inside_the_dataset_write_closure() {
    let writer = dataset_write_root();
    let (path, checksum) = read("crates/format/src/checksum.rs");
    let needle = "let k6k7 = _mm256_set_epi64x(K7, K6, K7, K6);";
    assert!(checksum.contains(needle));
    let planted = checksum.replace(
        needle,
        "let k6k7 = Some(_mm256_set_epi64x(K7, K6, K7, K6)).unwrap();",
    );
    let r = analyze_sources(&[writer, (path.clone(), planted)]);
    let f: Vec<_> = r.findings.iter().filter(|f| f.file == path).collect();
    assert_eq!(f.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(f[0].rule, "hot-panic");
    assert_eq!(
        f[0].path.first().map(String::as_str),
        Some("SdfWriter::write_dataset_bytes")
    );
    assert!(
        f[0].path.iter().any(|hop| hop == "update_wide"),
        "path: {:?}",
        f[0].path
    );
    assert_eq!(f[0].path.last().map(String::as_str), Some("update_256"));
}

/// `crates/format/src/writer.rs` with `SdfWriter::write_dataset_bytes`
/// annotated as a hot root.
fn dataset_write_root() -> (String, String) {
    let (path, writer) = read("crates/format/src/writer.rs");
    let root = "    pub fn write_dataset_bytes(";
    assert!(writer.contains(root));
    let planted = writer.replace(root, &format!("    // ANALYZE: hot\n{root}"));
    (path, planted)
}

/// The client no longer checksums: no checksum kernel is inside
/// `write`'s strict closure, so the planted panic edge of
/// [`checksum_kernels_are_inside_the_dataset_write_closure`] is a finding
/// of no client root.
#[test]
fn checksum_kernels_are_outside_the_client_write_closure() {
    let client = read("crates/core/src/client.rs");
    let (path, checksum) = read("crates/format/src/checksum.rs");
    let stripped = checksum.replace("// ANALYZE: in-bounds(", "// (");
    let r = analyze_sources(&[client, (path.clone(), stripped)]);
    assert!(
        r.findings.iter().all(|f| f.file != path),
        "findings: {:?}",
        r.findings
    );
}

/// `write` resolves its variable through the node's name index
/// (`self.shared.names.get(…)`, typed through `NodeShared`): a panic edge
/// planted in the lookup is a finding of the strict write closure.
#[test]
fn the_name_lookup_is_inside_the_write_closure() {
    let client = read("crates/core/src/client.rs");
    let node = read("crates/core/src/node.rs");
    let (path, names) = read("crates/core/src/names.rs");
    let needle = "let slot = (*self.slots.get(i)?)?;";
    assert!(names.contains(needle));
    let planted = names.replace(needle, "let slot = self.slots.get(i).unwrap().unwrap();");
    let r = analyze_sources(&[client, node, (path.clone(), planted)]);
    let f: Vec<_> = r.findings.iter().filter(|f| f.file == path).collect();
    assert_eq!(f.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(f[0].rule, "hot-panic");
    assert_eq!(
        f[0].path,
        [
            "DamarisClient::write",
            "DamarisClient::lookup",
            "NameIndex::get"
        ]
    );
}

/// Clients only post; the dedicated core keeps what it took in the
/// notice ring and applies each notice once it is done with it. Neither
/// the ring's freeing of applied slots nor the core's apply is inside
/// `write`'s strict closure: panic edges planted in `NoticeRing::free_front`
/// (under `apply`, `refuse` and `recover`) and `DedicatedCore::apply` are
/// findings of no client root — and are as soon as either is a hot root
/// itself.
#[test]
fn applying_a_notice_is_outside_the_write_closure() {
    let client = read("crates/core/src/client.rs");
    let node = read("crates/core/src/node.rs");
    let event = read("crates/core/src/event.rs");
    let (ring_path, ring) = read("crates/shm/src/notice.rs");
    let (core_path, core) = read("crates/core/src/server.rs");
    let ring_fn = "    fn free_front(&self, alive: &mut impl FnMut() -> bool) -> bool {";
    let core_fn = "    fn apply(&self, source: u32, notice: u64) {";
    assert!(ring.contains(ring_fn) && core.contains(core_fn));
    let plant = |src: &str, f: &str| src.replace(f, &format!("{f}\n        None::<()>.unwrap();"));
    let hot = |src: &str, f: &str| src.replace(f, &format!("    // ANALYZE: hot\n{f}"));
    let panics = |ring: String, core: String| {
        let sources = [
            client.clone(),
            node.clone(),
            event.clone(),
            (ring_path.clone(), ring),
            (core_path.clone(), core),
        ];
        let r = analyze_sources(&sources);
        let f = r.findings.into_iter();
        f.filter(|f| (f.file == ring_path || f.file == core_path) && f.rule == "hot-panic")
            .count()
    };
    let (planted_ring, planted_core) = (plant(&ring, ring_fn), plant(&core, core_fn));
    assert_eq!(panics(planted_ring.clone(), planted_core.clone()), 0);
    assert_eq!(
        panics(hot(&planted_ring, ring_fn), core.clone()),
        panics(hot(&ring, ring_fn), core.clone()) + 1
    );
    assert_eq!(
        panics(ring.clone(), hot(&planted_core, core_fn)),
        panics(ring.clone(), hot(&core, core_fn)) + 1
    );
}
