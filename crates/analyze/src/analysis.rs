//! The rule engine: resolves call sites into a per-crate call graph and
//! runs the three rule families over it.
//!
//! 1. **hot-path purity** — facts (alloc/block/panic sites) propagate
//!    backwards: everything transitively reachable from a
//!    `// ANALYZE: hot` root must be fact-free, unless waived line-by-line
//!    or cut off by a `// ANALYZE: cold` / `#[cold]` boundary.
//!    `hot(strict)` roots additionally reject waivers inside their
//!    closure — the client write path must be clean *without* excuses.
//! 2. **lock-order** — a held lock (`let g = x.lock()`) followed by
//!    another acquisition (directly, or anywhere in a callee's transitive
//!    lock set) is an order edge; cycles in the edge graph are potential
//!    compute-core/EPE deadlocks.
//! 3. **atomic-pairing** — per atomic field (keyed by field name across
//!    `shm`/`core`/`obs`), every `Release` store side needs an
//!    `Acquire`/`AcqRel` load side and vice versa; `Relaxed`-only fields
//!    (pure counters) are exempt.
//!
//! Plus bookkeeping rules: `bogus-waiver` (malformed annotations),
//! `unused-waiver` (a waiver that suppressed nothing — stale line drift),
//! `strict-waiver` (waiver inside a strict closure).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use crate::parser::{Callee, FnItem, ParsedFile, Waiver, COMMON_METHODS};

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub message: String,
    /// Call path from the hot root to the offending fn (hot rules only).
    pub path: Vec<String>,
}

/// A waiver with its usage outcome.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    pub rule: String,
    pub file: String,
    pub line: usize,
    pub reason: String,
    pub used: bool,
}

/// Per-root closure summary (drives the "zero waivers on the write path"
/// acceptance gate).
#[derive(Debug, Clone)]
pub struct ClosureReport {
    pub root: String,
    pub strict: bool,
    /// Functions in the closure (cold boundaries excluded).
    pub fns: usize,
    /// Waivers applied inside the closure.
    pub waived: usize,
}

/// A cold boundary a hot closure stopped at.
#[derive(Debug, Clone)]
pub struct ColdBoundary {
    pub qname: String,
    pub reason: String,
    pub reached_from: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub fns_indexed: usize,
    pub hot_roots: Vec<String>,
    pub findings: Vec<Finding>,
    pub waivers: Vec<WaiverRecord>,
    pub in_bounds_tags: usize,
    pub cold_boundaries: Vec<ColdBoundary>,
    pub closures: Vec<ClosureReport>,
    /// Call sites that looked resolvable but weren't (informational).
    pub unresolved_calls: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn closure(&self, root: &str) -> Option<&ClosureReport> {
        self.closures.iter().find(|c| c.root == root)
    }
}

/// Resolution outcome for a call site.
enum Res {
    /// Index into the fn table.
    Fn(usize),
    /// Outside the scanned code (std, vendored deps) — not an error.
    External,
    /// Looked like it should resolve but didn't — counted.
    Unknown,
}

struct Index<'a> {
    fns: Vec<&'a FnItem>,
    by_qname: HashMap<&'a str, Vec<usize>>,
    free_by_name: HashMap<&'a str, Vec<usize>>,
    methods_by_name: HashMap<&'a str, Vec<usize>>,
    /// struct → field → peeled base type, merged across files.
    fields: HashMap<&'a str, HashMap<&'a str, &'a str>>,
}

impl<'a> Index<'a> {
    fn build(files: &'a [(String, ParsedFile)]) -> Self {
        let mut fns = Vec::new();
        let mut by_qname: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut fields: HashMap<&str, HashMap<&str, &str>> = HashMap::new();
        for (_, pf) in files {
            for f in &pf.fns {
                let i = fns.len();
                fns.push(f);
                by_qname.entry(f.qname.as_str()).or_default().push(i);
                if f.owner.is_some() {
                    methods_by_name.entry(f.name.as_str()).or_default().push(i);
                } else {
                    free_by_name.entry(f.name.as_str()).or_default().push(i);
                }
            }
            for (sname, sfields) in &pf.structs {
                let entry = fields.entry(sname.as_str()).or_default();
                for (fname, ftype) in sfields {
                    entry.insert(fname.as_str(), ftype.as_str());
                }
            }
        }
        Index {
            fns,
            by_qname,
            free_by_name,
            methods_by_name,
            fields,
        }
    }

    /// Looks up `Owner::method`, preferring a same-crate definition when
    /// the qname is ambiguous across crates.
    fn lookup_qname(&self, ctx: &FnItem, owner: &str, m: &str) -> Option<usize> {
        let q = format!("{owner}::{m}");
        let v = self.by_qname.get(q.as_str())?;
        v.iter()
            .copied()
            .find(|&i| self.fns[i].krate == ctx.krate)
            .or_else(|| v.first().copied())
    }

    fn resolve(&self, ctx: &FnItem, c: &Callee) -> Res {
        match c {
            Callee::SelfMethod(m) => {
                let Some(owner) = ctx.owner.as_deref() else {
                    return Res::Unknown;
                };
                match self.lookup_qname(ctx, owner, m) {
                    Some(i) => Res::Fn(i),
                    // Own-type method we can't see: trait default, derive,
                    // or a generic bound — suspicious enough to count.
                    None => Res::Unknown,
                }
            }
            Callee::FieldChain(chain, m) => {
                let Some(mut ty) = ctx.owner.as_deref() else {
                    return Res::Unknown;
                };
                for seg in &chain[1..] {
                    match self.fields.get(ty).and_then(|fs| fs.get(seg.as_str())) {
                        Some(next) => ty = next,
                        // Field of a type we didn't parse (std container,
                        // vendored dep) — external.
                        None => return Res::External,
                    }
                }
                match self.lookup_qname(ctx, ty, m) {
                    Some(i) => Res::Fn(i),
                    None => Res::Unknown,
                }
            }
            Callee::Qualified(t, m) => match self.lookup_qname(ctx, t, m) {
                Some(i) => Res::Fn(i),
                None => Res::External, // Instant::now, Arc::clone, …
            },
            Callee::Bare(name) => {
                let Some(v) = self.free_by_name.get(name.as_str()) else {
                    return Res::External; // std free fn (drop, min, …)
                };
                if let Some(&i) = v.iter().find(|&&i| self.fns[i].file == ctx.file) {
                    return Res::Fn(i);
                }
                let same_crate: Vec<usize> = v
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].krate == ctx.krate)
                    .collect();
                match same_crate.as_slice() {
                    [i] => Res::Fn(*i),
                    [] if v.len() == 1 => Res::Fn(v[0]),
                    [] => Res::External,
                    _ => Res::Unknown, // ambiguous within the crate
                }
            }
            Callee::Method(m) => {
                if COMMON_METHODS.contains(&m.as_str()) {
                    return Res::External;
                }
                match self.methods_by_name.get(m.as_str()).map(Vec::as_slice) {
                    Some([i]) => Res::Fn(*i),
                    Some(_) => Res::Unknown, // ambiguous receiver
                    None => Res::External,
                }
            }
        }
    }
}

fn crate_of(file: &str) -> &str {
    file.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
}

fn find_waiver(waivers: &[&Waiver], rule: &str, file: &str, line: usize) -> Option<usize> {
    waivers
        .iter()
        .position(|w| w.rule == rule && w.file == file && w.target_line == line)
}

fn build_path(
    parent: &HashMap<usize, usize>,
    fns: &[&FnItem],
    root: usize,
    i: usize,
) -> Vec<String> {
    let mut rev = vec![i];
    let mut cur = i;
    while cur != root {
        match parent.get(&cur) {
            Some(&p) => {
                cur = p;
                rev.push(cur);
            }
            None => break,
        }
    }
    rev.reverse();
    rev.into_iter().map(|k| fns[k].qname.clone()).collect()
}

/// Transitive lock set of fn `i`: every `(lock id, file, line)` acquired
/// in its body or any (resolvable) callee's. Memoized; recursion through
/// call cycles yields the partial set.
fn lock_set(
    i: usize,
    idx: &Index<'_>,
    memo: &mut HashMap<usize, BTreeSet<(String, String, usize)>>,
    stack: &mut HashSet<usize>,
) -> BTreeSet<(String, String, usize)> {
    if let Some(s) = memo.get(&i) {
        return s.clone();
    }
    if !stack.insert(i) {
        return BTreeSet::new();
    }
    let f = idx.fns[i];
    let mut s: BTreeSet<(String, String, usize)> = f
        .locks
        .iter()
        .map(|l| (l.id.clone(), f.file.clone(), l.line))
        .collect();
    for c in &f.calls {
        if let Res::Fn(j) = idx.resolve(f, &c.callee) {
            s.extend(lock_set(j, idx, memo, stack));
        }
    }
    stack.remove(&i);
    memo.insert(i, s.clone());
    s
}

/// Elementary-cycle detection via DFS back edges, canonicalized (rotated
/// so the lexicographically smallest id leads) and deduplicated.
fn find_cycles(adj: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    fn dfs(
        u: &str,
        adj: &BTreeMap<String, BTreeSet<String>>,
        color: &mut HashMap<String, u8>,
        stack: &mut Vec<String>,
        out: &mut BTreeSet<Vec<String>>,
    ) {
        color.insert(u.to_string(), 1);
        stack.push(u.to_string());
        for v in adj.get(u).into_iter().flatten() {
            match color.get(v.as_str()).copied() {
                None => dfs(v, adj, color, stack, out),
                Some(1) => {
                    let pos = stack.iter().position(|x| x == v).unwrap_or(0);
                    let mut cyc: Vec<String> = stack[pos..].to_vec();
                    if let Some(min_i) = cyc
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.cmp(b.1))
                        .map(|(i, _)| i)
                    {
                        cyc.rotate_left(min_i);
                    }
                    out.insert(cyc);
                }
                _ => {}
            }
        }
        stack.pop();
        color.insert(u.to_string(), 2);
    }
    let mut color = HashMap::new();
    let mut stack = Vec::new();
    let mut out = BTreeSet::new();
    for u in adj.keys() {
        if !color.contains_key(u.as_str()) {
            dfs(u, adj, &mut color, &mut stack, &mut out);
        }
    }
    out.into_iter().collect()
}

pub fn run(files: &[(String, ParsedFile)]) -> Report {
    let idx = Index::build(files);
    let mut report = Report {
        files_scanned: files.len(),
        fns_indexed: idx.fns.len(),
        ..Default::default()
    };

    let waivers: Vec<&Waiver> = files.iter().flat_map(|(_, p)| &p.waivers).collect();
    let mut waiver_used = vec![false; waivers.len()];
    report.in_bounds_tags = files.iter().map(|(_, p)| p.in_bounds.len()).sum();

    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: HashSet<(String, String, usize)> = HashSet::new();
    let mut push_finding = |findings: &mut Vec<Finding>,
                            rule: &str,
                            file: &str,
                            line: usize,
                            msg: String,
                            path: Vec<String>| {
        if seen.insert((rule.to_string(), file.to_string(), line)) {
            findings.push(Finding {
                rule: rule.to_string(),
                file: file.to_string(),
                line,
                message: msg,
                path,
            });
        }
    };

    // ---- rule family 1: hot-path purity ------------------------------
    let roots: Vec<usize> = (0..idx.fns.len())
        .filter(|&i| idx.fns[i].hot.is_some())
        .collect();
    let mut unresolved: HashSet<(usize, usize)> = HashSet::new();
    let mut boundaries: BTreeMap<String, (String, String)> = BTreeMap::new();
    for &r in &roots {
        let rootq = idx.fns[r].qname.clone();
        let strict = idx.fns[r].hot == Some(true);
        report.hot_roots.push(rootq.clone());
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut visited: HashSet<usize> = HashSet::new();
        let mut q = VecDeque::new();
        visited.insert(r);
        q.push_back(r);
        let mut closure_fns = 0usize;
        let mut waived = 0usize;
        while let Some(i) = q.pop_front() {
            let f = idx.fns[i];
            if i != r && f.cold.is_some() {
                boundaries
                    .entry(f.qname.clone())
                    .or_insert_with(|| (f.cold.clone().unwrap_or_default(), rootq.clone()));
                continue;
            }
            closure_fns += 1;
            let path = build_path(&parent, &idx.fns, r, i);
            for fact in &f.facts {
                let rule = fact.kind.rule();
                if let Some(wi) = find_waiver(&waivers, rule, &f.file, fact.line) {
                    waiver_used[wi] = true;
                    waived += 1;
                    if strict {
                        push_finding(
                            &mut findings,
                            "strict-waiver",
                            &f.file,
                            fact.line,
                            format!(
                                "`{}` waiver inside the strict closure of `{rootq}` ({}); \
                                 strict roots must be clean without waivers",
                                rule, fact.what
                            ),
                            path.clone(),
                        );
                    }
                } else {
                    push_finding(
                        &mut findings,
                        rule,
                        &f.file,
                        fact.line,
                        format!("{} — reachable from hot `{rootq}`", fact.what),
                        path.clone(),
                    );
                }
            }
            for call in &f.calls {
                match idx.resolve(f, &call.callee) {
                    Res::Fn(j) => {
                        if visited.insert(j) {
                            parent.insert(j, i);
                            q.push_back(j);
                        }
                    }
                    Res::Unknown => {
                        unresolved.insert((i, call.pos));
                    }
                    Res::External => {}
                }
            }
        }
        report.closures.push(ClosureReport {
            root: rootq,
            strict,
            fns: closure_fns,
            waived,
        });
    }
    report.unresolved_calls = unresolved.len();
    for (qname, (reason, reached_from)) in boundaries {
        report.cold_boundaries.push(ColdBoundary {
            qname,
            reason,
            reached_from,
        });
    }

    // ---- rule family 2: lock-order graph (shm + core) ----------------
    let mut memo = HashMap::new();
    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut prov: HashMap<(String, String), (String, usize)> = HashMap::new();
    for i in 0..idx.fns.len() {
        let f = idx.fns[i];
        if !matches!(f.krate.as_str(), "shm" | "core") {
            continue;
        }
        for l in &f.locks {
            if !l.held {
                continue;
            }
            let mut add_edge = |adj: &mut BTreeMap<String, BTreeSet<String>>,
                                to: &str,
                                file: &str,
                                line: usize| {
                adj.entry(l.id.clone()).or_default().insert(to.to_string());
                adj.entry(to.to_string()).or_default();
                prov.entry((l.id.clone(), to.to_string()))
                    .or_insert_with(|| (file.to_string(), line));
            };
            let limit = l.released_pos.unwrap_or(usize::MAX);
            for l2 in &f.locks {
                if l2.pos > l.pos && l2.pos < limit {
                    add_edge(&mut adj, &l2.id, &f.file, l2.line);
                }
            }
            for c in &f.calls {
                if c.pos <= l.pos || c.pos >= limit {
                    continue;
                }
                if let Res::Fn(j) = idx.resolve(f, &c.callee) {
                    let mut stack = HashSet::new();
                    for (lid, _, _) in lock_set(j, &idx, &mut memo, &mut stack) {
                        add_edge(&mut adj, &lid, &f.file, c.line);
                    }
                }
            }
        }
    }
    for cyc in find_cycles(&adj) {
        let next = cyc.get(1).unwrap_or(&cyc[0]);
        let (file, line) = prov
            .get(&(cyc[0].clone(), next.clone()))
            .cloned()
            .unwrap_or_else(|| (String::from("?"), 0));
        let mut display = cyc.clone();
        display.push(cyc[0].clone());
        if let Some(wi) = find_waiver(&waivers, "lock-order", &file, line) {
            waiver_used[wi] = true;
        } else {
            push_finding(
                &mut findings,
                "lock-order",
                &file,
                line,
                format!(
                    "lock-order cycle (potential compute-core/EPE deadlock): {}",
                    display.join(" -> ")
                ),
                cyc,
            );
        }
    }

    // ---- rule family 3: atomic pairing (shm + core + obs) ------------
    // per field: (Release/AcqRel store sites, Acquire/AcqRel load sites)
    type Sites<'a> = Vec<(&'a str, usize)>;
    let mut groups: BTreeMap<&str, (Sites, Sites)> = BTreeMap::new();
    for (file, pf) in files {
        if !matches!(crate_of(file), "shm" | "core" | "obs") {
            continue;
        }
        for op in &pf.atomics {
            let e = groups.entry(op.field.as_str()).or_default();
            if op.release_store {
                e.0.push((file.as_str(), op.line));
            }
            if op.acquire_load {
                e.1.push((file.as_str(), op.line));
            }
        }
    }
    for (field, (rel, acq)) in &groups {
        let (missing_side, sites) = if !rel.is_empty() && acq.is_empty() {
            ("no matching Acquire/AcqRel load", rel)
        } else if !acq.is_empty() && rel.is_empty() {
            ("no matching Release/AcqRel store", acq)
        } else {
            continue;
        };
        let (file, line) = sites[0];
        if let Some(wi) = find_waiver(&waivers, "atomic-pairing", file, line) {
            waiver_used[wi] = true;
        } else {
            push_finding(
                &mut findings,
                "atomic-pairing",
                file,
                line,
                format!(
                    "atomic field `{field}` has {} site(s) on one side but {missing_side} \
                     anywhere in scope",
                    sites.len()
                ),
                Vec::new(),
            );
        }
    }

    // ---- waiver accounting -------------------------------------------
    for (i, w) in waivers.iter().enumerate() {
        if !waiver_used[i] {
            push_finding(
                &mut findings,
                "unused-waiver",
                &w.file,
                w.target_line,
                format!(
                    "waiver for `{}` matched no finding — remove it, or its target line drifted",
                    w.rule
                ),
                Vec::new(),
            );
        }
        report.waivers.push(WaiverRecord {
            rule: w.rule.clone(),
            file: w.file.clone(),
            line: w.target_line,
            reason: w.reason.clone(),
            used: waiver_used[i],
        });
    }
    for (_, pf) in files {
        for b in &pf.bogus {
            push_finding(
                &mut findings,
                "bogus-waiver",
                &b.file,
                b.line,
                b.message.clone(),
                Vec::new(),
            );
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report.findings = findings;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;
    use crate::parser::parse_file;

    fn analyze(sources: &[(&str, &str)]) -> Report {
        let parsed: Vec<(String, ParsedFile)> = sources
            .iter()
            .map(|(f, s)| (f.to_string(), parse_file(f, split_lines(s))))
            .collect();
        run(&parsed)
    }

    fn rules(r: &Report) -> Vec<&str> {
        r.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn alloc_two_hops_from_hot_root_fires_with_path() {
        let r = analyze(&[(
            "crates/core/src/a.rs",
            "struct C { h: Helper }\n\
             impl C {\n\
               // ANALYZE: hot\n\
               fn fast(&self) { self.step(); }\n\
               fn step(&self) { self.h.deep(); }\n\
             }\n\
             struct Helper {}\n\
             impl Helper {\n\
               fn deep(&self) { let v = Vec::with_capacity(8); }\n\
             }\n",
        )]);
        assert_eq!(rules(&r), vec!["hot-alloc"]);
        assert_eq!(
            r.findings[0].path,
            vec!["C::fast", "C::step", "Helper::deep"]
        );
    }

    #[test]
    fn cold_boundary_stops_propagation() {
        let r = analyze(&[(
            "crates/core/src/a.rs",
            "impl C {\n\
               // ANALYZE: hot\n\
               fn fast(&self) { self.err(); }\n\
               // ANALYZE: cold — error construction off the hot path\n\
               fn err(&self) { let s = format!(\"boom {}\", 1); }\n\
             }\n",
        )]);
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.cold_boundaries.len(), 1);
        assert_eq!(r.cold_boundaries[0].qname, "C::err");
    }

    #[test]
    fn waiver_suppresses_and_is_counted_unused_waiver_fires() {
        let r = analyze(&[(
            "crates/core/src/a.rs",
            "impl C {\n\
               // ANALYZE: hot\n\
               fn fast(&self) {\n\
                 // ANALYZE: allow(hot-alloc) — one-time warmup, amortized\n\
                 let v = Vec::with_capacity(8);\n\
               }\n\
               fn idle(&self) {\n\
                 // ANALYZE: allow(hot-panic) — never reached\n\
                 let x = 1;\n\
               }\n\
             }\n",
        )]);
        assert_eq!(rules(&r), vec!["unused-waiver"]);
        let used: Vec<bool> = r.waivers.iter().map(|w| w.used).collect();
        assert_eq!(used, vec![true, false]);
        assert_eq!(r.closure("C::fast").unwrap().waived, 1);
    }

    #[test]
    fn strict_root_rejects_waivers_in_closure() {
        let r = analyze(&[(
            "crates/core/src/a.rs",
            "impl C {\n\
               // ANALYZE: hot(strict)\n\
               fn write(&self) { self.inner(); }\n\
               fn inner(&self) {\n\
                 // ANALYZE: allow(hot-panic) — justified elsewhere\n\
                 let x = o.unwrap();\n\
               }\n\
             }\n",
        )]);
        assert_eq!(rules(&r), vec!["strict-waiver"]);
        assert!(r.closure("C::write").unwrap().strict);
        assert_eq!(r.closure("C::write").unwrap().waived, 1);
    }

    #[test]
    fn lock_order_cycle_detected() {
        let r = analyze(&[(
            "crates/shm/src/a.rs",
            "impl A {\n\
               fn ab(&self) {\n\
                 let g = self.m1.lock();\n\
                 let h = self.m2.lock();\n\
               }\n\
               fn ba(&self) {\n\
                 let g = self.m2.lock();\n\
                 self.take_m1();\n\
               }\n\
               fn take_m1(&self) {\n\
                 let g = self.m1.lock();\n\
               }\n\
             }\n",
        )]);
        assert_eq!(rules(&r), vec!["lock-order"]);
        assert!(r.findings[0].message.contains("A.m1 -> A.m2 -> A.m1"));
    }

    #[test]
    fn explicit_guard_drop_ends_the_hold() {
        // revoke/sweep idiom: lock, collect, drop the guard, then call a
        // helper that re-locks — not a self-deadlock.
        let r = analyze(&[(
            "crates/shm/src/a.rs",
            "impl A {\n\
               fn sweep(&self) {\n\
                 let mut state = self.state.lock();\n\
                 drop(state);\n\
                 self.release_one();\n\
               }\n\
               fn release_one(&self) {\n\
                 let g = self.state.lock();\n\
               }\n\
             }\n",
        )]);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn relock_without_drop_is_a_self_cycle() {
        let r = analyze(&[(
            "crates/shm/src/a.rs",
            "impl A {\n\
               fn oops(&self) {\n\
                 let g = self.state.lock();\n\
                 let h = self.state.lock();\n\
               }\n\
             }\n",
        )]);
        assert_eq!(rules(&r), vec!["lock-order"]);
    }

    #[test]
    fn nested_distinct_order_is_fine() {
        let r = analyze(&[(
            "crates/shm/src/a.rs",
            "impl A {\n\
               fn ab(&self) {\n\
                 let g = self.m1.lock();\n\
                 let h = self.m2.lock();\n\
               }\n\
               fn also_ab(&self) {\n\
                 let g = self.m1.lock();\n\
                 let h = self.m2.lock();\n\
               }\n\
             }\n",
        )]);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn unpaired_release_store_fires() {
        let r = analyze(&[(
            "crates/shm/src/a.rs",
            "impl A {\n\
               fn pub_only(&self) { self.seq.store(1, Ordering::Release); }\n\
               fn counter(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             }\n",
        )]);
        assert_eq!(rules(&r), vec!["atomic-pairing"]);
        assert!(r.findings[0].message.contains("`seq`"));
    }

    #[test]
    fn paired_release_acquire_is_clean_across_files() {
        let r = analyze(&[
            (
                "crates/shm/src/w.rs",
                "impl W { fn p(&self) { self.seq.store(1, Ordering::Release); } }\n",
            ),
            (
                "crates/core/src/r.rs",
                "impl R { fn c(&self) { let s = self.seq.load(Ordering::Acquire); } }\n",
            ),
        ]);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn bogus_waiver_reported() {
        let r = analyze(&[(
            "crates/core/src/a.rs",
            "// ANALYZE: allow(made-up-rule) — whatever\nfn f() {}\n",
        )]);
        assert_eq!(rules(&r), vec!["bogus-waiver"]);
    }

    #[test]
    fn qualified_and_bare_calls_resolve() {
        let r = analyze(&[(
            "crates/core/src/a.rs",
            "// ANALYZE: hot\n\
             fn root() { helper(); Codec::emit(); }\n\
             fn helper() { let b = Box::new(1); }\n\
             struct Codec {}\n\
             impl Codec {\n\
               fn emit() { let s = x.to_owned(); }\n\
             }\n",
        )]);
        assert_eq!(rules(&r), vec!["hot-alloc", "hot-alloc"]);
    }

    #[test]
    fn module_qualified_free_fn_resolves_across_crates() {
        let r = analyze(&[
            (
                "crates/core/src/a.rs",
                "// ANALYZE: hot\nfn root(d: &[u8]) { other_format::sum(d); std::mem::drop(d); }\n",
            ),
            (
                "crates/format/src/sum.rs",
                "pub fn sum(d: &[u8]) -> u8 { d[0] }\n",
            ),
        ]);
        assert_eq!(rules(&r), vec!["hot-panic"]);
        assert_eq!(r.findings[0].path, vec!["root", "sum"]);
    }

    #[test]
    fn atomic_pairing_ignores_out_of_scope_crates() {
        let r = analyze(&[(
            "crates/sim/src/a.rs",
            "impl A { fn p(&self) { self.seq.store(1, Ordering::Release); } }\n",
        )]);
        assert!(r.is_clean(), "{:?}", r.findings);
    }
}
