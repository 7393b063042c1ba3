//! Item-level parser over the token stream: functions (with their impl
//! owner), struct field types, `ANALYZE:` annotations, and the per-function
//! body facts the rules consume — allocation/blocking/panic sites, call
//! sites, lock acquisitions, and atomic operations.
//!
//! This is deliberately not a full Rust parser. It understands exactly as
//! much structure as fact propagation needs: brace nesting, `impl Type`
//! regions, `#[cfg(test)]` regions (excluded from analysis, as in the
//! tag rules), and statement-shaped token patterns. Known approximations are
//! documented in DESIGN.md §11 under "false-negative limits".

use crate::lexer::{tokenize, Line, SpannedTok, Tok};

/// Rule families a waiver may name.
pub const RULES: &[&str] = &[
    "hot-alloc",
    "hot-block",
    "hot-panic",
    "lock-order",
    "atomic-pairing",
];

/// What a fact means for hot-path purity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// Heap allocation (`Box::new`, `vec!`, `format!`, `.clone()`, …).
    Alloc,
    /// Blocking (`.lock()`, `sleep`, `recv`, file I/O, …).
    Block,
    /// Panic site (`unwrap`/`expect`, `assert!`, indexing).
    Panic,
}

impl FactKind {
    pub fn rule(self) -> &'static str {
        match self {
            FactKind::Alloc => "hot-alloc",
            FactKind::Block => "hot-block",
            FactKind::Panic => "hot-panic",
        }
    }
}

/// One purity-relevant site inside a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    pub kind: FactKind,
    pub line: usize,
    /// Human-readable description of what was matched.
    pub what: String,
}

/// An unresolved call site; resolution happens in `analysis`.
#[derive(Debug, Clone)]
pub enum Callee {
    /// `self.method(…)` — resolves against the enclosing impl type.
    SelfMethod(String),
    /// `self.a.b.method(…)` — resolves by walking struct field types.
    FieldChain(Vec<String>, String),
    /// `Type::method(…)`.
    Qualified(String, String),
    /// `local.method(…)` — resolved only if the method name is defined on
    /// exactly one known type (and is not a common std name).
    Method(String),
    /// `free_fn(…)` or `some_module::free_fn(…)` — resolved by unique name
    /// (file, then crate, then whole scan).
    Bare(String),
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: Callee,
    pub line: usize,
    /// Token index, for ordering against lock sites.
    pub pos: usize,
}

/// A `.lock()` acquisition.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity: `Owner.field` when the receiver is `self.field`
    /// (possibly through a chain whose last element is the field), else
    /// `?.field`.
    pub id: String,
    pub line: usize,
    pub pos: usize,
    /// Whether the guard is bound with `let` (held to end of scope) rather
    /// than dropped at the end of the expression statement.
    pub held: bool,
    /// The `let` binding name of the guard, when held.
    pub binding: Option<String>,
    /// Token position of an explicit `drop(<binding>)`, if any — lock
    /// nesting edges stop there rather than at end of scope.
    pub released_pos: Option<usize>,
}

/// Which side(s) of a release/acquire pairing an atomic op provides.
#[derive(Debug, Clone)]
pub struct AtomicOp {
    pub field: String,
    pub line: usize,
    pub release_store: bool,
    pub acquire_load: bool,
}

/// One parsed function.
#[derive(Debug)]
pub struct FnItem {
    pub file: String,
    pub krate: String,
    pub name: String,
    /// `Owner::name` for methods, `name` for free functions.
    pub qname: String,
    pub owner: Option<String>,
    pub line: usize,
    /// `// ANALYZE: hot` (false) or `// ANALYZE: hot(strict)` (true).
    pub hot: Option<bool>,
    /// Propagation boundary: `#[cold]` or `// ANALYZE: cold — reason`.
    pub cold: Option<String>,
    pub facts: Vec<Fact>,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
}

/// A counted `// ANALYZE: allow(rule) — justification` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    pub file: String,
    /// The code line the waiver excuses (same line or first code line
    /// below the comment).
    pub target_line: usize,
}

/// A `// ANALYZE: in-bounds(proof)` tag: suppresses indexing/assert panic
/// facts on its target line. Not a waiver — it asserts the panic cannot
/// fire, with the proof in the tag.
#[derive(Debug, Clone)]
pub struct InBoundsTag {
    pub proof: String,
    pub file: String,
    pub target_line: usize,
}

/// A malformed annotation (unknown rule, missing justification…).
#[derive(Debug, Clone)]
pub struct BogusAnnotation {
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    /// struct name → (field name, base field type after peeling
    /// `Arc`/`Rc`/`Box`/`Option`/references).
    pub structs: Vec<(String, Vec<(String, String)>)>,
    pub atomics: Vec<AtomicOp>,
    pub waivers: Vec<Waiver>,
    pub in_bounds: Vec<InBoundsTag>,
    pub bogus: Vec<BogusAnnotation>,
}

const ATOMIC_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Method names too common to resolve by "unique method name" fallback.
pub(crate) const COMMON_METHODS: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "insert",
    "remove",
    "iter",
    "next",
    "map",
    "and_then",
    "filter",
    "fmt",
    "drop",
    "clear",
    "extend",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "with",
    "with_mut",
    "read",
    "write",
    "send",
    "recv",
    "lock",
    "load",
    "store",
    "contains",
    "min",
    "max",
    "take",
    "replace",
    "source",
    "capacity",
    // Atomic primitives: a bare `x.compare_exchange(...)` must never
    // resolve into scanned code (the `check` scheduler defines same-named
    // methods) — the receiver is always a facade atomic.
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
];

struct Parser<'a> {
    file: &'a str,
    krate: String,
    lines: Vec<Line>,
    toks: Vec<SpannedTok>,
    out: ParsedFile,
}

/// Parses one file from its [`split_lines`](crate::lexer::split_lines) output.
pub fn parse_file(file: &str, lines: Vec<Line>) -> ParsedFile {
    let toks = tokenize(&lines);
    let krate = file
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();
    let mut p = Parser {
        file,
        krate,
        lines,
        toks,
        out: ParsedFile::default(),
    };
    p.collect_annotations();
    p.walk_items();
    p.out
}

impl Parser<'_> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize) -> Option<char> {
        match self.toks.get(i).map(|t| &t.tok) {
            Some(Tok::Punct(c)) => Some(*c),
            _ => None,
        }
    }

    /// Line-comment annotations: waivers and in-bounds tags bind to the
    /// first code-bearing line at or below the comment.
    fn collect_annotations(&mut self) {
        for idx in 0..self.lines.len() {
            let comment = self.lines[idx].comment_text().to_string();
            let Some(rest) = comment.strip_prefix("ANALYZE:") else {
                continue;
            };
            let rest = rest.trim();
            let line_no = idx + 1;
            if rest.starts_with("hot") || rest.starts_with("cold") {
                continue; // function annotations, handled at fn headers
            }
            let target = self.target_code_line(idx);
            if let Some(args) = rest.strip_prefix("allow(") {
                let Some(close) = args.find(')') else {
                    self.push_bogus(line_no, "unclosed `allow(`".into());
                    continue;
                };
                let rule = args[..close].trim().to_string();
                if !RULES.contains(&rule.as_str()) {
                    self.push_bogus(
                        line_no,
                        format!("unknown rule `{rule}` in waiver (expected one of {RULES:?})"),
                    );
                    continue;
                }
                let reason = strip_sep(&args[close + 1..]);
                if reason.is_empty() {
                    self.push_bogus(
                        line_no,
                        format!("waiver for `{rule}` carries no justification"),
                    );
                    continue;
                }
                self.out.waivers.push(Waiver {
                    rule,
                    reason,
                    file: self.file.to_string(),
                    target_line: target,
                });
            } else if let Some(args) = rest.strip_prefix("in-bounds(") {
                let Some(close) = args.rfind(')') else {
                    self.push_bogus(line_no, "unclosed `in-bounds(`".into());
                    continue;
                };
                let proof = args[..close].trim().to_string();
                if proof.is_empty() {
                    self.push_bogus(line_no, "`in-bounds()` carries no proof".into());
                    continue;
                }
                self.out.in_bounds.push(InBoundsTag {
                    proof,
                    file: self.file.to_string(),
                    target_line: target,
                });
            } else {
                self.push_bogus(line_no, format!("unrecognized ANALYZE annotation `{rest}`"));
            }
        }
    }

    fn push_bogus(&mut self, line: usize, message: String) {
        self.out.bogus.push(BogusAnnotation {
            file: self.file.to_string(),
            line,
            message,
        });
    }

    /// The code line an annotation at line index `idx` excuses: the same
    /// line if it has code, else the next line with code.
    fn target_code_line(&self, idx: usize) -> usize {
        if !self.lines[idx].code.trim().is_empty() {
            return idx + 1;
        }
        for (j, line) in self.lines.iter().enumerate().skip(idx + 1) {
            if !line.code.trim().is_empty() {
                return j + 1;
            }
        }
        idx + 1
    }

    /// Function annotations live in the contiguous comment/attribute block
    /// above the `fn` header line. Returns (hot, cold).
    fn fn_annotations(&self, header_line: usize) -> (Option<bool>, Option<String>) {
        let mut hot = None;
        let mut cold = None;
        let mut idx = header_line.saturating_sub(1); // 0-based index of header
        while idx > 0 {
            idx -= 1;
            let l = &self.lines[idx];
            let code = l.code.trim();
            let is_attr = code.starts_with("#[");
            let comment_only = code.is_empty() && !l.comment.is_empty();
            if !is_attr && !comment_only {
                break;
            }
            if is_attr && code.contains("cold") {
                cold.get_or_insert_with(|| "#[cold]".to_string());
            }
            if let Some(rest) = l.comment_text().strip_prefix("ANALYZE:") {
                let rest = rest.trim();
                if rest == "hot" {
                    hot = Some(false);
                } else if rest == "hot(strict)" {
                    hot = Some(true);
                } else if let Some(r) = rest.strip_prefix("cold") {
                    cold = Some(strip_sep(r));
                }
            }
        }
        (hot, cold)
    }

    /// Walks the token stream extracting impls, structs, and functions.
    fn walk_items(&mut self) {
        let mut depth: i64 = 0;
        // (impl type, depth at which its body opened)
        let mut impls: Vec<(String, i64)> = Vec::new();
        let mut test_regions: Vec<i64> = Vec::new();
        let mut pending_test = false;
        let mut i = 0;
        while i < self.toks.len() {
            match self.toks[i].tok.clone() {
                Tok::Punct('{') => {
                    if pending_test {
                        test_regions.push(depth);
                        pending_test = false;
                    }
                    depth += 1;
                    i += 1;
                }
                Tok::Punct('}') => {
                    depth -= 1;
                    if impls.last().is_some_and(|&(_, d)| d == depth) {
                        impls.pop();
                    }
                    if test_regions.last().is_some_and(|&d| d == depth) {
                        test_regions.pop();
                    }
                    i += 1;
                }
                Tok::Ident(w) if w == "cfg" => {
                    // `#[cfg(test)]` / `#[cfg(all(test, …))]`: the next
                    // opened brace starts a test region.
                    if self.punct_at(i + 1) == Some('(') {
                        let mut j = i + 2;
                        let mut par = 1;
                        let mut saw_test = false;
                        let mut saw_not = false;
                        while j < self.toks.len() && par > 0 {
                            match &self.toks[j].tok {
                                Tok::Punct('(') => par += 1,
                                Tok::Punct(')') => par -= 1,
                                Tok::Ident(s) if s == "test" => saw_test = true,
                                Tok::Ident(s) if s == "not" => saw_not = true,
                                _ => {}
                            }
                            j += 1;
                        }
                        // `#[cfg(not(test))]` guards *non*-test code.
                        if saw_test && !saw_not {
                            pending_test = true;
                        }
                        i = j;
                    } else {
                        i += 1;
                    }
                }
                Tok::Ident(w) if w == "impl" && test_regions.is_empty() => {
                    let (ty, next) = self.parse_impl_header(i + 1);
                    if let Some(ty) = ty {
                        impls.push((ty, depth));
                    }
                    i = next;
                }
                Tok::Ident(w) if w == "struct" && test_regions.is_empty() => {
                    i = self.parse_struct(i + 1);
                }
                Tok::Ident(w) if w == "fn" && test_regions.is_empty() => {
                    let owner = impls.last().map(|(t, _)| t.clone());
                    // `#[cfg(test)]` directly on a fn: consume the body
                    // (keeping brace accounting intact) but record nothing.
                    let skip = pending_test;
                    pending_test = false;
                    i = self.parse_fn(i + 1, owner, skip);
                }
                Tok::Ident(w) if w == "fn" => {
                    // Test-region fn: skip its name so a stray `impl` in
                    // its signature can't confuse the item walk.
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// After `impl`: skip generics, read the type path; `impl Trait for
    /// Type` takes the type after `for`. Returns (type, index of `{`).
    fn parse_impl_header(&self, mut i: usize) -> (Option<String>, usize) {
        let mut last_path_seg: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0i32;
        while i < self.toks.len() {
            match &self.toks[i].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Punct('{') if angle <= 0 => break,
                Tok::Ident(s) if s == "for" && angle <= 0 => saw_for = true,
                Tok::Ident(s) if s == "where" && angle <= 0 => {
                    // Bounds may mention types; stop collecting.
                    while i < self.toks.len() && self.punct_at(i) != Some('{') {
                        i += 1;
                    }
                    break;
                }
                Tok::Ident(s) if angle <= 0 => {
                    let name = s.clone();
                    if saw_for {
                        after_for = Some(name);
                    } else {
                        last_path_seg = Some(name);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        (after_for.or(last_path_seg), i)
    }

    /// After `struct`: record named fields with peeled base types.
    fn parse_struct(&mut self, mut i: usize) -> usize {
        let Some(name) = self.ident_at(i).map(str::to_string) else {
            return i;
        };
        i += 1;
        // Skip generics.
        let mut angle = 0i32;
        loop {
            match self.punct_at(i) {
                Some('<') => angle += 1,
                Some('>') => angle -= 1,
                Some('{') if angle <= 0 => break,
                Some('(') | Some(';') if angle <= 0 => return i, // tuple/unit
                None if self.ident_at(i).is_none() => return i,
                _ => {}
            }
            i += 1;
        }
        i += 1; // past '{'
        let mut fields = Vec::new();
        let mut depth = 1i32;
        while i < self.toks.len() && depth > 0 {
            match self.punct_at(i) {
                Some('{') => {
                    depth += 1;
                    i += 1;
                    continue;
                }
                Some('}') => {
                    depth -= 1;
                    i += 1;
                    continue;
                }
                _ => {}
            }
            // Field pattern at depth 1: ident ':' type… (',' | '}')
            if depth == 1 {
                if let Some(fname) = self.ident_at(i).map(str::to_string) {
                    if self.punct_at(i + 1) == Some(':') && self.punct_at(i + 2) != Some(':') {
                        let (base, next) = self.parse_field_type(i + 2);
                        if let Some(base) = base {
                            fields.push((fname, base));
                        }
                        i = next;
                        continue;
                    }
                }
            }
            i += 1;
        }
        self.out.structs.push((name, fields));
        i
    }

    /// Reads a field type, returning its base path segment after peeling
    /// wrapper generics, and the index after the field (past ',').
    fn parse_field_type(&self, mut i: usize) -> (Option<String>, usize) {
        const WRAPPERS: &[&str] = &["Arc", "Rc", "Box", "Option"];
        let mut base: Option<String> = None;
        let mut angle = 0i32;
        while i < self.toks.len() {
            match &self.toks[i].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Punct(',') | Tok::Punct('}') if angle <= 0 => break,
                Tok::Ident(s) => {
                    if WRAPPERS.contains(&s.as_str()) {
                        // keep peeling: the payload type follows
                    } else if base.is_none() {
                        base = Some(s.clone());
                    } else if self.punct_at(i.wrapping_sub(1)) == Some(':') {
                        // Innermost segment of a path like `config::Config`.
                        base = Some(s.clone());
                    }
                    // Generic args of a concrete type (`MpscQueue<Event>`)
                    // do NOT override the base.
                }
                _ => {}
            }
            i += 1;
        }
        if self.punct_at(i) == Some(',') {
            i += 1;
        }
        (base, i)
    }

    /// After `fn`: name, body range, facts/calls/locks/atomics. With
    /// `skip`, consumes the item without recording it (cfg(test) fns).
    fn parse_fn(&mut self, mut i: usize, owner: Option<String>, skip: bool) -> usize {
        let Some(name) = self.ident_at(i).map(str::to_string) else {
            return i;
        };
        let header_line = self.toks[i].line;
        i += 1;
        // Find the body '{' at paren/angle depth 0; a ';' first means a
        // bodiless trait method.
        let mut par = 0i32;
        loop {
            match self.toks.get(i).map(|t| &t.tok) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => par += 1,
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => par -= 1,
                Some(Tok::Punct(';')) if par <= 0 => return i + 1,
                Some(Tok::Punct('{')) if par <= 0 => break,
                None => return i,
                _ => {}
            }
            i += 1;
        }
        let body_start = i + 1;
        // Find matching '}' for the body.
        let mut d = 1i64;
        let mut j = body_start;
        while j < self.toks.len() && d > 0 {
            match self.punct_at(j) {
                Some('{') => d += 1,
                Some('}') => d -= 1,
                _ => {}
            }
            j += 1;
        }
        let body_end = j.saturating_sub(1); // index of closing '}'
        if skip {
            return j;
        }
        let (hot, cold) = self.fn_annotations(header_line);
        let qname = match &owner {
            Some(t) => format!("{t}::{name}"),
            None => name.clone(),
        };
        let mut item = FnItem {
            file: self.file.to_string(),
            krate: self.krate.clone(),
            name,
            qname,
            owner,
            line: header_line,
            hot,
            cold,
            facts: Vec::new(),
            calls: Vec::new(),
            locks: Vec::new(),
        };
        self.scan_body(body_start, body_end, &mut item);
        self.resolve_guard_drops(body_start, body_end, &mut item);
        self.out.fns.push(item);
        // Resume the outer walk right after the body; braces inside were
        // consumed here, so the caller's depth is unchanged.
        j
    }

    /// Receiver chain ending just before token `i` (which is a '.'-access
    /// or '::'-path target): walks back through `ident ( . ident )*`.
    fn chain_before_dot(&self, mut i: usize) -> Vec<String> {
        let mut chain = Vec::new();
        while let Some(id) = self.ident_at(i) {
            chain.push(id.to_string());
            if i >= 2 && self.punct_at(i - 1) == Some('.') && self.ident_at(i - 2).is_some() {
                i -= 2;
            } else {
                break;
            }
        }
        chain.reverse();
        chain
    }

    fn scan_body(&mut self, start: usize, end: usize, item: &mut FnItem) {
        let mut k = start;
        while k < end {
            let line = self.toks[k].line;
            match self.toks[k].tok.clone() {
                Tok::Ident(w) => {
                    let next = self.punct_at(k + 1);
                    let prev = if k > 0 { self.punct_at(k - 1) } else { None };
                    if next == Some('!')
                        && matches!(self.punct_at(k + 2), Some('(') | Some('[') | Some('{'))
                    {
                        self.macro_fact(&w, line, item);
                        k += 3;
                        continue;
                    }
                    if next == Some('(') {
                        let is_method = prev == Some('.');
                        let is_path = prev == Some(':');
                        if is_method {
                            self.method_site(k, &w, line, item, end);
                        } else if is_path {
                            self.qualified_site(k, &w, line, item);
                        } else if !is_keyword(&w) {
                            // Bare call: lowercase start = function;
                            // uppercase = tuple-struct/enum constructor.
                            if w.chars().next().is_some_and(char::is_lowercase) {
                                item.calls.push(CallSite {
                                    callee: Callee::Bare(w.clone()),
                                    line,
                                    pos: k,
                                });
                            }
                        }
                    }
                    k += 1;
                }
                Tok::Punct('[') => {
                    // Indexing: '[' directly after an ident / ')' / ']'.
                    let indexing = k > 0
                        && match &self.toks[k - 1].tok {
                            Tok::Ident(w) => !is_keyword(w),
                            Tok::Punct(')') | Tok::Punct(']') => true,
                            _ => false,
                        };
                    if indexing && !self.line_in_bounds(line) {
                        item.facts.push(Fact {
                            kind: FactKind::Panic,
                            line,
                            what: "slice/array indexing (can panic)".into(),
                        });
                    }
                    k += 1;
                }
                _ => k += 1,
            }
        }
    }

    fn line_in_bounds(&self, line: usize) -> bool {
        self.out.in_bounds.iter().any(|t| t.target_line == line)
    }

    fn macro_fact(&self, name: &str, line: usize, item: &mut FnItem) {
        let alloc = ["format", "vec"];
        let block = ["println", "eprintln", "print", "eprint", "writeln", "dbg"];
        let panic = [
            "panic",
            "unreachable",
            "todo",
            "unimplemented",
            "assert",
            "assert_eq",
            "assert_ne",
        ];
        let kind = if alloc.contains(&name) {
            Some(FactKind::Alloc)
        } else if block.contains(&name) {
            Some(FactKind::Block)
        } else if panic.contains(&name) {
            if self.line_in_bounds(line) {
                None // a proved bounds/length assertion
            } else {
                Some(FactKind::Panic)
            }
        } else {
            None
        };
        if let Some(kind) = kind {
            item.facts.push(Fact {
                kind,
                line,
                what: format!("{name}! macro"),
            });
        }
    }

    /// `recv.method(` at token index `k` (the method ident).
    fn method_site(&mut self, k: usize, m: &str, line: usize, item: &mut FnItem, end: usize) {
        // Facts by method name.
        let alloc_m = [
            "clone",
            "to_owned",
            "to_string",
            "to_vec",
            "collect",
            "cloned",
        ];
        let block_m = ["lock", "recv", "join", "park", "wait", "flush"];
        let panic_m = ["unwrap", "expect"];
        if alloc_m.contains(&m) {
            item.facts.push(Fact {
                kind: FactKind::Alloc,
                line,
                what: format!(".{m}() allocates (or clones a non-Copy value)"),
            });
        } else if block_m.contains(&m) {
            item.facts.push(Fact {
                kind: FactKind::Block,
                line,
                what: format!(".{m}() blocks"),
            });
        } else if panic_m.contains(&m) && !self.line_in_bounds(line) {
            item.facts.push(Fact {
                kind: FactKind::Panic,
                line,
                what: format!(".{m}() can panic"),
            });
        }

        let chain = if k >= 2 {
            self.chain_before_dot(k - 2)
        } else {
            Vec::new()
        };

        // Lock site bookkeeping for the lock-order graph.
        if m == "lock" {
            let id = match (item.owner.as_deref(), chain.as_slice()) {
                (Some(t), [s, rest @ ..]) if s == "self" && !rest.is_empty() => {
                    format!("{t}.{}", rest.join("."))
                }
                (_, [.., last]) => format!("?.{last}"),
                _ => "?.?".into(),
            };
            let binding = self.stmt_let_binding(k);
            item.locks.push(LockSite {
                id,
                line,
                pos: k,
                held: binding.is_some(),
                binding,
                released_pos: None,
            });
        }

        // Atomic ops feed the pairing audit.
        if m == "load" || m == "store" || ATOMIC_RMW.contains(&m) {
            if let Some(field) = chain.last() {
                let orderings = self.orderings_in_args(k + 1, end);
                let rmw = ATOMIC_RMW.contains(&m);
                let rel = orderings
                    .iter()
                    .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst");
                let acq = orderings
                    .iter()
                    .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst");
                if !orderings.is_empty() {
                    self.out.atomics.push(AtomicOp {
                        field: field.clone(),
                        line,
                        release_store: rel && (m == "store" || rmw),
                        acquire_load: acq && (m == "load" || rmw),
                    });
                }
            }
        }

        // Call-site classification.
        let callee = match chain.as_slice() {
            [s] if s == "self" => Some(Callee::SelfMethod(m.to_string())),
            [s, ..] if s == "self" => Some(Callee::FieldChain(chain.clone(), m.to_string())),
            [] => None, // e.g. `).method(` — chained off an expression
            _ => Some(Callee::Method(m.to_string())),
        };
        let callee = callee.unwrap_or(Callee::Method(m.to_string()));
        item.calls.push(CallSite {
            callee,
            line,
            pos: k,
        });
    }

    /// `Path::method(` at token index `k` (the method ident).
    fn qualified_site(&mut self, k: usize, m: &str, line: usize, item: &mut FnItem) {
        // Walk back over `::` to the segment before the method.
        let ty = if k >= 3 && self.punct_at(k - 1) == Some(':') && self.punct_at(k - 2) == Some(':')
        {
            self.ident_at(k - 3).map(str::to_string)
        } else {
            None
        };
        let Some(ty) = ty else { return };
        // Qualified facts.
        let alloc_types = ["Box", "Rc", "String"];
        if alloc_types.contains(&ty.as_str())
            || (ty == "Vec" && m != "new")
            || (ty == "Arc" && m == "new")
        {
            item.facts.push(Fact {
                kind: FactKind::Alloc,
                line,
                what: format!("{ty}::{m} allocates"),
            });
        }
        if m == "sleep" || (ty == "File" || ty == "Condvar") {
            item.facts.push(Fact {
                kind: FactKind::Block,
                line,
                what: format!("{ty}::{m} blocks"),
            });
        }
        // Uppercase segment = associated fn of a type; lowercase = a free
        // fn behind a module or crate path (`damaris_format::crc32(…)`),
        // which resolves like a bare call — std paths fall out as
        // external because no scanned free fn carries their name.
        let callee = if ty.chars().next().is_some_and(char::is_uppercase) {
            Callee::Qualified(ty, m.to_string())
        } else {
            Callee::Bare(m.to_string())
        };
        item.calls.push(CallSite {
            callee,
            line,
            pos: k,
        });
    }

    /// Matches explicit `drop(<guard>)` statements against held lock
    /// sites, so the order graph doesn't see a re-acquire after a manual
    /// release as nesting.
    fn resolve_guard_drops(&self, start: usize, end: usize, item: &mut FnItem) {
        let mut k = start;
        while k + 3 < end {
            if self.ident_at(k) == Some("drop")
                && self.punct_at(k + 1) == Some('(')
                && self.punct_at(k + 3) == Some(')')
            {
                if let Some(name) = self.ident_at(k + 2) {
                    for l in item.locks.iter_mut() {
                        if l.pos < k
                            && l.released_pos.is_none()
                            && l.binding.as_deref() == Some(name)
                        {
                            l.released_pos = Some(k);
                        }
                    }
                }
            }
            k += 1;
        }
    }

    /// If the statement containing token `k` starts with `let`, the guard
    /// binding name (`let mut state = …` → `state`); else `None`.
    fn stmt_let_binding(&self, k: usize) -> Option<String> {
        let mut i = k;
        while i > 0 {
            i -= 1;
            match &self.toks[i].tok {
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => {
                    if self.ident_at(i + 1) != Some("let") {
                        return None;
                    }
                    let mut j = i + 2;
                    if self.ident_at(j) == Some("mut") {
                        j += 1;
                    }
                    return self.ident_at(j).map(str::to_string);
                }
                _ => {}
            }
        }
        None
    }

    /// Ordering idents (`Ordering::X`) inside the argument list opening at
    /// token `open` (must be '(').
    fn orderings_in_args(&self, open: usize, end: usize) -> Vec<String> {
        let mut out = Vec::new();
        if self.punct_at(open) != Some('(') {
            return out;
        }
        let mut par = 1;
        let mut i = open + 1;
        while i < end.min(self.toks.len()) && par > 0 {
            match &self.toks[i].tok {
                Tok::Punct('(') => par += 1,
                Tok::Punct(')') => par -= 1,
                Tok::Ident(s)
                    if ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
                        .contains(&s.as_str()) =>
                {
                    out.push(s.clone());
                }
                _ => {}
            }
            i += 1;
        }
        out
    }
}

fn strip_sep(s: &str) -> String {
    s.trim()
        .trim_start_matches(['—', '-', ':', '–'])
        .trim()
        .to_string()
}

fn is_keyword(w: &str) -> bool {
    [
        "if", "else", "while", "loop", "for", "match", "return", "let", "mut", "fn", "pub", "use",
        "mod", "impl", "struct", "enum", "trait", "where", "in", "as", "move", "ref", "break",
        "continue", "unsafe", "const", "static", "type", "crate", "super", "Self", "self", "dyn",
    ]
    .contains(&w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(
            "crates/core/src/test_input.rs",
            crate::lexer::split_lines(src),
        )
    }

    fn fn_named<'a>(p: &'a ParsedFile, q: &str) -> &'a FnItem {
        p.fns.iter().find(|f| f.qname == q).unwrap_or_else(|| {
            panic!(
                "no fn {q} in {:?}",
                p.fns.iter().map(|f| &f.qname).collect::<Vec<_>>()
            )
        })
    }

    #[test]
    fn fns_and_impl_owners() {
        let p = parse(
            "struct W { q: Arc<Queue> }\n\
             impl W {\n    fn go(&self) { self.q.push(1); }\n}\n\
             fn free() {}\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qname, "W::go");
        assert_eq!(p.fns[1].qname, "free");
        assert_eq!(p.structs[0].0, "W");
        assert_eq!(p.structs[0].1, vec![("q".to_string(), "Queue".to_string())]);
    }

    #[test]
    fn trait_impl_for_takes_the_type() {
        let p = parse("impl Drop for Guard {\n    fn drop(&mut self) { g(); }\n}\n");
        assert_eq!(p.fns[0].qname, "Guard::drop");
    }

    #[test]
    fn hot_and_cold_annotations() {
        let p = parse(
            "// ANALYZE: hot\nfn fast() {}\n\
             // ANALYZE: hot(strict)\nfn faster() {}\n\
             #[cold]\nfn slow() {}\n\
             // ANALYZE: cold — error path by design\nfn slower() {}\n",
        );
        assert_eq!(fn_named(&p, "fast").hot, Some(false));
        assert_eq!(fn_named(&p, "faster").hot, Some(true));
        assert_eq!(fn_named(&p, "slow").cold.as_deref(), Some("#[cold]"));
        assert_eq!(
            fn_named(&p, "slower").cold.as_deref(),
            Some("error path by design")
        );
    }

    #[test]
    fn alloc_block_panic_facts() {
        let p = parse(
            "fn f(v: &Foo) {\n\
                 let s = format!(\"x{}\", 1);\n\
                 let b = Box::new(3);\n\
                 let c = v.clone();\n\
                 let g = v.inner.lock();\n\
                 std::thread::sleep(d);\n\
                 let u = opt.unwrap();\n\
                 let i = xs[0];\n\
             }\n",
        );
        let kinds: Vec<FactKind> = p.fns[0].facts.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FactKind::Alloc, // format!
                FactKind::Alloc, // Box::new
                FactKind::Alloc, // .clone()
                FactKind::Block, // .lock()
                FactKind::Block, // sleep
                FactKind::Panic, // .unwrap()
                FactKind::Panic, // indexing
            ]
        );
    }

    #[test]
    fn vec_new_is_not_growth_but_with_capacity_is() {
        let p = parse("fn f() { let a = Vec::new(); let b = Vec::with_capacity(4); }\n");
        assert_eq!(p.fns[0].facts.len(), 1);
        assert!(p.fns[0].facts[0].what.contains("with_capacity"));
    }

    #[test]
    fn in_bounds_tag_suppresses_indexing_and_asserts() {
        let p = parse(
            "fn f(xs: &[u8], m: usize, p: usize) {\n\
                 // ANALYZE: in-bounds(p & m < xs.len() by mask construction)\n\
                 let v = xs[p & m];\n\
                 assert_eq!(xs.len(), m);\n\
             }\n",
        );
        // The tagged line is clean; the untagged assert still reports.
        assert_eq!(p.fns[0].facts.len(), 1);
        assert_eq!(p.fns[0].facts[0].line, 4);
        assert_eq!(p.in_bounds.len(), 1);
    }

    #[test]
    fn waiver_parsing_and_bogus_detection() {
        let p = parse(
            "fn f() {\n\
                 // ANALYZE: allow(hot-alloc) — one-time startup buffer\n\
                 let v = Vec::with_capacity(8);\n\
                 // ANALYZE: allow(no-such-rule) — nope\n\
                 let w = 1;\n\
                 // ANALYZE: allow(hot-panic)\n\
                 let u = o.unwrap();\n\
             }\n",
        );
        assert_eq!(p.waivers.len(), 1);
        assert_eq!(p.waivers[0].rule, "hot-alloc");
        assert_eq!(p.waivers[0].target_line, 3);
        assert_eq!(p.bogus.len(), 2, "unknown rule + missing justification");
    }

    #[test]
    fn call_sites_classified() {
        let p = parse(
            "impl C {\n\
               fn f(&self) {\n\
                 self.helper();\n\
                 self.shared.queue.push_wait(e);\n\
                 Other::build(1);\n\
                 local.push_wait(x);\n\
                 free_fn(2);\n\
                 other_crate::checksum::free_fn(3);\n\
               }\n\
             }\n",
        );
        let calls = &p.fns[0].calls;
        assert!(matches!(&calls[0].callee, Callee::SelfMethod(m) if m == "helper"));
        assert!(
            matches!(&calls[1].callee, Callee::FieldChain(c, m) if c == &["self", "shared", "queue"] && m == "push_wait")
        );
        assert!(
            matches!(&calls[2].callee, Callee::Qualified(t, m) if t == "Other" && m == "build")
        );
        assert!(matches!(&calls[3].callee, Callee::Method(m) if m == "push_wait"));
        assert!(matches!(&calls[4].callee, Callee::Bare(f) if f == "free_fn"));
        // A module path in front of a free fn does not hide it.
        assert!(matches!(&calls[5].callee, Callee::Bare(f) if f == "free_fn"));
    }

    #[test]
    fn multiline_atomic_ops_parse() {
        let p = parse(
            "impl Q {\n\
               fn f(&self, s: &Slot) {\n\
                 s.seq\n\
                     .compare_exchange(\n\
                         a,\n\
                         b,\n\
                         Ordering::Acquire,\n\
                         Ordering::Relaxed,\n\
                     );\n\
                 s.seq.store(1, Ordering::Release);\n\
                 self.head.load(Ordering::Relaxed);\n\
               }\n\
             }\n",
        );
        assert_eq!(p.atomics.len(), 3);
        assert!(p.atomics[0].acquire_load && !p.atomics[0].release_store);
        assert!(p.atomics[1].release_store && !p.atomics[1].acquire_load);
        assert!(!p.atomics[2].acquire_load && !p.atomics[2].release_store);
        assert_eq!(p.atomics[0].field, "seq");
    }

    #[test]
    fn lock_sites_and_held_detection() {
        let p = parse(
            "impl J {\n\
               fn f(&self) {\n\
                 let mut inner = self.inner.lock();\n\
                 self.aux.lock().touch();\n\
               }\n\
             }\n",
        );
        let locks = &p.fns[0].locks;
        assert_eq!(locks.len(), 2);
        assert_eq!(locks[0].id, "J.inner");
        assert!(locks[0].held);
        assert_eq!(locks[1].id, "J.aux");
        assert!(!locks[1].held);
    }

    #[test]
    fn test_regions_are_excluded() {
        let p = parse(
            "fn real() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { x.unwrap(); }\n\
             }\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].qname, "real");
    }

    #[test]
    fn bodiless_trait_methods_skipped() {
        let p = parse("trait T {\n    fn a(&self);\n    fn b(&self) { f(); }\n}\n");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "b");
    }
}
