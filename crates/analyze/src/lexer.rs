//! Source preparation for the analysis pass: a line-oriented Rust lexer
//! that keeps each line's comment apart from its code — the `ANALYZE:`
//! annotations and the tag rules' justifications live in comments, and a
//! string, raw string or block comment that spans lines is never code —
//! plus a token stream over the stripped code with line numbers
//! preserved, so multi-line expressions (a `compare_exchange` split across
//! four lines, a receiver chain broken before its method) parse the same
//! as single-line ones.

/// Lexer state carried across lines.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    /// Inside `/* ... */`, tracking nesting depth.
    BlockComment(u32),
    /// Inside a raw string literal, remembering its `#` count.
    RawStr(u32),
    /// Inside an ordinary `"` string literal that did not close on its
    /// starting line (Rust strings span lines).
    Str,
}

/// One source line split into its code part (string/char literals hollowed
/// out, comments removed) and its line comment (from its `//` on).
pub struct Line {
    pub code: String,
    pub comment: String,
}

impl Line {
    /// The comment's text, without its `//`/`///` marker.
    pub fn comment_text(&self) -> &str {
        self.comment.trim_start_matches('/').trim()
    }
}

/// Splits `src` into per-line code and comment parts.
pub fn split_lines(src: &str) -> Vec<Line> {
    let mut mode = Mode::Code;
    let mut out = Vec::new();
    for raw in src.lines() {
        let (code, comment, next) = strip_line(raw, mode);
        mode = next;
        out.push(Line { code, comment });
    }
    out
}

fn strip_line(raw: &str, mut mode: Mode) -> (String, String, Mode) {
    let b = raw.as_bytes();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
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
            Mode::Str => {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'"' {
                    i += 1;
                    mode = Mode::Code;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
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
                b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                    // Line comment: capture it, marker included (tags and
                    // annotations live here; a bare `//` still counts as a
                    // comment line), and stop lexing code for this line.
                    comment.push_str(&raw[i..]);
                    i = b.len();
                }
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
                        code.push('r');
                        i += 1;
                    }
                }
                b'"' => {
                    i += 1;
                    mode = Mode::Str;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'"' {
                            i += 1;
                            mode = Mode::Code;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                }
                b'\'' => {
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
                    code.push(c as char);
                    i += 1;
                }
            },
        }
    }
    (code, comment, mode)
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// A token of the stripped code stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (also numeric literals — the analysis never
    /// distinguishes them from idents, and lumping them keeps the lexer
    /// trivial).
    Ident(String),
    /// Any single punctuation byte (`.`, `:`, `(`, `[`, `!`, …).
    Punct(char),
}

/// A token plus the 1-based line it came from.
#[derive(Debug, Clone)]
pub struct SpannedTok {
    pub tok: Tok,
    pub line: usize,
}

/// Tokenizes the code parts of pre-split lines.
pub fn tokenize(lines: &[Line]) -> Vec<SpannedTok> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let line_no = idx + 1;
        let b = line.code.as_bytes();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_ascii_whitespace() {
                i += 1;
            } else if c.is_ascii_alphanumeric() || c == b'_' {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(SpannedTok {
                    tok: Tok::Ident(line.code[start..i].to_string()),
                    line: line_no,
                });
            } else if c.is_ascii() {
                toks.push(SpannedTok {
                    tok: Tok::Punct(c as char),
                    line: line_no,
                });
                i += 1;
            } else {
                // Multi-byte char (stray unicode in code position): skip.
                let ch_len = line.code[i..].chars().next().map_or(1, char::len_utf8);
                i += ch_len;
            }
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(&split_lines(src))
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                Tok::Punct(_) => None,
            })
            .collect()
    }

    #[test]
    fn comments_captured_code_stripped() {
        let lines = split_lines("let x = 1; // ANALYZE: hot\nlet y = 2;");
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("ANALYZE: hot"));
        assert!(lines[1].comment.is_empty());
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let v = idents(r#"let s = "Vec::with_capacity(9)"; f();"#);
        assert!(!v.contains(&"with_capacity".to_string()));
        assert!(v.contains(&"f".to_string()));
    }

    #[test]
    fn block_comments_span_lines() {
        let v = idents("a(); /* lock()\nstill comment */ b();");
        assert_eq!(v, vec!["a", "b"]);
    }

    #[test]
    fn raw_strings_span_lines() {
        let v = idents("let s = r#\"format!\nmore\"#; g();");
        assert!(!v.contains(&"format".to_string()));
        assert!(v.contains(&"g".to_string()));
    }

    #[test]
    fn tokens_carry_line_numbers() {
        let toks = tokenize(&split_lines("a\n  .b(\n)"));
        let lines: Vec<(String, usize)> = toks
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some((s.clone(), t.line)),
                Tok::Punct(_) => None,
            })
            .collect();
        assert_eq!(lines, vec![("a".into(), 1), ("b".into(), 2)]);
    }

    #[test]
    fn plain_strings_span_lines() {
        // A multi-line string literal must not leak its contents as code
        // or comments on the following lines (the analyzer's own test
        // corpus embeds annotated sources as multi-line literals).
        let lines = split_lines("let s = \"fn f() {\n// ANALYZE: hot\nBox::new(1)\n}\"; g();");
        assert!(lines.iter().all(|l| l.comment.is_empty()));
        let v = idents("let s = \"fn f() {\n// ANALYZE: hot\nBox::new(1)\n}\"; g();");
        assert!(!v.contains(&"Box".to_string()));
        assert!(v.contains(&"g".to_string()));
    }

    #[test]
    fn lifetimes_and_chars_do_not_open_strings() {
        let v = idents("fn f<'a>(x: &'a u8) { g('x'); }");
        assert!(v.contains(&"g".to_string()));
        assert!(v.contains(&"f".to_string()));
    }
}
