//! Tokenizer for the XML subset.
//!
//! The lexer walks the input byte-by-byte (input is required to be valid
//! UTF-8 since it arrives as `&str`) and produces a flat token stream the
//! parser turns into a tree. Positions are tracked as line/column for error
//! reporting.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    pub line: u32,
    pub col: u32,
}

impl Default for Pos {
    fn default() -> Self {
        Pos { line: 1, col: 1 }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<name attr="v" ...>` — `self_closing` is true for `<name/>`.
    StartTag {
        name: String,
        attributes: Vec<(String, String)>,
        self_closing: bool,
        pos: Pos,
    },
    /// `</name>`
    EndTag { name: String, pos: Pos },
    /// Character data between tags, entities decoded, CDATA unwrapped.
    Text { content: String, pos: Pos },
}

/// Lexing error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

pub struct Lexer<'a> {
    input: &'a [u8],
    offset: usize,
    pos: Pos,
}

impl<'a> Lexer<'a> {
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input: input.as_bytes(),
            offset: 0,
            pos: Pos::default(),
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, LexError> {
        Err(LexError {
            message: message.into(),
            pos: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.offset).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.offset..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.offset += 1;
        if b == b'\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
        Some(b)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Consumes input until the delimiter string, returning the consumed
    /// slice (delimiter excluded, but consumed).
    fn take_until(&mut self, delim: &str, what: &str) -> Result<String, LexError> {
        let start = self.offset;
        while self.offset < self.input.len() {
            if self.starts_with(delim) {
                let content = String::from_utf8_lossy(&self.input[start..self.offset]).into_owned();
                self.bump_n(delim.len());
                return Ok(content);
            }
            self.bump();
        }
        self.err(format!("unterminated {what} (expected '{delim}')"))
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn read_name(&mut self) -> Result<String, LexError> {
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {}
            _ => return self.err("expected a name"),
        }
        let start = self.offset;
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.bump();
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.offset]).into_owned())
    }

    /// Decodes an entity reference; the leading `&` has been consumed.
    fn read_entity(&mut self) -> Result<char, LexError> {
        let body = self.take_until(";", "entity reference")?;
        match body.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ => {
                if let Some(num) = body.strip_prefix("#x").or_else(|| body.strip_prefix("#X")) {
                    let cp = u32::from_str_radix(num, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or(())
                        .or_else(|_| self.err(format!("invalid character reference '&{body};'")))?;
                    Ok(cp)
                } else if let Some(num) = body.strip_prefix('#') {
                    let cp = num
                        .parse::<u32>()
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or(())
                        .or_else(|_| self.err(format!("invalid character reference '&{body};'")))?;
                    Ok(cp)
                } else {
                    self.err(format!("unknown entity '&{body};'"))
                }
            }
        }
    }

    fn read_attr_value(&mut self) -> Result<String, LexError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        self.bump();
        let mut value = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated attribute value"),
                Some(b) if b == quote => {
                    self.bump();
                    return Ok(value);
                }
                Some(b'<') => return self.err("'<' not allowed in attribute value"),
                Some(b'&') => {
                    self.bump();
                    value.push(self.read_entity()?);
                }
                Some(b) if b < 0x80 => {
                    self.bump();
                    value.push(b as char);
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar value.
                    let s = &self.input[self.offset..];
                    let text = std::str::from_utf8(s)
                        .map_err(|_| ())
                        .or_else(|_| self.err("invalid UTF-8"))?;
                    let ch = text.chars().next().expect("non-empty");
                    value.push(ch);
                    self.bump_n(ch.len_utf8());
                }
            }
        }
    }

    /// Lexes the tag that starts at the current `<`.
    fn read_tag(&mut self) -> Result<Option<Token>, LexError> {
        let pos = self.pos;
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.bump(); // consume '<'
        match self.peek() {
            Some(b'?') => {
                // XML declaration / processing instruction: skip.
                self.take_until("?>", "processing instruction")?;
                Ok(None)
            }
            Some(b'!') => {
                if self.starts_with("!--") {
                    self.bump_n(3);
                    self.take_until("-->", "comment")?;
                    Ok(None)
                } else if self.starts_with("![CDATA[") {
                    self.bump_n(8);
                    let content = self.take_until("]]>", "CDATA section")?;
                    Ok(Some(Token::Text { content, pos }))
                } else if self.starts_with("!DOCTYPE") {
                    // Skip a (non-nested) DOCTYPE declaration.
                    self.take_until(">", "DOCTYPE")?;
                    Ok(None)
                } else {
                    self.err("unsupported markup declaration")
                }
            }
            Some(b'/') => {
                self.bump();
                let name = self.read_name()?;
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return self.err(format!("malformed end tag '</{name}'"));
                }
                self.bump();
                Ok(Some(Token::EndTag { name, pos }))
            }
            _ => {
                let name = self.read_name()?;
                let mut attributes: Vec<(String, String)> = Vec::new();
                loop {
                    self.skip_whitespace();
                    match self.peek() {
                        Some(b'>') => {
                            self.bump();
                            return Ok(Some(Token::StartTag {
                                name,
                                attributes,
                                self_closing: false,
                                pos,
                            }));
                        }
                        Some(b'/') => {
                            self.bump();
                            if self.peek() != Some(b'>') {
                                return self.err("expected '>' after '/'");
                            }
                            self.bump();
                            return Ok(Some(Token::StartTag {
                                name,
                                attributes,
                                self_closing: true,
                                pos,
                            }));
                        }
                        Some(_) => {
                            let attr_name = self.read_name()?;
                            if attributes.iter().any(|(n, _)| *n == attr_name) {
                                return self.err(format!("duplicate attribute '{attr_name}'"));
                            }
                            self.skip_whitespace();
                            if self.peek() != Some(b'=') {
                                return self
                                    .err(format!("expected '=' after attribute '{attr_name}'"));
                            }
                            self.bump();
                            self.skip_whitespace();
                            let value = self.read_attr_value()?;
                            attributes.push((attr_name, value));
                        }
                        None => return self.err("unterminated start tag"),
                    }
                }
            }
        }
    }

    /// Lexes a text run up to the next `<`.
    fn read_text(&mut self) -> Result<Token, LexError> {
        let pos = self.pos;
        let mut content = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => break,
                Some(b'&') => {
                    self.bump();
                    content.push(self.read_entity()?);
                }
                Some(b) if b < 0x80 => {
                    self.bump();
                    content.push(b as char);
                }
                Some(_) => {
                    let s = &self.input[self.offset..];
                    let text = std::str::from_utf8(s)
                        .map_err(|_| ())
                        .or_else(|_| self.err("invalid UTF-8"))?;
                    let ch = text.chars().next().expect("non-empty");
                    content.push(ch);
                    self.bump_n(ch.len_utf8());
                }
            }
        }
        Ok(Token::Text { content, pos })
    }

    /// Produces the full token stream.
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        let mut tokens = Vec::new();
        while self.offset < self.input.len() {
            if self.peek() == Some(b'<') {
                if let Some(tok) = self.read_tag()? {
                    tokens.push(tok);
                }
            } else {
                let tok = self.read_text()?;
                if let Token::Text { ref content, .. } = tok {
                    if !content.is_empty() {
                        tokens.push(tok);
                    }
                }
            }
        }
        Ok(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token> {
        Lexer::new(s).tokenize().expect("lex ok")
    }

    #[test]
    fn simple_tag_with_attrs() {
        let toks = lex(r#"<layout name="l" type='real'/>"#);
        assert_eq!(toks.len(), 1);
        match &toks[0] {
            Token::StartTag {
                name,
                attributes,
                self_closing,
                ..
            } => {
                assert_eq!(name, "layout");
                assert!(self_closing);
                assert_eq!(attributes[0], ("name".into(), "l".into()));
                assert_eq!(attributes[1], ("type".into(), "real".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entities_decode() {
        let toks = lex("<a>x &lt;&amp;&gt; &#65;&#x42;</a>");
        match &toks[1] {
            Token::Text { content, .. } => assert_eq!(content, "x <&> AB"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_pi_skipped() {
        let toks = lex("<?xml version=\"1.0\"?><!-- hi --><a/><!-- bye -->");
        assert_eq!(toks.len(), 1);
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let toks = lex("<a><![CDATA[1 < 2 && 3 > 2]]></a>");
        match &toks[1] {
            Token::Text { content, .. } => assert_eq!(content, "1 < 2 && 3 > 2"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Lexer::new(r#"<a x="1" x="2"/>"#).tokenize().unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn unterminated_tag_rejected() {
        assert!(Lexer::new("<a ").tokenize().is_err());
        assert!(Lexer::new("<a x=\"1").tokenize().is_err());
        assert!(Lexer::new("<!-- never closed").tokenize().is_err());
    }

    #[test]
    fn position_tracking_counts_lines() {
        let err = Lexer::new("<a>\n\n  <b x=1/>\n</a>")
            .tokenize()
            .unwrap_err();
        assert_eq!(err.pos.line, 3);
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(Lexer::new("<a>&nbsp;</a>").tokenize().is_err());
    }

    #[test]
    fn utf8_text_and_attrs() {
        let toks = lex("<a t=\"héllo\">wörld</a>");
        match &toks[0] {
            Token::StartTag { attributes, .. } => {
                assert_eq!(attributes[0].1, "héllo");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &toks[1] {
            Token::Text { content, .. } => assert_eq!(content, "wörld"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
