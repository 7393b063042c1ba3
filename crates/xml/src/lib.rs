//! # damaris-xml
//!
//! A minimal, dependency-free XML parser and writer.
//!
//! Damaris (the CLUSTER 2012 middleware this workspace reproduces) is
//! configured through an external XML file describing layouts, variables and
//! event→action bindings. This crate implements the XML subset that
//! configuration schema needs:
//!
//! * elements with attributes, nested children and text content,
//! * comments (`<!-- … -->`), processing instructions and XML declarations
//!   (skipped), CDATA sections,
//! * the five predefined entities (`&lt; &gt; &amp; &apos; &quot;`) plus
//!   numeric character references (`&#10;`, `&#x41;`),
//! * single- or double-quoted attribute values,
//! * well-formedness checks: matching end tags, a single root element, no
//!   duplicate attributes.
//!
//! It deliberately omits DTDs, namespaces-as-semantics (prefixes are kept as
//! part of the name) and external entities.
//!
//! ## Example
//!
//! ```
//! use damaris_xml::Element;
//!
//! let doc = damaris_xml::parse(
//!     r#"<variable name="my_variable" layout="my_layout"/>"#,
//! ).unwrap();
//! assert_eq!(doc.name, "variable");
//! assert_eq!(doc.attr("name"), Some("my_variable"));
//!
//! let e = Element::new("event")
//!     .with_attr("action", "do_something")
//!     .with_attr("using", "my_plugin.so");
//! assert!(e.to_xml().contains("action=\"do_something\""));
//! ```

mod lexer;
mod parser;
mod writer;

pub use parser::{parse, parse_document, Document, ParseError};

use std::fmt;

/// A node in the XML tree: either a child element or a run of text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Decoded character data (entities already resolved, CDATA unwrapped).
    Text(String),
}

/// An XML element: name, ordered attributes, and ordered child nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name, including any namespace prefix verbatim (`ns:tag`).
    pub name: String,
    /// Attributes in document order. Duplicate names are rejected at parse
    /// time, so lookup by name is unambiguous.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style attribute addition. Replaces an existing attribute of
    /// the same name.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder-style child-element addition.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style text-node addition.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Sets or replaces an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up an attribute and parses it, reporting which attribute failed.
    pub fn attr_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.attr(name) {
            None => Ok(None),
            Some(raw) => raw
                .trim()
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("attribute '{name}' has unparsable value '{raw}'")),
        }
    }

    /// Iterates over child *elements* (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Returns the first child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Concatenated text content of this element's direct text children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Recursively searches the subtree (depth-first, this element included)
    /// for the first element with the given name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        if self.name == name {
            return Some(self);
        }
        for c in self.child_elements() {
            if let Some(found) = c.find(name) {
                return Some(found);
            }
        }
        None
    }

    /// Serializes this element (and its subtree) to an XML string without a
    /// declaration header.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        writer::write_element(&mut out, self, 0, false);
        out
    }

    /// Serializes with two-space indentation, one element per line.
    pub fn to_xml_pretty(&self) -> String {
        let mut out = String::new();
        writer::write_element(&mut out, self, 0, true);
        out
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let e = Element::new("layout")
            .with_attr("name", "my_layout")
            .with_attr("type", "real")
            .with_attr("dimensions", "64,16,2");
        assert_eq!(e.attr("type"), Some("real"));
        assert_eq!(e.attr("missing"), None);
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = Element::new("x").with_attr("a", "1");
        e.set_attr("a", "2");
        assert_eq!(e.attr("a"), Some("2"));
        assert_eq!(e.attributes.len(), 1);
    }

    #[test]
    fn attr_parse_reports_name() {
        let e = Element::new("x").with_attr("n", "abc");
        let err = e.attr_parse::<u32>("n").unwrap_err();
        assert!(err.contains("'n'"), "{err}");
        let ok: Option<u32> = Element::new("x")
            .with_attr("n", " 42 ")
            .attr_parse("n")
            .unwrap();
        assert_eq!(ok, Some(42));
    }

    #[test]
    fn find_descends() {
        let doc = Element::new("simulation").with_child(
            Element::new("data").with_child(Element::new("variable").with_attr("name", "u")),
        );
        assert_eq!(doc.find("variable").unwrap().attr("name"), Some("u"));
        assert!(doc.find("nope").is_none());
    }

    #[test]
    fn text_concatenates() {
        let e = Element::new("d")
            .with_text("a")
            .with_child(Element::new("x"))
            .with_text("b");
        assert_eq!(e.text(), "ab");
    }
}
