//! Layout definitions: the configuration-side description of a variable's
//! shape (paper §III-B), including the Fortran/C dimension-order handling
//! from the paper's `language="fortran"` attribute.

use crate::error::DamarisError;
use damaris_format::{DataType, Layout};
use damaris_xml::Element;

/// Index-order convention of the writing language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Language {
    /// Row-major; dimensions are stored as declared.
    #[default]
    C,
    /// Column-major; the declared dimensions are reversed so the stored
    /// layout is always row-major ("fastest dimension last").
    Fortran,
}

/// A named layout from the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutDef {
    pub name: String,
    pub dtype: DataType,
    /// Dimensions exactly as declared in the configuration.
    pub declared_dims: Vec<u64>,
    pub language: Language,
    /// `dimensions="?"`: the shape is provided at write time — the paper's
    /// API for "arrays that don't have a static shape (which is the case in
    /// particle-based simulations)" (§III-D).
    pub dynamic: bool,
}

impl LayoutDef {
    /// Parses a `<layout name=… type=… dimensions=… [language=…]/>` element.
    pub fn from_xml(e: &Element) -> Result<Self, DamarisError> {
        let name = e
            .attr("name")
            .ok_or_else(|| DamarisError::Config("<layout> missing 'name'".into()))?
            .to_string();
        let type_name = e
            .attr("type")
            .ok_or_else(|| DamarisError::Config(format!("layout '{name}' missing 'type'")))?;
        let dtype = DataType::from_config_name(type_name).ok_or_else(|| {
            DamarisError::Config(format!("layout '{name}': unknown type '{type_name}'"))
        })?;
        let dims_spec = e
            .attr("dimensions")
            .ok_or_else(|| DamarisError::Config(format!("layout '{name}' missing 'dimensions'")))?;
        let dynamic = dims_spec.trim() == "?";
        let declared_dims = if dynamic {
            Vec::new()
        } else {
            Layout::parse_dimensions(dims_spec)
                .map_err(|err| DamarisError::Config(format!("layout '{name}': {err}")))?
        };
        let language = match e.attr("language") {
            None | Some("c") | Some("C") => Language::C,
            Some("fortran") | Some("Fortran") | Some("FORTRAN") => Language::Fortran,
            Some(other) => {
                return Err(DamarisError::Config(format!(
                    "layout '{name}': unknown language '{other}'"
                )))
            }
        };
        Ok(LayoutDef {
            name,
            dtype,
            declared_dims,
            language,
            dynamic,
        })
    }

    /// The storage layout: row-major dims (Fortran declarations reversed).
    ///
    /// Panics for dynamic layouts — their shape only exists per write.
    pub fn storage_layout(&self) -> Layout {
        assert!(!self.dynamic, "layout '{}' is dynamic", self.name);
        let dims: Vec<u64> = match self.language {
            Language::C => self.declared_dims.clone(),
            Language::Fortran => self.declared_dims.iter().rev().copied().collect(),
        };
        Layout::new(self.dtype, &dims)
    }

    /// Total byte size of one instance of this layout, computed without
    /// materializing the storage [`Layout`] — this sits on the `write()`
    /// fast path (dimension order does not affect the product, so the
    /// Fortran reversal is irrelevant here; empty dims = scalar = one
    /// element, matching [`Layout::byte_size`]).
    pub fn byte_size(&self) -> u64 {
        self.declared_dims.iter().product::<u64>() * self.dtype.size() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_xml::parse;

    #[test]
    fn parses_paper_example() {
        // The exact layout from the paper's §III-D example.
        let e = parse(
            r#"<layout name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>"#,
        )
        .unwrap();
        let l = LayoutDef::from_xml(&e).unwrap();
        assert_eq!(l.name, "my_layout");
        assert_eq!(l.dtype, DataType::F32);
        assert_eq!(l.declared_dims, vec![64, 16, 2]);
        assert_eq!(l.language, Language::Fortran);
        // Fortran: fastest-varying first in the declaration → reversed for
        // row-major storage.
        assert_eq!(l.storage_layout().dims, vec![2, 16, 64]);
        assert_eq!(l.byte_size(), 64 * 16 * 2 * 4);
    }

    #[test]
    fn c_language_keeps_order() {
        let e = parse(r#"<layout name="l" type="double" dimensions="3,5"/>"#).unwrap();
        let l = LayoutDef::from_xml(&e).unwrap();
        assert_eq!(l.language, Language::C);
        assert_eq!(l.storage_layout().dims, vec![3, 5]);
        assert_eq!(l.byte_size(), 120);
    }

    #[test]
    fn missing_attributes_rejected() {
        for bad in [
            r#"<layout type="real" dimensions="4"/>"#,
            r#"<layout name="l" dimensions="4"/>"#,
            r#"<layout name="l" type="real"/>"#,
            r#"<layout name="l" type="complex" dimensions="4"/>"#,
            r#"<layout name="l" type="real" dimensions="4" language="cobol"/>"#,
            r#"<layout name="l" type="real" dimensions="4,x"/>"#,
        ] {
            let e = parse(bad).unwrap();
            assert!(LayoutDef::from_xml(&e).is_err(), "{bad}");
        }
    }

    #[test]
    fn dynamic_layout() {
        let e = parse(r#"<layout name="particles" type="real" dimensions="?"/>"#).unwrap();
        let l = LayoutDef::from_xml(&e).unwrap();
        assert!(l.dynamic);
        assert!(l.declared_dims.is_empty());
    }

    #[test]
    #[should_panic(expected = "is dynamic")]
    fn dynamic_layout_has_no_static_storage() {
        let e = parse(r#"<layout name="p" type="real" dimensions="?"/>"#).unwrap();
        LayoutDef::from_xml(&e).unwrap().storage_layout();
    }

    #[test]
    fn scalar_layout() {
        let e = parse(r#"<layout name="t" type="double" dimensions=""/>"#).unwrap();
        let l = LayoutDef::from_xml(&e).unwrap();
        assert_eq!(l.byte_size(), 8);
    }
}
