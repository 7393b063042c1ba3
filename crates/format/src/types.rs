//! Element types, layouts (the paper's ⟨type, dimensions, extents⟩ triple)
//! and attribute values.

use crate::SdfError;

/// Scalar element type of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    U8,
    I32,
    I64,
    F32,
    F64,
}

impl DataType {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            DataType::U8 => 1,
            DataType::I32 | DataType::F32 => 4,
            DataType::I64 | DataType::F64 => 8,
        }
    }

    /// Stable on-disk tag.
    pub const fn tag(self) -> u8 {
        match self {
            DataType::U8 => 0,
            DataType::I32 => 1,
            DataType::I64 => 2,
            DataType::F32 => 3,
            DataType::F64 => 4,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => DataType::U8,
            1 => DataType::I32,
            2 => DataType::I64,
            3 => DataType::F32,
            4 => DataType::F64,
            _ => return None,
        })
    }

    /// Name used in Damaris XML configuration (`type="real"` etc.). Follows
    /// the paper's Fortran-flavoured vocabulary plus C-style aliases.
    pub fn from_config_name(name: &str) -> Option<Self> {
        Some(match name {
            "real" | "float" | "f32" => DataType::F32,
            "double" | "f64" => DataType::F64,
            "integer" | "int" | "i32" => DataType::I32,
            "long" | "i64" => DataType::I64,
            "byte" | "char" | "u8" => DataType::U8,
            _ => return None,
        })
    }
}

/// The shape of a dataset: element type plus per-dimension extents.
///
/// This is the paper's "layout: a description of the structure of the data:
/// type, number of dimensions and extents" (§III-B).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    pub dtype: DataType,
    pub dims: Vec<u64>,
}

impl Layout {
    /// Creates a layout; zero-dimension layouts describe scalars.
    pub fn new(dtype: DataType, dims: &[u64]) -> Self {
        Layout {
            dtype,
            dims: dims.to_vec(),
        }
    }

    /// Scalar layout (one element).
    pub fn scalar(dtype: DataType) -> Self {
        Layout {
            dtype,
            dims: Vec::new(),
        }
    }

    /// Total number of elements.
    pub fn element_count(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Total payload size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.element_count() * self.dtype.size() as u64
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Validates that a byte buffer matches this layout exactly.
    pub fn check_bytes(&self, len: usize) -> Result<(), SdfError> {
        if len as u64 != self.byte_size() {
            return Err(SdfError::Usage(format!(
                "data is {len} bytes but layout {:?}×{:?} needs {}",
                self.dtype,
                self.dims,
                self.byte_size()
            )));
        }
        Ok(())
    }

    /// Parses the paper's comma-separated `dimensions="64,16,2"` attribute.
    pub fn parse_dimensions(spec: &str) -> Result<Vec<u64>, SdfError> {
        if spec.trim().is_empty() {
            return Ok(Vec::new());
        }
        spec.split(',')
            .map(|part| {
                part.trim()
                    .parse::<u64>()
                    .map_err(|_| SdfError::Usage(format!("bad dimension '{part}' in '{spec}'")))
            })
            .collect()
    }
}

/// A small typed value attached to a dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    I64(i64),
    F64(f64),
    Str(String),
}

impl AttrValue {
    pub(crate) fn tag(&self) -> u8 {
        match self {
            AttrValue::I64(_) => 0,
            AttrValue::F64(_) => 1,
            AttrValue::Str(_) => 2,
        }
    }

    /// Convenience accessor.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrValue::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::F64(v) => Some(*v),
            AttrValue::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Convenience accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sizes_and_tags() {
        for dt in [
            DataType::U8,
            DataType::I32,
            DataType::I64,
            DataType::F32,
            DataType::F64,
        ] {
            assert_eq!(DataType::from_tag(dt.tag()), Some(dt));
        }
        assert_eq!(DataType::F64.size(), 8);
        assert_eq!(DataType::from_tag(99), None);
    }

    #[test]
    fn config_names_match_paper() {
        // The paper's example uses type="real" for a Fortran real array.
        assert_eq!(DataType::from_config_name("real"), Some(DataType::F32));
        assert_eq!(DataType::from_config_name("double"), Some(DataType::F64));
        assert_eq!(DataType::from_config_name("integer"), Some(DataType::I32));
        assert_eq!(DataType::from_config_name("quaternion"), None);
    }

    #[test]
    fn layout_math() {
        let l = Layout::new(DataType::F32, &[64, 16, 2]);
        assert_eq!(l.element_count(), 2048);
        assert_eq!(l.byte_size(), 8192);
        assert_eq!(l.rank(), 3);
        assert!(l.check_bytes(8192).is_ok());
        assert!(l.check_bytes(8191).is_err());
        let s = Layout::scalar(DataType::I64);
        assert_eq!(s.element_count(), 1);
        assert_eq!(s.byte_size(), 8);
    }

    #[test]
    fn dimension_parsing() {
        assert_eq!(
            Layout::parse_dimensions("64,16,2").unwrap(),
            vec![64, 16, 2]
        );
        assert_eq!(Layout::parse_dimensions(" 4 , 5 ").unwrap(), vec![4, 5]);
        assert_eq!(Layout::parse_dimensions("").unwrap(), Vec::<u64>::new());
        assert!(Layout::parse_dimensions("4,x").is_err());
    }

    #[test]
    fn attr_conversions() {
        assert_eq!(AttrValue::from(3i64).as_i64(), Some(3));
        assert_eq!(AttrValue::from(3i64).as_f64(), Some(3.0));
        assert_eq!(AttrValue::from(2.5f64).as_f64(), Some(2.5));
        assert_eq!(AttrValue::from("x").as_str(), Some("x"));
        assert_eq!(AttrValue::from("x").as_i64(), None);
    }

    proptest! {
        #[test]
        fn layout_byte_size_consistent(dims in proptest::collection::vec(1u64..64, 0..4)) {
            let l = Layout::new(DataType::F64, &dims);
            prop_assert_eq!(l.byte_size(), l.element_count() * 8);
        }
    }
}
