//! Operator attribute maps (the NNVM-style `attrs` dictionary).

use std::collections::BTreeMap;
use std::fmt;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Integer attribute (stride, axis, window, ...).
    Int(i64),
    /// Floating attribute (epsilon, learning rate, ...).
    Float(f64),
    /// String attribute (mode switches).
    Str(String),
    /// Integer-list attribute (shapes, multi-axis arguments).
    IntVec(Vec<i64>),
}

/// An ordered attribute dictionary attached to a graph node.
///
/// # Examples
///
/// ```
/// use tofu_graph::Attrs;
///
/// let attrs = Attrs::new().with_int("stride", 2).with_int("pad", 1);
/// assert_eq!(attrs.int("stride"), Some(2));
/// assert_eq!(attrs.int_or("dilation", 1), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attrs(BTreeMap<String, AttrValue>);

impl Attrs {
    /// Creates an empty attribute map.
    pub fn new() -> Attrs {
        Attrs::default()
    }

    /// Adds an integer attribute (builder style).
    pub fn with_int(mut self, key: &str, value: i64) -> Attrs {
        self.0.insert(key.to_string(), AttrValue::Int(value));
        self
    }

    /// Adds a float attribute (builder style).
    pub fn with_float(mut self, key: &str, value: f64) -> Attrs {
        self.0.insert(key.to_string(), AttrValue::Float(value));
        self
    }

    /// Adds a string attribute (builder style).
    pub fn with_str(mut self, key: &str, value: &str) -> Attrs {
        self.0.insert(key.to_string(), AttrValue::Str(value.to_string()));
        self
    }

    /// Adds an integer-list attribute (builder style).
    pub fn with_ints(mut self, key: &str, value: Vec<i64>) -> Attrs {
        self.0.insert(key.to_string(), AttrValue::IntVec(value));
        self
    }

    /// Reads an integer attribute.
    pub fn int(&self, key: &str) -> Option<i64> {
        match self.0.get(key) {
            Some(AttrValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads an integer attribute with a default.
    pub fn int_or(&self, key: &str, default: i64) -> i64 {
        self.int(key).unwrap_or(default)
    }

    /// Reads a float attribute.
    pub(crate) fn float(&self, key: &str) -> Option<f64> {
        match self.0.get(key) {
            Some(AttrValue::Float(v)) => Some(*v),
            Some(AttrValue::Int(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// Reads a string attribute.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.0.get(key) {
            Some(AttrValue::Str(v)) => Some(v),
            _ => None,
        }
    }

    /// Reads an integer-list attribute.
    pub fn ints(&self, key: &str) -> Option<&[i64]> {
        match self.0.get(key) {
            Some(AttrValue::IntVec(v)) => Some(v),
            _ => None,
        }
    }

    /// True when no attributes are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `(key, value)` pairs in canonical (sorted-key) order —
    /// the order [`fmt::Display`] renders and serializers must follow.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Inserts one attribute value under a key (used by deserializers; the
    /// `with_*` builders are the ergonomic path).
    pub fn set(&mut self, key: &str, value: AttrValue) {
        self.0.insert(key.to_string(), value);
    }
}

impl fmt::Display for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match v {
                AttrValue::Int(x) => write!(f, "{k}={x}")?,
                AttrValue::Float(x) => write!(f, "{k}={x}")?,
                AttrValue::Str(x) => write!(f, "{k}={x:?}")?,
                AttrValue::IntVec(x) => write!(f, "{k}={x:?}")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors() {
        let a = Attrs::new()
            .with_int("axis", 1)
            .with_float("eps", 1e-5)
            .with_str("mode", "max")
            .with_ints("dims", vec![2, 3]);
        assert_eq!(a.int("axis"), Some(1));
        assert_eq!(a.float("eps"), Some(1e-5));
        assert_eq!(a.str("mode"), Some("max"));
        assert_eq!(a.ints("dims"), Some(&[2, 3][..]));
        assert_eq!(a.int("missing"), None);
        assert_eq!(a.int_or("missing", 7), 7);
        // Int promotes to float but not vice versa.
        assert_eq!(a.float("axis"), Some(1.0));
        assert_eq!(a.int("eps"), None);
        assert!(!a.is_empty());
        assert!(Attrs::new().is_empty());
    }

    #[test]
    fn display_renders_all_kinds() {
        let a = Attrs::new().with_int("axis", 1).with_str("mode", "max");
        let s = a.to_string();
        assert!(s.contains("axis=1"));
        assert!(s.contains("mode=\"max\""));
    }
}
