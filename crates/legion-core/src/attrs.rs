//! The extensible attribute database carried by every Legion object.
//!
//! "In their simplest form, attributes are (name, value) pairs. ... All
//! Legion objects include an extensible attribute database, the contents
//! of which are determined by the type of the object." (§3.1)
//!
//! Host objects populate their databases with architecture, operating
//! system, load, available memory and richer policy information (price
//! per CPU cycle, refused domains, time-of-day willingness...). The
//! Collection stores one [`AttributeDb`] per resource record and the
//! query language evaluates against it.
//!
//! A host's record is copied often — into the host's own cache, into
//! every Collection it reports to, into delta logs and query views — so
//! the layout keeps a copy cheap: one name-sorted vector, well-known
//! names as a one-byte index into a static table, other names and all
//! string values behind an `Arc<str>` that a copy shares.

use crate::host::well_known;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A single attribute value.
///
/// Values are dynamically typed; the query evaluator performs semantic
/// comparisons with int/float coercion, mirroring the grammar of the
/// MESSIAHS work the paper builds on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string, shared by every copy of the value.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// Ordered list of values (e.g. compatible vault LOIDs).
    List(Vec<AttrValue>),
}

impl AttrValue {
    /// Numeric view with int→float coercion.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats are not truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[AttrValue]> {
        match self {
            AttrValue::List(l) => Some(l),
            _ => None,
        }
    }

    /// Semantic comparison with numeric coercion.
    ///
    /// Numbers compare numerically across Int/Float; strings compare
    /// lexicographically; booleans false < true. Mixed, non-coercible
    /// kinds are incomparable (`None`).
    pub fn semantic_cmp(&self, other: &AttrValue) -> Option<std::cmp::Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (List(a), List(b)) => {
                // Lexicographic over semantic element comparison.
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.semantic_cmp(y)? {
                        std::cmp::Ordering::Equal => continue,
                        ord => return Some(ord),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "{s:?}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.into())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v.into())
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl<T: Into<AttrValue>> From<Vec<T>> for AttrValue {
    fn from(v: Vec<T>) -> Self {
        AttrValue::List(v.into_iter().map(Into::into).collect())
    }
}

/// The names stored as a one-byte index instead of an allocation: the
/// host attributes every record carries.
const KNOWN_NAMES: [&str; 17] = [
    well_known::OS_NAME,
    well_known::OS_VERSION,
    well_known::ARCH,
    well_known::LOAD,
    well_known::NCPUS,
    well_known::MEMORY_MB,
    well_known::FREE_MEMORY_MB,
    well_known::DOMAIN,
    well_known::PRICE_PER_CPU_SEC,
    well_known::REFUSED_DOMAINS,
    well_known::WILLINGNESS,
    well_known::FLAVOR,
    well_known::QUEUE_SYSTEM,
    well_known::RUNNING_OBJECTS,
    well_known::COMPATIBLE_VAULTS,
    well_known::HOST_NAME,
    well_known::DRAINING,
];

/// An attribute name. Every string has exactly one representation — a
/// well-known name is always `Known` — so derived equality is string
/// equality.
#[derive(Clone, PartialEq)]
enum Name {
    /// Index into [`KNOWN_NAMES`].
    Known(u8),
    /// Any other name, shared by every copy of the database.
    Other(Arc<str>),
}

impl Name {
    fn new(name: &str) -> Name {
        match KNOWN_NAMES.iter().position(|&k| k == name) {
            Some(i) => Name::Known(i as u8),
            None => Name::Other(name.into()),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Name::Known(i) => KNOWN_NAMES[*i as usize],
            Name::Other(s) => s,
        }
    }
}

/// An ordered attribute database: name → value.
///
/// Entries live in one vector sorted by name, so iteration order (and
/// therefore Collection record serialization and experiment output) is
/// deterministic, a lookup is a binary search, and a copy is one
/// allocation: names and string values are shared, not duplicated.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributeDb {
    /// Sorted by name; names are unique.
    entries: Vec<(Name, AttrValue)>,
}

impl AttributeDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of `name`, or where it would be inserted.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    /// Sets an attribute, returning the previous value if any.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl Into<AttrValue>) -> Option<AttrValue> {
        let name = name.as_ref();
        let value = value.into();
        match self.find(name) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (Name::new(name), value));
                None
            }
        }
    }

    /// Builder-style set.
    pub fn with(mut self, name: impl AsRef<str>, value: impl Into<AttrValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Looks up an attribute.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.find(name).ok().map(|i| &self.entries[i].1)
    }

    /// Removes an attribute.
    pub fn remove(&mut self, name: &str) -> Option<AttrValue> {
        self.find(name).ok().map(|i| self.entries.remove(i).1)
    }

    /// Whether the attribute exists.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over (name, value) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Overwrites entries from `other` into `self` (push-model update:
    /// "UpdateCollectionEntry" merges fresh host state over the record).
    pub fn merge_from(&mut self, other: &AttributeDb) {
        for (name, value) in &other.entries {
            match self.find(name.as_str()) {
                Ok(i) => self.entries[i].1 = value.clone(),
                Err(i) => self.entries.insert(i, (name.clone(), value.clone())),
            }
        }
    }

    /// Convenience numeric getter.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(AttrValue::as_f64)
    }

    /// Convenience integer getter.
    pub fn get_i64(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(AttrValue::as_i64)
    }

    /// Convenience string getter.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(AttrValue::as_str)
    }

    /// Convenience boolean getter.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(AttrValue::as_bool)
    }
}

/// Prints as the name-ordered map it is.
impl fmt::Debug for AttributeDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries: BTreeMap<&str, &AttrValue> = self.iter().collect();
        f.debug_struct("AttributeDb").field("entries", &entries).finish()
    }
}

/// Later pairs overwrite earlier ones with the same name.
impl FromIterator<(String, AttrValue)> for AttributeDb {
    fn from_iter<T: IntoIterator<Item = (String, AttrValue)>>(iter: T) -> Self {
        let mut db = AttributeDb::new();
        for (name, value) in iter {
            db.set(name, value);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn set_get_roundtrip() {
        let mut db = AttributeDb::new();
        db.set("host_os_name", "IRIX");
        db.set("host_load", 0.25);
        db.set("host_ncpus", 4i64);
        db.set("accepts_guests", true);
        assert_eq!(db.get_str("host_os_name"), Some("IRIX"));
        assert_eq!(db.get_f64("host_load"), Some(0.25));
        assert_eq!(db.get_i64("host_ncpus"), Some(4));
        assert_eq!(db.get_bool("accepts_guests"), Some(true));
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn numeric_coercion_in_comparison() {
        assert_eq!(
            AttrValue::Int(3).semantic_cmp(&AttrValue::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            AttrValue::Float(2.5).semantic_cmp(&AttrValue::Int(3)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn strings_and_numbers_are_incomparable() {
        assert_eq!(AttrValue::Str("3".into()).semantic_cmp(&AttrValue::Int(3)), None);
    }

    #[test]
    fn list_comparison_is_lexicographic() {
        let a: AttrValue = vec![1i64, 2].into();
        let b: AttrValue = vec![1i64, 3].into();
        let c: AttrValue = vec![1i64, 2, 0].into();
        assert_eq!(a.semantic_cmp(&b), Some(Ordering::Less));
        assert_eq!(a.semantic_cmp(&c), Some(Ordering::Less));
        assert_eq!(a.semantic_cmp(&a), Some(Ordering::Equal));
    }

    #[test]
    fn merge_overwrites() {
        let mut a = AttributeDb::new().with("x", 1i64).with("y", 2i64);
        let b = AttributeDb::new().with("y", 9i64).with("z", 3i64);
        a.merge_from(&b);
        assert_eq!(a.get_i64("y"), Some(9));
        assert_eq!(a.get_i64("z"), Some(3));
        assert_eq!(a.get_i64("x"), Some(1));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let db = AttributeDb::new().with("b", 1i64).with("a", 2i64).with("c", 3i64);
        let names: Vec<&str> = db.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn display_renders_lists() {
        let v: AttrValue = vec!["a", "b"].into();
        assert_eq!(v.to_string(), r#"["a", "b"]"#);
    }
}
