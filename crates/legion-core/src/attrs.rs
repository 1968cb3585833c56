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
//! every Collection it reports to, into delta logs, candidate sets and
//! query views — so the layout keeps a copy cheap. Following GLUE's
//! split of a resource's description, a database has two parts:
//!
//! * *Info*, what rarely changes (name, OS, architecture, vault list):
//!   one name-sorted vector behind an `Arc`, shared by every copy until
//!   one of them writes an Info name, which then detaches its own;
//! * *State*, what every refresh moves (load, free memory, running
//!   objects, draining): one inline slot per name.
//!
//! A copy is therefore a reference-count bump plus four small values,
//! with no allocation, and two databases whose Info parts are the same
//! `Arc` can differ only in State. Lookups, iteration, equality and the
//! `Debug` text see one name-ordered map, as before the split.
//! Well-known names are a one-byte index into a static table; other
//! names and all string values sit behind an `Arc<str>` that a copy
//! shares.

use crate::host::well_known;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// A set of attribute names, as one bit per well-known name and one bit
/// that stands for every other name.
///
/// A Collection change says which attributes it moved and a query says
/// which it reads; when the two masks miss each other, the change
/// cannot have altered the query's verdict. Every name outside the
/// well-known table shares one bit, so a mask errs toward overlapping,
/// never toward missing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttrMask(u32);

impl AttrMask {
    /// The bit that stands for every name outside [`KNOWN_NAMES`].
    const OTHER: u32 = 1 << KNOWN_NAMES.len();

    /// Every name.
    pub const ALL: AttrMask = AttrMask((AttrMask::OTHER << 1) - 1);

    /// The mask of one name.
    pub fn of(name: &str) -> AttrMask {
        match KNOWN_NAMES.iter().position(|&k| k == name) {
            Some(i) => AttrMask(1 << i),
            None => AttrMask(AttrMask::OTHER),
        }
    }

    /// Whether the two masks share a name.
    pub fn intersects(self, other: AttrMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether the mask names nothing.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for AttrMask {
    type Output = AttrMask;
    fn bitor(self, other: AttrMask) -> AttrMask {
        AttrMask(self.0 | other.0)
    }
}

impl std::ops::BitOrAssign for AttrMask {
    fn bitor_assign(&mut self, other: AttrMask) {
        self.0 |= other.0;
    }
}

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

/// The State names — the attributes every refresh moves — in name
/// order. Each has an inline slot; every other name is Info.
const STATE_NAMES: [&str; 4] = [
    well_known::DRAINING,
    well_known::FREE_MEMORY_MB,
    well_known::LOAD,
    well_known::RUNNING_OBJECTS,
];

/// The slot of a State name.
fn state_slot(name: &str) -> Option<usize> {
    STATE_NAMES.iter().position(|&s| s == name)
}

/// Info entries: sorted by name, names unique, no State name.
type Entries = Vec<(Name, AttrValue)>;

/// Position of `name` among `entries`, or where it would be inserted.
fn find(entries: &Entries, name: &str) -> Result<usize, usize> {
    entries.binary_search_by(|(n, _)| n.as_str().cmp(name))
}

/// The Info part every empty database shares, so that creating one
/// allocates nothing.
fn empty_info() -> Arc<Entries> {
    static EMPTY: OnceLock<Arc<Entries>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(Default::default))
}

/// An ordered attribute database: name → value.
///
/// Iteration is in name order, so Collection record serialization and
/// experiment output are deterministic. Info entries live in one
/// name-sorted vector behind an `Arc` (a lookup is a binary search) and
/// State values in inline slots (see the module docs), so a copy
/// allocates nothing: names, string values and the Info vector are
/// shared, and writing an Info name copies the vector only while
/// another database still shares it.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeDb {
    /// Every entry whose name is not a State name.
    info: Arc<Entries>,
    /// `STATE_NAMES[i]`'s value, if set.
    state: [Option<AttrValue>; 4],
}

impl Default for AttributeDb {
    fn default() -> Self {
        AttributeDb { info: empty_info(), state: Default::default() }
    }
}

impl AttributeDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an attribute, returning the previous value if any.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl Into<AttrValue>) -> Option<AttrValue> {
        let name = name.as_ref();
        let value = value.into();
        if let Some(i) = state_slot(name) {
            return self.state[i].replace(value);
        }
        let info = Arc::make_mut(&mut self.info);
        match find(info, name) {
            Ok(i) => Some(std::mem::replace(&mut info[i].1, value)),
            Err(i) => {
                info.insert(i, (Name::new(name), value));
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
        match state_slot(name) {
            Some(i) => self.state[i].as_ref(),
            None => find(&self.info, name).ok().map(|i| &self.info[i].1),
        }
    }

    /// Removes an attribute.
    pub fn remove(&mut self, name: &str) -> Option<AttrValue> {
        if let Some(i) = state_slot(name) {
            return self.state[i].take();
        }
        let i = find(&self.info, name).ok()?;
        Some(Arc::make_mut(&mut self.info).remove(i).1)
    }

    /// Whether the attribute exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.info.len() + self.state.iter().flatten().count()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over (name, value) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        let mut info = self.info.iter().map(|(n, v)| (n.as_str(), v)).peekable();
        let mut state = self.state().filter_map(|(n, v)| Some((n, v?))).peekable();
        std::iter::from_fn(move || match (info.peek(), state.peek()) {
            (Some((a, _)), Some((b, _))) if a < b => info.next(),
            (Some(_), None) => info.next(),
            _ => state.next(),
        })
    }

    /// The State names in name order, each with its value if set.
    pub fn state(&self) -> impl Iterator<Item = (&'static str, Option<&AttrValue>)> {
        STATE_NAMES.into_iter().zip(self.state.iter().map(Option::as_ref))
    }

    /// Whether the two databases hold the very same Info part — one was
    /// copied from the other and neither has written an Info name since
    /// — so that they can differ only in [`Self::state`].
    pub fn shares_info(&self, other: &AttributeDb) -> bool {
        Arc::ptr_eq(&self.info, &other.info)
    }

    /// Overwrites entries from `other` into `self` (push-model update:
    /// "UpdateCollectionEntry" merges fresh host state over the record).
    pub fn merge_from(&mut self, other: &AttributeDb) {
        for (slot, value) in self.state.iter_mut().zip(&other.state) {
            if value.is_some() {
                slot.clone_from(value);
            }
        }
        if other.info.is_empty() || self.shares_info(other) {
            return;
        }
        let info = Arc::make_mut(&mut self.info);
        for (name, value) in other.info.iter() {
            match find(info, name.as_str()) {
                Ok(i) => info[i].1 = value.clone(),
                Err(i) => info.insert(i, (name.clone(), value.clone())),
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
    fn masks_give_each_known_name_its_own_bit_and_others_one_shared_bit() {
        let known: Vec<AttrMask> = KNOWN_NAMES.iter().map(|n| AttrMask::of(n)).collect();
        for (i, a) in known.iter().enumerate() {
            for (j, b) in known.iter().enumerate() {
                assert_eq!(a.intersects(*b), i == j, "{} and {}", KNOWN_NAMES[i], KNOWN_NAMES[j]);
            }
            assert!(AttrMask::ALL.intersects(*a));
            assert!(!AttrMask::of("site_tag").intersects(*a));
        }
        assert!(AttrMask::of("site_tag").intersects(AttrMask::of("owner")));
        assert!(AttrMask::ALL.intersects(AttrMask::of("owner")));
        assert!(!AttrMask::default().intersects(AttrMask::ALL));
        let all = known.into_iter().fold(AttrMask::of("owner"), |m, b| m | b);
        assert_eq!(all, AttrMask::ALL);
    }

    #[test]
    fn display_renders_lists() {
        let v: AttrValue = vec!["a", "b"].into();
        assert_eq!(v.to_string(), r#"["a", "b"]"#);
    }
}
