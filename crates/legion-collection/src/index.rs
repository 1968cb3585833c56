//! Secondary indexes over Collection records.
//!
//! The Collection is the hottest read path in the RMI pipeline: every
//! placement decision funnels a query through it (§3.2, Fig. 7). A
//! linear scan makes scheduling cost grow with grid size — the scaling
//! wall the resource-discovery literature (Nimrod/G, GridSim) warns
//! about. These indexes make selective queries sublinear:
//!
//! * a per-attribute **string index** (sorted, so it serves exact
//!   equality, anchored-literal-prefix `match()` probes, and
//!   first-character class probes),
//! * a per-attribute **trigram index** over the attribute's *distinct
//!   values* (not its members), serving substring probes for patterns
//!   that force a literal into every match: candidate values are found
//!   by intersecting sorted id postings, verified with a real `contains`,
//!   then expanded to members through the string index — so the probe
//!   is exact, and its memory cost scales with value cardinality, not
//!   record count,
//! * a per-attribute **numeric index** (sorted over a total order on
//!   `f64`, serving `<`, `<=`, `>`, `>=`, `==` ranges with the same
//!   int→float coercion the evaluator uses),
//! * a **presence index** serving `exists()`, derived from the three
//!   above: it stores only the members whose value no value index holds
//!   (booleans, lists, `NaN`).
//!
//! Every value index maps a key to a bucket of members: a key held by
//! one member — a host's name — costs that member inline, and only a
//! shared key keeps a `BTreeSet`. Value texts are the records' own
//! `Arc<str>`s, shared with the store, not copied.
//!
//! Indexes are maintained incrementally on join/update/replace/leave/
//! evict under the same lock as the record map, so they can never
//! drift from the records. Every such write
//! is one [`AttributeIndexes::reindex`] from the record's old attributes
//! to its new ones (a join starts from none, a leave ends with none),
//! which moves only the attributes whose value changed: a reassessed
//! host's load and free memory, not its name. Lookups return
//! **sorted member vectors** so conjunct candidate sets intersect by
//! linear merge before any residual filter runs. Every lookup is
//! *superset-correct* for its predicate; several (equality, ranges,
//! presence, verified substring) are exact, which the planner tracks to
//! skip residual re-evaluation entirely.
//!
//! Cardinality estimates take a `cap`: walking stops as soon as the cap
//! is reached, and a range or prefix that provably covers the whole
//! index answers from a maintained total in O(log n) without walking —
//! so a non-selective predicate (`$host_load >= 0.0`) is routed to the
//! scan path without touching a single bucket.

use legion_core::{AttrMask, AttrValue, AttributeDb, Loid};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// A total-order key over finite `f64`s.
///
/// `NaN` is rejected at construction (a `NaN`-valued attribute can never
/// satisfy a comparison, so it is simply not indexed) and `-0.0` is
/// normalized to `0.0` so the index's order agrees with the evaluator's
/// `partial_cmp`-based semantics, under which the two zeros are equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumKey(f64);

impl NumKey {
    /// Builds a key, refusing `NaN`.
    pub fn new(v: f64) -> Option<Self> {
        if v.is_nan() {
            None
        } else {
            Some(NumKey(if v == 0.0 { 0.0 } else { v }))
        }
    }
}

impl Eq for NumKey {}

impl PartialOrd for NumKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NumKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The members under one key. One member is stored inline; several
/// keep a set, so churn on a widely shared key stays O(log n). The set
/// is boxed so that a bucket is one `Loid` wide. Never empty.
#[derive(Debug)]
enum Bucket {
    One(Loid),
    #[allow(clippy::box_collection)] // the width, explained above
    Many(Box<BTreeSet<Loid>>),
}

impl Bucket {
    fn len(&self) -> usize {
        match self {
            Bucket::One(_) => 1,
            Bucket::Many(set) => set.len(),
        }
    }

    /// The members, sorted.
    fn members(&self) -> impl Iterator<Item = Loid> + '_ {
        let (one, many) = match self {
            Bucket::One(m) => (Some(*m), None),
            Bucket::Many(set) => (None, Some(&**set)),
        };
        one.into_iter().chain(many.into_iter().flatten().copied())
    }

    /// Adds `m`; whether it was new.
    fn insert(&mut self, m: Loid) -> bool {
        match self {
            Bucket::One(x) if *x == m => false,
            Bucket::One(x) => {
                *self = Bucket::Many(Box::new(BTreeSet::from([*x, m])));
                true
            }
            Bucket::Many(set) => set.insert(m),
        }
    }

    /// Removes `m`. A bucket is never left empty: when `m` is its last
    /// member it stays as it is and the caller drops it.
    fn remove(&mut self, m: Loid) -> Removal {
        match self {
            Bucket::One(x) if *x == m => Removal::Last,
            Bucket::One(_) => Removal::Absent,
            Bucket::Many(set) => {
                let removed = set.remove(&m);
                if let (1, Some(&last)) = (set.len(), set.first()) {
                    *self = Bucket::One(last);
                }
                if removed {
                    Removal::Removed
                } else {
                    Removal::Absent
                }
            }
        }
    }
}

/// What [`Bucket::remove`] did.
enum Removal {
    Absent,
    Removed,
    /// The member was the bucket's last; drop the bucket.
    Last,
}

/// Adds `member` under `key`. Returns whether it is new there, and
/// whether the key is.
fn add_member<K: Ord>(map: &mut BTreeMap<K, Bucket>, key: K, member: Loid) -> (bool, bool) {
    match map.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(Bucket::One(member));
            (true, true)
        }
        Entry::Occupied(mut slot) => (slot.get_mut().insert(member), false),
    }
}

/// Removes `member` from under `key`. Returns whether it was there, and
/// whether the key went with it.
fn remove_member<K, Q>(map: &mut BTreeMap<K, Bucket>, key: &Q, member: Loid) -> (bool, bool)
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    let Some(bucket) = map.get_mut(key) else { return (false, false) };
    match bucket.remove(member) {
        Removal::Absent => (false, false),
        Removal::Removed => (true, false),
        Removal::Last => {
            map.remove(key);
            (true, true)
        }
    }
}

/// The value stored under `name`, created empty on first use; the name
/// is copied only then.
fn named<'a, V: Default>(map: &'a mut HashMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("present or inserted above")
}

/// Trigram postings over an attribute's distinct string values.
///
/// Values are interned to dense ids when their first member appears and
/// released when their last member leaves. New ids rise, so posting a
/// new value is a `push`; only an id reused from `free` is searched in.
#[derive(Debug, Default)]
struct TrigramIndex {
    /// Live value → interned id.
    ids: HashMap<Arc<str>, u32>,
    /// Interned id → value (candidate verification needs the text);
    /// `None` while the id waits in `free`.
    values: Vec<Option<Arc<str>>>,
    /// 3-byte window → ids of values containing it, strictly increasing.
    grams: HashMap<[u8; 3], Vec<u32>>,
    /// Ids released by values that left, handed out again before
    /// `values` grows: ids stay below the most distinct values ever
    /// live at once, so a new value never takes a live value's id.
    free: Vec<u32>,
}

/// The distinct 3-byte windows of `value`, sorted.
fn trigrams(value: &str) -> Vec<[u8; 3]> {
    let mut grams: Vec<_> = value.as_bytes().windows(3).map(|w| [w[0], w[1], w[2]]).collect();
    grams.sort_unstable();
    grams.dedup();
    grams
}

impl TrigramIndex {
    fn add_value(&mut self, value: &Arc<str>) {
        let id = match self.free.pop() {
            Some(id) => {
                self.values[id as usize] = Some(Arc::clone(value));
                id
            }
            None => {
                let id = u32::try_from(self.values.len()).expect("under 2^32 live values");
                self.values.push(Some(Arc::clone(value)));
                id
            }
        };
        self.ids.insert(Arc::clone(value), id);
        for g in trigrams(value) {
            let posting = self.grams.entry(g).or_default();
            if posting.last().is_none_or(|&last| last < id) {
                posting.push(id);
            } else if let Err(at) = posting.binary_search(&id) {
                posting.insert(at, id);
            }
        }
    }

    fn remove_value(&mut self, value: &str) {
        let Some(id) = self.ids.remove(value) else { return };
        self.values[id as usize] = None;
        self.free.push(id);
        for g in trigrams(value) {
            if let Some(posting) = self.grams.get_mut(&g) {
                if let Ok(at) = posting.binary_search(&id) {
                    posting.remove(at);
                }
                if posting.is_empty() {
                    self.grams.remove(&g);
                }
            }
        }
    }

    /// Ids of values that contain `needle` — trigram intersection, then
    /// verification against the actual value text (so the result is
    /// exact, not a superset). `needle` must be at least 3 bytes.
    fn candidate_values(&self, needle: &str) -> Vec<u32> {
        let mut postings: Vec<&[u32]> = Vec::new();
        for g in trigrams(needle) {
            match self.grams.get(&g) {
                Some(posting) => postings.push(posting),
                None => return Vec::new(),
            }
        }
        let Some(smallest) = postings.iter().min_by_key(|p| p.len()) else {
            return Vec::new();
        };
        smallest
            .iter()
            .copied()
            .filter(|id| postings.iter().all(|p| p.binary_search(id).is_ok()))
            .filter(|&id| self.value(id).contains(needle))
            .collect()
    }

    /// The text of a live id (every id a posting holds is live).
    fn value(&self, id: u32) -> &str {
        self.values[id as usize].as_deref().expect("posted ids are live")
    }
}

/// One attribute's string index: sorted value buckets plus trigram
/// postings over the distinct values, plus the member total.
#[derive(Debug, Default)]
struct StringIndex {
    by_val: BTreeMap<Arc<str>, Bucket>,
    trigrams: TrigramIndex,
    /// Members indexed under this attribute (sum of bucket sizes).
    total: usize,
}

impl StringIndex {
    /// Buckets whose value starts with `prefix`, in value order.
    fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a Bucket> + 'a {
        self.by_val
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(value, _)| value.starts_with(prefix))
            .map(|(_, bucket)| bucket)
    }

    /// Buckets whose value's first character lies in `lo..=hi`, in
    /// value order.
    fn first_in(&self, lo: char, hi: char) -> impl Iterator<Item = &Bucket> + '_ {
        let mut buf = [0u8; 4];
        let from: &str = lo.encode_utf8(&mut buf);
        self.by_val
            .range::<str, _>((Bound::Included(from), Bound::Unbounded))
            .take_while(move |(value, _)| value.chars().next().is_some_and(|c| c <= hi))
            .map(|(_, bucket)| bucket)
    }

    /// Buckets whose value contains `needle` (at least 3 bytes), found
    /// through the trigram postings.
    fn containing<'a>(&'a self, needle: &str) -> impl Iterator<Item = &'a Bucket> + 'a {
        let ids = self.trigrams.candidate_values(needle);
        ids.into_iter().filter_map(|id| self.by_val.get(self.trigrams.value(id)))
    }
}

/// One attribute's numeric index: sorted value buckets plus the member
/// total, so a full-covering range estimates in O(log n).
#[derive(Debug, Default)]
struct NumericIndex {
    by_val: BTreeMap<NumKey, Bucket>,
    total: usize,
}

/// The per-attribute secondary indexes.
#[derive(Debug, Default)]
pub struct AttributeIndexes {
    /// attr name → string index.
    strings: HashMap<String, StringIndex>,
    /// attr name → numeric index (values coerced to `f64`).
    numbers: HashMap<String, NumericIndex>,
    /// attr name → members whose value neither index above holds, so
    /// that presence is the union of the three.
    unindexed: HashMap<String, BTreeSet<Loid>>,
}

/// Sorts a merged candidate list and drops duplicates (buckets of one
/// attribute are disjoint, but unions of probes may overlap).
fn sorted_dedup(mut v: Vec<Loid>) -> Vec<Loid> {
    v.sort_unstable();
    v.dedup();
    v
}

/// The members of `buckets`, sorted, each once.
fn members_of<'a>(buckets: impl Iterator<Item = &'a Bucket>) -> Vec<Loid> {
    sorted_dedup(buckets.flat_map(Bucket::members).collect())
}

/// Linear-merge intersection of two sorted member lists.
pub fn intersect_sorted(a: &[Loid], b: &[Loid]) -> Vec<Loid> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Union of several sorted member lists, sorted and deduplicated.
pub fn union_sorted(parts: Vec<Vec<Loid>>) -> Vec<Loid> {
    sorted_dedup(parts.into_iter().flatten().collect())
}

/// Sums bucket sizes, stopping at `cap`.
fn capped_sum<'a>(buckets: impl Iterator<Item = &'a Bucket>, cap: usize) -> usize {
    let mut sum = 0usize;
    for bucket in buckets {
        sum += bucket.len();
        if sum >= cap {
            return cap;
        }
    }
    sum
}

impl AttributeIndexes {
    /// Indexes every attribute of a new member's record: a
    /// [`Self::reindex`] from nothing.
    pub fn insert(&mut self, member: Loid, attrs: &AttributeDb) {
        self.reindex(member, &AttributeDb::new(), attrs);
    }

    /// Un-indexes every attribute of a leaving member's record (the
    /// exact `attrs` last indexed for it): a [`Self::reindex`] to
    /// nothing.
    pub fn remove(&mut self, member: Loid, attrs: &AttributeDb) {
        self.reindex(member, attrs, &AttributeDb::new());
    }

    /// Moves `member` from `old` (the exact attributes last indexed for
    /// it) to `new`, touching only what differs. One merge walk over
    /// the two name-ordered databases un-indexes an old entry and
    /// indexes a new one where a name is on one side only or its two
    /// values are `!=`; an attribute whose value is unchanged keeps its
    /// entries. That is safe because equal values index identically
    /// (`NumKey` folds `-0.0` onto `0.0`). `Int(1)` against
    /// `Float(1.0)`, or `NaN` against `NaN`, compare unequal and are
    /// re-indexed to the same place, which is only redundant. When the
    /// two databases share their Info part — a host's refresh of the
    /// snapshot it was last pulled with — the walk covers only the
    /// State slots, since nothing else can differ.
    ///
    /// Returns the mask of the names it moved: the names whose value
    /// differs between `old` and `new`, which is what the change log
    /// tells a reader changed.
    pub fn reindex(&mut self, member: Loid, old: &AttributeDb, new: &AttributeDb) -> AttrMask {
        let mut changed = AttrMask::default();
        if old.shares_info(new) {
            for ((name, was), (_, is)) in old.state().zip(new.state()) {
                changed |= self.move_value(member, name, was, is);
            }
            return changed;
        }
        let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
        loop {
            let order = match (old.peek(), new.peek()) {
                (Some((a, _)), Some((b, _))) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => return changed,
            };
            let was = if order.is_le() { old.next() } else { None };
            let is = if order.is_ge() { new.next() } else { None };
            let (name, _) = was.or(is).expect("the walk advanced a side");
            changed |= self.move_value(member, name, was.map(|e| e.1), is.map(|e| e.1));
        }
    }

    /// Moves `member`'s `name` from `was` to `is`, unless the two are
    /// equal; returns the name's mask if it moved.
    fn move_value(
        &mut self,
        member: Loid,
        name: &str,
        was: Option<&AttrValue>,
        is: Option<&AttrValue>,
    ) -> AttrMask {
        if was == is {
            return AttrMask::default();
        }
        if let Some(value) = was {
            self.unindex(member, name, value);
        }
        if let Some(value) = is {
            self.index(member, name, value);
        }
        AttrMask::of(name)
    }

    /// Files `member` under `name = value`.
    fn index(&mut self, member: Loid, name: &str, value: &AttrValue) {
        if let AttrValue::Str(s) = value {
            let si = named(&mut self.strings, name);
            let (added, new_value) = add_member(&mut si.by_val, Arc::clone(s), member);
            if new_value {
                si.trigrams.add_value(s);
            }
            if added {
                si.total += 1;
            }
        } else if let Some(key) = value.as_f64().and_then(NumKey::new) {
            let ni = named(&mut self.numbers, name);
            if add_member(&mut ni.by_val, key, member).0 {
                ni.total += 1;
            }
        } else {
            // Bools, lists and NaN are only findable via `exists()`;
            // comparisons on them fall back to the scan path.
            named(&mut self.unindexed, name).insert(member);
        }
    }

    /// Takes `member` out from under `name = value`, dropping whatever
    /// that leaves empty.
    fn unindex(&mut self, member: Loid, name: &str, value: &AttrValue) {
        if let AttrValue::Str(s) = value {
            let Some(si) = self.strings.get_mut(name) else { return };
            let (removed, value_gone) = remove_member(&mut si.by_val, &**s, member);
            if value_gone {
                si.trigrams.remove_value(s);
            }
            if removed {
                si.total -= 1;
            }
            if si.by_val.is_empty() {
                self.strings.remove(name);
            }
        } else if let Some(key) = value.as_f64().and_then(NumKey::new) {
            let Some(ni) = self.numbers.get_mut(name) else { return };
            if remove_member(&mut ni.by_val, &key, member).0 {
                ni.total -= 1;
            }
            if ni.by_val.is_empty() {
                self.numbers.remove(name);
            }
        } else if let Some(set) = self.unindexed.get_mut(name) {
            set.remove(&member);
            if set.is_empty() {
                self.unindexed.remove(name);
            }
        }
    }

    /// Members whose `attr` is the string `value`, sorted.
    pub fn lookup_str_eq(&self, attr: &str, value: &str) -> Vec<Loid> {
        self.strings
            .get(attr)
            .and_then(|si| si.by_val.get(value))
            .map(|b| b.members().collect())
            .unwrap_or_default()
    }

    /// Members whose `attr` is a string starting with `prefix`, sorted.
    pub fn lookup_str_prefix(&self, attr: &str, prefix: &str) -> Vec<Loid> {
        self.strings.get(attr).map_or_else(Vec::new, |si| members_of(si.with_prefix(prefix)))
    }

    /// Members whose `attr` is a string containing `needle`, sorted.
    ///
    /// Needles of 3+ bytes go through the trigram postings; shorter
    /// needles scan the distinct values (still sublinear in members
    /// whenever values repeat). Both paths verify with a real
    /// `contains`, so the result is exact, not a superset.
    pub fn lookup_str_contains(&self, attr: &str, needle: &str) -> Vec<Loid> {
        let Some(si) = self.strings.get(attr) else { return Vec::new() };
        if needle.len() >= 3 {
            members_of(si.containing(needle))
        } else {
            members_of(si.by_val.iter().filter(|(value, _)| value.contains(needle)).map(|(_, b)| b))
        }
    }

    /// Members whose `attr` is a string whose first character falls in
    /// any of `ranges` (inclusive), sorted.
    pub fn lookup_str_first_ranges(&self, attr: &str, ranges: &[(char, char)]) -> Vec<Loid> {
        let Some(si) = self.strings.get(attr) else { return Vec::new() };
        members_of(ranges.iter().flat_map(|&(lo, hi)| si.first_in(lo, hi)))
    }

    /// Members whose `attr` is numeric and inside `(lo, hi)`, sorted.
    pub fn lookup_num_range(&self, attr: &str, lo: Bound<f64>, hi: Bound<f64>) -> Vec<Loid> {
        let (Some(lo), Some(hi)) = (to_key_bound(lo), to_key_bound(hi)) else {
            // A NaN bound can never be satisfied.
            return Vec::new();
        };
        let Some(ni) = self.numbers.get(attr) else { return Vec::new() };
        members_of(ni.by_val.range((lo, hi)).map(|(_, bucket)| bucket))
    }

    /// Members carrying `attr` at all, sorted.
    pub fn lookup_exists(&self, attr: &str) -> Vec<Loid> {
        let strings = self.strings.get(attr).into_iter().flat_map(|si| si.by_val.values());
        let numbers = self.numbers.get(attr).into_iter().flat_map(|ni| ni.by_val.values());
        let unindexed = self.unindexed.get(attr).into_iter().flatten().copied();
        sorted_dedup(strings.chain(numbers).flat_map(Bucket::members).chain(unindexed).collect())
    }

    /// Hit count of [`Self::lookup_str_eq`] without materializing it.
    pub fn count_str_eq(&self, attr: &str, value: &str) -> usize {
        self.strings.get(attr).and_then(|si| si.by_val.get(value)).map_or(0, Bucket::len)
    }

    /// Hit count of [`Self::lookup_str_prefix`], saturating at `cap`.
    ///
    /// The empty prefix covers the whole index and answers from the
    /// maintained total without walking a single bucket.
    pub fn count_str_prefix(&self, attr: &str, prefix: &str, cap: usize) -> usize {
        self.strings.get(attr).map_or(0, |si| {
            if prefix.is_empty() {
                si.total.min(cap)
            } else {
                capped_sum(si.with_prefix(prefix), cap)
            }
        })
    }

    /// Hit count of [`Self::lookup_str_contains`], saturating at `cap`.
    ///
    /// Short (sub-trigram) needles would require a distinct-value scan
    /// just to estimate, so they pessimistically report the attribute
    /// total — routing the plan to a scan unless some other conjunct is
    /// selective (the lookup itself still answers exactly if executed).
    pub fn count_str_contains(&self, attr: &str, needle: &str, cap: usize) -> usize {
        let Some(si) = self.strings.get(attr) else { return 0 };
        if needle.len() < 3 {
            return si.total.min(cap);
        }
        capped_sum(si.containing(needle), cap)
    }

    /// Hit count of [`Self::lookup_str_first_ranges`], saturating at
    /// `cap`.
    pub fn count_str_first_ranges(&self, attr: &str, ranges: &[(char, char)], cap: usize) -> usize {
        let Some(si) = self.strings.get(attr) else { return 0 };
        capped_sum(ranges.iter().flat_map(|&(lo, hi)| si.first_in(lo, hi)), cap)
    }

    /// Hit count of [`Self::lookup_num_range`], saturating at `cap`.
    ///
    /// A range that provably covers the attribute's whole indexed span
    /// (both bounds at or beyond the first/last key) answers from the
    /// maintained total in O(log n) without walking — the fix for the
    /// non-selective penalty: `$host_load >= 0.0` never walks buckets.
    pub fn count_num_range(&self, attr: &str, lo: Bound<f64>, hi: Bound<f64>, cap: usize) -> usize {
        let (Some(lo), Some(hi)) = (to_key_bound(lo), to_key_bound(hi)) else {
            return 0;
        };
        let Some(ni) = self.numbers.get(attr) else { return 0 };
        if let (Some((first, _)), Some((last, _))) =
            (ni.by_val.first_key_value(), ni.by_val.last_key_value())
        {
            let covers_lo = match lo {
                Bound::Unbounded => true,
                Bound::Included(k) => k <= *first,
                Bound::Excluded(k) => k < *first,
            };
            let covers_hi = match hi {
                Bound::Unbounded => true,
                Bound::Included(k) => *last <= k,
                Bound::Excluded(k) => *last < k,
            };
            if covers_lo && covers_hi {
                return ni.total.min(cap);
            }
        }
        capped_sum(ni.by_val.range((lo, hi)).map(|(_, bucket)| bucket), cap)
    }

    /// Hit count of [`Self::lookup_exists`] without materializing it.
    pub fn count_exists(&self, attr: &str) -> usize {
        self.strings.get(attr).map_or(0, |si| si.total)
            + self.numbers.get(attr).map_or(0, |ni| ni.total)
            + self.unindexed.get(attr).map_or(0, BTreeSet::len)
    }
}

fn to_key_bound(b: Bound<f64>) -> Option<Bound<NumKey>> {
    match b {
        Bound::Included(v) => NumKey::new(v).map(Bound::Included),
        Bound::Excluded(v) => NumKey::new(v).map(Bound::Excluded),
        Bound::Unbounded => Some(Bound::Unbounded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::LoidKind;
    use proptest::prelude::*;

    const CAP: usize = usize::MAX;

    fn l(seq: u64) -> Loid {
        Loid::synthetic(LoidKind::Host, seq)
    }

    fn ls(seqs: &[u64]) -> Vec<Loid> {
        let mut v: Vec<Loid> = seqs.iter().map(|&s| l(s)).collect();
        v.sort_unstable();
        v
    }

    fn sample() -> AttributeIndexes {
        let mut idx = AttributeIndexes::default();
        idx.insert(
            l(1),
            &AttributeDb::new().with("os", "IRIX").with("load", 0.2).with("up", true),
        );
        idx.insert(l(2), &AttributeDb::new().with("os", "Linux").with("load", 0.9));
        idx.insert(l(3), &AttributeDb::new().with("os", "IRIX64").with("mem", 512i64));
        idx
    }

    #[test]
    fn string_equality_hits_exact_value() {
        let idx = sample();
        assert_eq!(idx.lookup_str_eq("os", "IRIX"), ls(&[1]));
        assert_eq!(idx.lookup_str_eq("os", "HPUX"), Vec::<Loid>::new());
        assert_eq!(idx.lookup_str_eq("nope", "IRIX"), Vec::<Loid>::new());
    }

    #[test]
    fn prefix_scans_sorted_values() {
        let idx = sample();
        assert_eq!(idx.lookup_str_prefix("os", "IRIX"), ls(&[1, 3]));
        assert_eq!(idx.lookup_str_prefix("os", ""), ls(&[1, 2, 3]));
        assert_eq!(idx.lookup_str_prefix("os", "Z"), Vec::<Loid>::new());
    }

    #[test]
    fn contains_probes_are_exact() {
        let idx = sample();
        // Trigram path (needle >= 3 bytes).
        assert_eq!(idx.lookup_str_contains("os", "RIX"), ls(&[1, 3]));
        assert_eq!(idx.lookup_str_contains("os", "IX6"), ls(&[3]));
        assert_eq!(idx.lookup_str_contains("os", "inux"), ls(&[2]));
        assert_eq!(idx.lookup_str_contains("os", "XIR"), Vec::<Loid>::new());
        // Short-needle path scans distinct values.
        assert_eq!(idx.lookup_str_contains("os", "X"), ls(&[1, 3]));
        assert_eq!(idx.lookup_str_contains("os", ""), ls(&[1, 2, 3]));
        assert_eq!(idx.lookup_str_contains("nope", "RIX"), Vec::<Loid>::new());
    }

    #[test]
    fn trigram_postings_follow_value_churn() {
        let mut idx = sample();
        // Second member of an existing value: no new interning, both hit.
        idx.insert(l(4), &AttributeDb::new().with("os", "IRIX"));
        assert_eq!(idx.lookup_str_contains("os", "IRIX"), ls(&[1, 3, 4]));
        // Remove one of the two; the value stays alive.
        idx.remove(l(1), &AttributeDb::new().with("os", "IRIX"));
        assert_eq!(idx.lookup_str_contains("os", "IRIX"), ls(&[3, 4]));
        // Remove the last members; the value (and its grams) disappear.
        idx.remove(l(4), &AttributeDb::new().with("os", "IRIX"));
        idx.remove(l(3), &AttributeDb::new().with("os", "IRIX64").with("mem", 512i64));
        assert_eq!(idx.lookup_str_contains("os", "IRIX"), Vec::<Loid>::new());
        assert_eq!(idx.lookup_str_contains("os", "inux"), ls(&[2]));
    }

    #[test]
    fn first_char_ranges_narrow_by_class() {
        let idx = sample();
        assert_eq!(idx.lookup_str_first_ranges("os", &[('A', 'J')]), ls(&[1, 3]));
        assert_eq!(idx.lookup_str_first_ranges("os", &[('L', 'L')]), ls(&[2]));
        assert_eq!(
            idx.lookup_str_first_ranges("os", &[('A', 'J'), ('K', 'M')]),
            ls(&[1, 2, 3])
        );
        // Overlapping ranges do not duplicate members.
        assert_eq!(
            idx.lookup_str_first_ranges("os", &[('A', 'Z'), ('I', 'J')]),
            ls(&[1, 2, 3])
        );
        assert_eq!(idx.lookup_str_first_ranges("os", &[('a', 'z')]), Vec::<Loid>::new());
        assert_eq!(idx.count_str_first_ranges("os", &[('A', 'J')], CAP), 2);
        assert_eq!(idx.count_str_first_ranges("os", &[('A', 'J')], 1), 1);
    }

    #[test]
    fn numeric_ranges_with_coercion() {
        let idx = sample();
        // Int attr found through a float range.
        assert_eq!(
            idx.lookup_num_range("mem", Bound::Included(511.5), Bound::Unbounded),
            ls(&[3])
        );
        assert_eq!(
            idx.lookup_num_range("load", Bound::Unbounded, Bound::Excluded(0.9)),
            ls(&[1])
        );
        assert_eq!(
            idx.lookup_num_range("load", Bound::Included(0.9), Bound::Included(0.9)),
            ls(&[2])
        );
    }

    #[test]
    fn presence_covers_every_type() {
        let idx = sample();
        assert_eq!(idx.lookup_exists("up"), ls(&[1]));
        assert_eq!(idx.lookup_exists("os"), ls(&[1, 2, 3]));
        assert_eq!(idx.lookup_exists("gpu"), Vec::<Loid>::new());
    }

    #[test]
    fn remove_prunes_empty_buckets() {
        let mut idx = sample();
        let attrs = AttributeDb::new().with("os", "IRIX").with("load", 0.2).with("up", true);
        idx.remove(l(1), &attrs);
        assert_eq!(idx.lookup_str_eq("os", "IRIX"), Vec::<Loid>::new());
        assert_eq!(idx.lookup_exists("up"), Vec::<Loid>::new());
        assert_eq!(
            idx.lookup_num_range("load", Bound::Unbounded, Bound::Unbounded),
            ls(&[2])
        );
    }

    #[test]
    fn counts_saturate_at_cap_and_totals_short_circuit() {
        let mut idx = AttributeIndexes::default();
        for i in 0..100u64 {
            idx.insert(
                l(i),
                &AttributeDb::new().with("load", i as f64).with("os", format!("os{}", i % 10)),
            );
        }
        // Full-covering ranges answer from the total (min'd with cap).
        assert_eq!(idx.count_num_range("load", Bound::Unbounded, Bound::Unbounded, CAP), 100);
        assert_eq!(
            idx.count_num_range("load", Bound::Included(0.0), Bound::Included(99.0), CAP),
            100
        );
        assert_eq!(idx.count_num_range("load", Bound::Included(0.0), Bound::Unbounded, 7), 7);
        // Partial ranges walk but stop at the cap.
        assert_eq!(
            idx.count_num_range("load", Bound::Included(10.0), Bound::Excluded(20.0), CAP),
            10
        );
        assert_eq!(
            idx.count_num_range("load", Bound::Included(10.0), Bound::Excluded(90.0), 5),
            5
        );
        // Prefix counts: empty prefix answers from the total.
        assert_eq!(idx.count_str_prefix("os", "", CAP), 100);
        assert_eq!(idx.count_str_prefix("os", "", 9), 9);
        assert_eq!(idx.count_str_prefix("os", "os1", CAP), 10);
        assert_eq!(idx.count_str_prefix("os", "os", 25), 25);
        // Contains counts: short needles report the total.
        assert_eq!(idx.count_str_contains("os", "x", CAP), 100);
        assert_eq!(idx.count_str_contains("os", "os1", 4), 4);
    }

    #[test]
    fn negative_zero_folds_onto_zero() {
        let mut idx = AttributeIndexes::default();
        idx.insert(l(1), &AttributeDb::new().with("x", -0.0));
        assert_eq!(
            idx.lookup_num_range("x", Bound::Included(0.0), Bound::Included(0.0)),
            ls(&[1])
        );
    }

    #[test]
    fn nan_is_never_indexed() {
        let mut idx = AttributeIndexes::default();
        idx.insert(l(1), &AttributeDb::new().with("x", f64::NAN));
        assert_eq!(
            idx.lookup_num_range("x", Bound::Unbounded, Bound::Unbounded),
            Vec::<Loid>::new()
        );
        // ...but presence still sees it.
        assert_eq!(idx.lookup_exists("x"), ls(&[1]));
    }

    #[test]
    fn released_trigram_ids_are_reused() {
        let mut idx = AttributeIndexes::default();
        idx.insert(l(1), &AttributeDb::new().with("name", "u0-live"));
        for i in 0..10_000 {
            let churn = AttributeDb::new().with("name", format!("u{i}-churn"));
            idx.insert(l(2), &churn);
            idx.remove(l(2), &churn);
        }
        idx.insert(l(2), &AttributeDb::new().with("name", "u9-last"));
        let trigrams = &idx.strings["name"].trigrams;
        assert!(trigrams.ids.values().all(|&id| id <= 1), "{:?}", trigrams.ids);
        assert!(trigrams.values.len() <= 2, "{} ids handed out", trigrams.values.len());
        assert_eq!(idx.lookup_str_contains("name", "-live"), ls(&[1]));
        assert_eq!(idx.lookup_str_contains("name", "-last"), ls(&[2]));
        assert_eq!(idx.lookup_str_contains("name", "churn"), Vec::<Loid>::new());
        assert_eq!(idx.lookup_str_contains("name", "u9-"), ls(&[2]));
    }

    #[test]
    fn a_reused_low_id_lands_in_order_beside_a_high_one() {
        let name = |v: &str| AttributeDb::new().with("name", v);
        let shared = |m: u64| name(if m == 3 { "zz-shared" } else { "yy-shared" });
        for gone_first in [3, 4] {
            let mut idx = AttributeIndexes::default();
            for (m, v) in [(1, "aa-gone"), (2, "bb-kept"), (3, "zz-shared")] {
                idx.insert(l(m), &name(v));
            }
            // Id 0 is released, then taken by a value that shares every
            // gram of "-shared" with id 2's.
            idx.remove(l(1), &name("aa-gone"));
            idx.insert(l(4), &shared(4));
            let ids = &idx.strings["name"].trigrams.ids;
            assert_eq!((ids["yy-shared"], ids["zz-shared"]), (0, 2));
            idx.canonical();
            assert_eq!(idx.lookup_str_contains("name", "-shared"), ls(&[3, 4]));
            let kept = 7 - gone_first;
            idx.remove(l(gone_first), &shared(gone_first));
            assert_eq!(idx.lookup_str_contains("name", "-shared"), ls(&[kept]));
            idx.remove(l(kept), &shared(kept));
            assert_eq!(idx.lookup_str_contains("name", "-shared"), Vec::<Loid>::new());
            assert_eq!(idx.lookup_str_contains("name", "-kept"), ls(&[2]));
        }
    }

    #[test]
    fn sorted_merge_helpers() {
        let a = ls(&[1, 2, 3, 5]);
        let b = ls(&[2, 3, 4]);
        assert_eq!(intersect_sorted(&a, &b), ls(&[2, 3]));
        assert_eq!(intersect_sorted(&a, &[]), Vec::<Loid>::new());
        assert_eq!(union_sorted(vec![a.clone(), b.clone()]), ls(&[1, 2, 3, 4, 5]));
        assert_eq!(union_sorted(vec![]), Vec::<Loid>::new());
    }

    impl AttributeIndexes {
        /// Everything the indexes hold, one sorted line per bucket:
        /// string and numeric buckets (with their representation),
        /// totals, the `unindexed` sets, the interned values, and every
        /// trigram posting resolved to value text. Ids are left out,
        /// since which id a value gets depends on history; two index
        /// sets that dump equally answer every lookup alike.
        fn canonical(&self) -> Vec<String> {
            let mut out = Vec::new();
            for (name, si) in &self.strings {
                out.push(format!("{name} str total {}", si.total));
                for (value, bucket) in &si.by_val {
                    out.push(format!("{name} str {value:?} {bucket:?}"));
                }
                let t = &si.trigrams;
                assert_eq!(t.ids.len() + t.free.len(), t.values.len(), "{name}: ids leak");
                for (value, &id) in &t.ids {
                    assert_eq!(t.value(id), &**value, "{name}: id {id} resolves elsewhere");
                    out.push(format!("{name} interned {value:?}"));
                }
                for &id in &t.free {
                    assert!(t.values[id as usize].is_none(), "{name}: free id {id} is live");
                }
                for (gram, posting) in &t.grams {
                    assert!(posting.windows(2).all(|w| w[0] < w[1]), "{name} {gram:?} {posting:?}");
                    let mut texts: Vec<&str> = posting.iter().map(|&id| t.value(id)).collect();
                    texts.sort_unstable();
                    out.push(format!("{name} gram {gram:?} {texts:?}"));
                }
            }
            for (name, ni) in &self.numbers {
                out.push(format!("{name} num total {}", ni.total));
                for (key, bucket) in &ni.by_val {
                    out.push(format!("{name} num {:?} {bucket:?}", key.0));
                }
            }
            for (name, set) in &self.unindexed {
                out.push(format!("{name} unindexed {set:?}"));
            }
            out.sort_unstable();
            out
        }
    }

    /// Values with every equality edge the walk relies on: a shared
    /// string (one `Arc` cloned), strings rebuilt from equal text
    /// (equal, not pointer-equal), unique strings, `Int(1)` beside
    /// `Float(1.0)`, both zeros, `NaN`, bools and lists. The `site` names
    /// share grams and are common and many, so a value that leaves often
    /// frees an id below a live one, and the next new value reuses it.
    fn arb_value() -> impl Strategy<Value = AttrValue> {
        prop_oneof![
            Just(AttrValue::from("IRIX")),
            (0u32..12).prop_map(|n| AttrValue::from(format!("site{n}.edu"))),
            (0u32..12).prop_map(|n| AttrValue::from(format!("site{n}.edu"))),
            (0u32..10_000).prop_map(|n| AttrValue::from(format!("u0-{n}"))),
            Just(AttrValue::Int(1)),
            Just(AttrValue::Float(1.0)),
            Just(AttrValue::Float(0.0)),
            Just(AttrValue::Float(-0.0)),
            Just(AttrValue::Float(f64::NAN)),
            any::<bool>().prop_map(AttrValue::Bool),
            proptest::collection::vec(Just(AttrValue::from("v")), 0..2).prop_map(AttrValue::List),
        ]
    }

    /// One step: a member's record has some of its attributes set or
    /// dropped (names from a pool of seven, three of them State names),
    /// the rest kept as they are. The new record is a copy of the old
    /// one, which shares its Info part until an Info name is written,
    /// or (`fresh`) is rebuilt entry by entry, so that an equal Info part
    /// sits behind a different `Arc` beside an equal State.
    fn arb_step() -> impl Strategy<Value = (u64, bool, Vec<(usize, Option<AttrValue>)>)> {
        let edit = (0usize..7, prop_oneof![Just(None), arb_value().prop_map(Some)]);
        (0u64..3, any::<bool>(), proptest::collection::vec(edit, 0..4))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Moving members through random records one `reindex` at a time
        /// leaves the indexes exactly as inserting every member's
        /// current record into an empty set does, and each `reindex`
        /// reports exactly the names whose value it saw change.
        #[test]
        fn reindex_equals_a_rebuild(steps in proptest::collection::vec(arb_step(), 1..40)) {
            const NAMES: [&str; 7] = [
                "arch",
                "host_draining",
                "host_free_memory_mb",
                "host_load",
                "host_name",
                "os",
                "zone",
            ];
            let mut idx = AttributeIndexes::default();
            let mut records: BTreeMap<u64, AttributeDb> = BTreeMap::new();
            for (member, fresh, edits) in &steps {
                let old = records.get(member).cloned().unwrap_or_default();
                let mut new = if *fresh {
                    old.iter().map(|(name, value)| (name.to_string(), value.clone())).collect()
                } else {
                    old.clone()
                };
                for (name, value) in edits {
                    match value {
                        Some(v) => new.set(NAMES[*name], v.clone()),
                        None => new.remove(NAMES[*name]),
                    };
                }
                let changed = idx.reindex(l(*member), &old, &new);
                // The names whose value differs, read off the two
                // databases by lookup rather than by a merge walk. A
                // value in an Info part the two share is one value, even
                // a `NaN`.
                let shared = old.shares_info(&new);
                let differs = old
                    .iter()
                    .chain(new.iter())
                    .map(|(name, _)| name)
                    .filter(|name| old.get(name) != new.get(name))
                    .filter(|name| !shared || new.state().any(|(state, _)| state == *name))
                    .fold(AttrMask::default(), |mask, name| mask | AttrMask::of(name));
                prop_assert_eq!(changed, differs);
                records.insert(*member, new);

                let mut rebuilt = AttributeIndexes::default();
                for (m, attrs) in &records {
                    rebuilt.insert(l(*m), attrs);
                }
                prop_assert_eq!(idx.canonical(), rebuilt.canonical());
            }
        }
    }
}
