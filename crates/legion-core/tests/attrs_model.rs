//! `AttributeDb` against a model: a `BTreeMap<String, AttrValue>`, the
//! layout the database used to have. Any sequence of `set`, `with`,
//! `remove`, `merge_from` and `collect` must leave the two with the same
//! lookups, length, name order, equality and rendering, and a copy must
//! stay what it was whichever side is mutated afterwards. The names
//! drawn mix State names (inline slots) with Info names (the shared,
//! name-sorted part), so the two parts interleave in name order.

use legion_core::host::well_known;
use legion_core::{AttrValue, AttributeDb};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<String, AttrValue>;

/// Well-known names, State and Info, mixed with free-form ones (stored
/// as text) that sort before, between and after them, from a small pool
/// so that operations collide.
const WELL_KNOWN: [&str; 7] = [
    well_known::LOAD,
    well_known::FREE_MEMORY_MB,
    well_known::RUNNING_OBJECTS,
    well_known::DRAINING,
    well_known::HOST_NAME,
    well_known::ARCH,
    well_known::COMPATIBLE_VAULTS,
];

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..WELL_KNOWN.len()).prop_map(|i| WELL_KNOWN[i].to_string()),
        Just("host_m".to_string()),
        "[a-c]{1,2}",
        Just("zz".to_string()),
    ]
}

fn arb_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-3i64..3).prop_map(AttrValue::Int),
        (-2.0f64..2.0).prop_map(AttrValue::Float),
        "[xy]{0,2}".prop_map(AttrValue::from),
        any::<bool>().prop_map(AttrValue::Bool),
        proptest::collection::vec("[xy]".prop_map(AttrValue::from), 0..3).prop_map(AttrValue::List),
    ]
}

fn arb_pairs() -> impl Strategy<Value = Vec<(String, AttrValue)>> {
    proptest::collection::vec((arb_name(), arb_value()), 0..6)
}

#[derive(Clone)]
enum Op {
    Set(String, AttrValue),
    With(String, AttrValue),
    Remove(String),
    Merge(Vec<(String, AttrValue)>),
    Collect(Vec<(String, AttrValue)>),
    /// Keep a copy of both sides, to be checked at the end.
    Keep,
    /// Copy the database and mutate the copy; the original must not move.
    Fork(String, AttrValue),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_name(), arb_value()).prop_map(|(n, v)| Op::Set(n, v)),
        (arb_name(), arb_value()).prop_map(|(n, v)| Op::With(n, v)),
        arb_name().prop_map(Op::Remove),
        arb_pairs().prop_map(Op::Merge),
        arb_pairs().prop_map(Op::Collect),
        Just(Op::Keep),
        (arb_name(), arb_value()).prop_map(|(n, v)| Op::Fork(n, v)),
    ]
}

/// Every name the strategies can draw, present or not.
fn all_names() -> Vec<String> {
    let mut names: Vec<String> = WELL_KNOWN
        .into_iter()
        .chain(["host_m", "zz"])
        .map(String::from)
        .collect();
    for a in ["a", "b", "c"] {
        names.push(a.to_string());
        for b in ["a", "b", "c"] {
            names.push(format!("{a}{b}"));
        }
    }
    names
}

fn from_model(model: &Model) -> AttributeDb {
    model.iter().map(|(n, v)| (n.clone(), v.clone())).collect()
}

/// Each entry rendered with the value's `Display`, in iteration order.
fn rendered<'a>(entries: impl Iterator<Item = (&'a str, &'a AttrValue)>) -> Vec<String> {
    entries.map(|(n, v)| format!("{n}={v}")).collect()
}

fn agrees(db: &AttributeDb, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(db.len(), model.len());
    prop_assert_eq!(db.is_empty(), model.is_empty());
    for name in all_names() {
        prop_assert_eq!(db.get(&name), model.get(&name), "get({})", name);
        prop_assert_eq!(db.contains(&name), model.contains_key(&name));
    }
    let names: Vec<&str> = db.iter().map(|(n, _)| n).collect();
    let model_names: Vec<&str> = model.keys().map(String::as_str).collect();
    prop_assert_eq!(names, model_names);
    prop_assert_eq!(
        rendered(db.iter()),
        rendered(model.iter().map(|(n, v)| (n.as_str(), v)))
    );
    // The debug form is still the map the database used to derive it from.
    prop_assert_eq!(
        format!("{db:?}"),
        format!("AttributeDb {{ entries: {model:?} }}")
    );
    prop_assert!(*db == from_model(model));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn attribute_db_behaves_like_a_name_ordered_map(ops in proptest::collection::vec(arb_op(), 0..24)) {
        let mut db = AttributeDb::new();
        let mut model = Model::new();
        let mut kept: Vec<(AttributeDb, Model)> = Vec::new();
        for op in ops {
            match op {
                Op::Set(n, v) => {
                    let previous = model.insert(n.clone(), v.clone());
                    prop_assert_eq!(db.set(n, v), previous);
                }
                Op::With(n, v) => {
                    db = db.with(n.as_str(), v.clone());
                    model.insert(n, v);
                }
                Op::Remove(n) => prop_assert_eq!(db.remove(&n), model.remove(&n)),
                Op::Merge(pairs) => {
                    db.merge_from(&pairs.iter().cloned().collect());
                    model.extend(pairs);
                }
                Op::Collect(pairs) => {
                    db = pairs.iter().cloned().collect();
                    model = pairs.into_iter().collect();
                }
                Op::Keep => kept.push((db.clone(), model.clone())),
                Op::Fork(n, v) => {
                    let mut copy = db.clone();
                    copy.set(n.as_str(), v);
                    copy.merge_from(&from_model(&model).with(n.as_str(), "forked"));
                    copy.remove(well_known::HOST_NAME);
                }
            }
            agrees(&db, &model)?;
            for (copy, model_then) in &kept {
                prop_assert_eq!(*copy == db, *model_then == model, "== follows the model");
            }
        }
        for (copy, model_then) in &kept {
            agrees(copy, model_then)?;
        }
    }
}

/// A copy shares the Info part until it writes an Info name; writing a
/// State name keeps it shared. Whatever the copy does, the original
/// keeps every value it had.
#[test]
fn a_copy_shares_info_until_it_writes_an_info_name() {
    let original = AttributeDb::new()
        .with(well_known::HOST_NAME, "h0")
        .with(well_known::ARCH, "x86_64")
        .with(well_known::LOAD, 0.25)
        .with(well_known::DRAINING, false);
    let before = format!("{original:?}");

    let mut copy = original.clone();
    assert!(copy.shares_info(&original));
    copy.set(well_known::LOAD, 0.75);
    copy.set(well_known::RUNNING_OBJECTS, 3i64);
    copy.remove(well_known::DRAINING);
    copy.merge_from(&AttributeDb::new().with(well_known::FREE_MEMORY_MB, 512i64));
    // Removing an absent Info name writes nothing.
    copy.remove("absent");
    assert!(copy.shares_info(&original), "State writes keep the Info part shared");
    assert_eq!(copy.get_f64(well_known::LOAD), Some(0.75));
    assert_eq!(format!("{original:?}"), before);

    copy.set(well_known::ARCH, "sparc");
    assert!(!copy.shares_info(&original), "an Info write detaches the copy");
    assert_eq!(copy.get_str(well_known::ARCH), Some("sparc"));
    assert_eq!(original.get_str(well_known::ARCH), Some("x86_64"));
    assert_eq!(format!("{original:?}"), before);

    let mut other = original.clone();
    other.remove(well_known::HOST_NAME);
    assert!(!other.shares_info(&original), "removing an Info name detaches too");
    assert_eq!(format!("{original:?}"), before);
}
