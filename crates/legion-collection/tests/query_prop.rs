//! Property tests for the query language: boolean algebra laws hold on
//! arbitrary attribute databases, and parsing is total over generated
//! well-formed queries.

use legion_collection::parse_query;
use legion_core::{AttrValue, AttributeDb};
use proptest::prelude::*;

/// A generator of small attribute databases.
fn arb_db() -> impl Strategy<Value = AttributeDb> {
    proptest::collection::vec(
        (
            "[ab]",
            prop_oneof![
                (-100i64..100).prop_map(AttrValue::Int),
                (-10.0f64..10.0).prop_map(AttrValue::Float),
                "[xy]{0,3}".prop_map(AttrValue::from),
                any::<bool>().prop_map(AttrValue::Bool),
            ],
        ),
        0..4,
    )
    .prop_map(|pairs| {
        let mut db = AttributeDb::new();
        for (k, v) in pairs {
            db.set(k, v);
        }
        db
    })
}

/// A generator of well-formed atomic query terms over attrs `$a`, `$b`.
fn arb_term() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("true".to_string()),
        Just("false".to_string()),
        ("[ab]", prop_oneof![Just("=="), Just("!="), Just("<"), Just("<="), Just(">"), Just(">=")], -5i64..5)
            .prop_map(|(a, op, n)| format!("$%{a} {op} {n}").replace('%', "")),
        "[ab]".prop_map(|a| format!("exists(${a})")),
        ("[ab]", "[xy]{0,2}").prop_map(|(a, s)| format!(r#"match("{s}", ${a})"#)),
    ]
}

/// Small boolean combinations of terms.
fn arb_query() -> impl Strategy<Value = String> {
    let term = arb_term();
    term.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) and ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) or ({b})")),
            inner.prop_map(|a| format!("not ({a})")),
        ]
    })
}

proptest! {
    /// Every generated query parses, and evaluation never panics.
    #[test]
    fn generated_queries_parse_and_run(q in arb_query(), db in arb_db()) {
        let compiled = parse_query(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let _ = compiled.matches(&db);
    }

    /// Double negation: `not (not e)` ≡ `e`.
    #[test]
    fn double_negation(q in arb_query(), db in arb_db()) {
        let e = parse_query(&q).unwrap();
        let nn = parse_query(&format!("not (not ({q}))")).unwrap();
        prop_assert_eq!(e.matches(&db), nn.matches(&db));
    }

    /// De Morgan: `not (a and b)` ≡ `(not a) or (not b)`.
    #[test]
    fn de_morgan(a in arb_term(), b in arb_term(), db in arb_db()) {
        let lhs = parse_query(&format!("not (({a}) and ({b}))")).unwrap();
        let rhs = parse_query(&format!("(not ({a})) or (not ({b}))")).unwrap();
        prop_assert_eq!(lhs.matches(&db), rhs.matches(&db));
    }

    /// `and`/`or` are commutative and idempotent on fixed inputs.
    #[test]
    fn boolean_laws(a in arb_term(), b in arb_term(), db in arb_db()) {
        let ab = parse_query(&format!("({a}) and ({b})")).unwrap();
        let ba = parse_query(&format!("({b}) and ({a})")).unwrap();
        prop_assert_eq!(ab.matches(&db), ba.matches(&db));
        let aa = parse_query(&format!("({a}) or ({a})")).unwrap();
        let just_a = parse_query(&a).unwrap();
        prop_assert_eq!(aa.matches(&db), just_a.matches(&db));
    }

    /// `!=` is the complement of `==` whenever either holds (on present,
    /// comparable operands both are defined and opposite; on missing or
    /// incomparable operands both are false).
    #[test]
    fn eq_ne_complementarity(n in -5i64..5, db in arb_db()) {
        let eq = parse_query(&format!("$a == {n}")).unwrap();
        let ne = parse_query(&format!("$a != {n}")).unwrap();
        let comparable = db
            .get("a")
            .map(|v| v.semantic_cmp(&AttrValue::Int(n)).is_some())
            .unwrap_or(false);
        if comparable {
            prop_assert_ne!(eq.matches(&db), ne.matches(&db));
        } else {
            prop_assert!(!eq.matches(&db));
            prop_assert!(!ne.matches(&db));
        }
    }

    /// Ordering trichotomy on numeric attributes: exactly one of
    /// `<`, `==`, `>` holds when `$a` is numeric.
    #[test]
    fn numeric_trichotomy(x in -100i64..100, n in -100i64..100) {
        let db = AttributeDb::new().with("a", x);
        let count = ["<", "==", ">"]
            .iter()
            .filter(|op| {
                parse_query(&format!("$a {op} {n}")).unwrap().matches(&db)
            })
            .count();
        prop_assert_eq!(count, 1);
    }
}
