//! Planner/scan equivalence: the indexed query path must return results
//! *identical* to the naive full scan — same members, same order, same
//! (possibly derived-extended) attribute views — across randomized
//! record sets, query ASTs, derived attributes, and interleaved
//! join/update/replace/leave/evict sequences, with members re-joining
//! into index slots that others freed.
//!
//! The engine's safety argument is that index lookups only ever
//! over-approximate and the full query is re-evaluated per candidate;
//! this suite is the executable form of that argument.

use legion_collection::{
    parse_query, Collection, CollectionRecord, DerivedAttribute, MemberCredential,
};
use legion_core::{AttrValue, AttributeDb, Loid, LoidKind, SimDuration, SimTime};
use legion_fabric::MetricsLedger;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Attribute names drawn from a small pool so queries and records
/// collide often. `derived_load` is reserved for the injected function.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("os".to_string()),
        Just("load".to_string()),
        Just("mem".to_string()),
        Just("tag".to_string()),
    ]
}

/// String values with shared prefixes so prefix probes get real hits
/// and misses (IRIX vs IRIX64), plus the empty string edge case.
fn arb_str() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("IRIX".to_string()),
        Just("IRIX64".to_string()),
        Just("Linux".to_string()),
        Just("5.3".to_string()),
        Just(String::new()),
    ]
}

/// Values over a narrow alphabet, mixing every attribute type.
fn arb_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-4i64..4).prop_map(AttrValue::Int),
        (-2.0f64..2.0).prop_map(AttrValue::Float),
        Just(AttrValue::Float(-0.0)),
        Just(AttrValue::Float(0.0)),
        Just(AttrValue::Float(1.0)),
        Just(AttrValue::Int(1)),
        arb_str().prop_map(AttrValue::from),
        any::<bool>().prop_map(AttrValue::Bool),
        proptest::collection::vec("[xy]".prop_map(AttrValue::from), 0..3)
            .prop_map(AttrValue::List),
    ]
}

fn arb_db() -> impl Strategy<Value = AttributeDb> {
    proptest::collection::vec((arb_name(), arb_value()), 0..5).prop_map(|pairs| {
        let mut db = AttributeDb::new();
        for (k, v) in pairs {
            db.set(k, v);
        }
        db
    })
}

/// One membership operation against the collection under test.
#[derive(Debug, Clone)]
enum Op {
    Join(u64, AttributeDb),
    Update(u64, AttributeDb),
    Replace(u64, AttributeDb),
    Leave(u64),
    EvictStale(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let seq = 0u64..12;
    prop_oneof![
        (seq.clone(), arb_db()).prop_map(|(s, db)| Op::Join(s, db)),
        (seq.clone(), arb_db()).prop_map(|(s, db)| Op::Join(s, db)),
        (seq.clone(), arb_db()).prop_map(|(s, db)| Op::Update(s, db)),
        (seq.clone(), arb_db()).prop_map(|(s, db)| Op::Replace(s, db)),
        seq.clone().prop_map(Op::Leave),
        (1u64..8).prop_map(Op::EvictStale),
    ]
}

/// Indexable and residual terms, mixed: string equality (both operand
/// orders), numeric ranges, `exists`, anchored-prefix / anchored-exact /
/// unanchored `match`, attribute-sourced patterns, `contains`, `!=`.
fn arb_term() -> impl Strategy<Value = String> {
    let prefix_pat = prop_oneof![
        Just("IRIX".to_string()),
        Just("IR".to_string()),
        Just("Li".to_string()),
        Just(r"5\.".to_string()),
    ];
    let substr_pat = prop_oneof![
        Just("RIX".to_string()),  // trigram-narrowed (3 bytes)
        Just("RIX6".to_string()), // trigram-narrowed (2 grams intersected)
        Just("inux".to_string()),
        Just("x".to_string()),  // too short for trigrams: value-scan path
        Just("5.3".to_string()), // dot is a metachar: inexact, residual must run
    ];
    let class_pat = prop_oneof![
        Just("^[I-L]".to_string()),  // leading char-class range
        Just("^[IL5]".to_string()),  // leading char-class set
        Just("^[A-Z]inux".to_string()),
    ];
    prop_oneof![
        (arb_name(), arb_str()).prop_map(|(a, s)| format!(r#"${a} == "{s}""#)),
        (arb_name(), arb_str()).prop_map(|(a, s)| format!(r#""{s}" == ${a}"#)),
        (
            arb_name(),
            prop_oneof![Just("=="), Just("!="), Just("<"), Just("<="), Just(">"), Just(">=")],
            -3i64..3
        )
            .prop_map(|(a, op, n)| format!("${a} {op} {n}")),
        (arb_name(), -2.0f64..2.0).prop_map(|(a, x)| format!("${a} < {x:.2}")),
        (-2.0f64..2.0, arb_name()).prop_map(|(x, a)| format!("{x:.2} <= ${a}")),
        arb_name().prop_map(|a| format!("exists(${a})")),
        Just("exists($derived_load)".to_string()),
        Just("$derived_load >= 0.0".to_string()),
        (arb_name(), prefix_pat.clone()).prop_map(|(a, p)| format!(r#"match("^{p}", ${a})"#)),
        (arb_name(), arb_str()).prop_map(|(a, p)| format!(r#"match("^{p}$", ${a})"#)),
        (arb_name(), substr_pat).prop_map(|(a, p)| format!(r#"match("{p}", ${a})"#)),
        (arb_name(), class_pat).prop_map(|(a, p)| format!(r#"match("{p}", ${a})"#)),
        (arb_name(), prefix_pat).prop_map(|(a, p)| format!(r#"match("^{p}(64)?$", ${a})"#)),
        (arb_name(), arb_str()).prop_map(|(a, s)| format!(r#"match("{s}$", ${a})"#)),
        (arb_name(), arb_name()).prop_map(|(a, b)| format!("match(${a}, ${b})")),
        (arb_name(), "[xy]").prop_map(|(a, s)| format!(r#"contains(${a}, "{s}")"#)),
    ]
}

fn arb_query() -> impl Strategy<Value = String> {
    arb_term().prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) and ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) or ({b})")),
            inner.prop_map(|a| format!("not ({a})")),
        ]
    })
}

fn loid(seq: u64) -> Loid {
    Loid::synthetic(LoidKind::Host, seq)
}

/// Applies `ops` with a monotonically advancing clock, tracking
/// credentials so update/replace/leave stay authenticated.
fn apply_ops(c: &Collection, ops: &[Op]) {
    let mut creds: BTreeMap<u64, MemberCredential> = BTreeMap::new();
    let mut now = SimTime::ZERO;
    for op in ops {
        now += SimDuration::from_secs(1);
        match op {
            Op::Join(s, db) => {
                let cred = c.join_with(loid(*s), db.clone(), now);
                creds.insert(*s, cred);
            }
            Op::Update(s, db) => {
                if let Some(cred) = creds.get(s) {
                    let _ = c.update(cred, db, now);
                }
            }
            Op::Replace(s, db) => {
                if let Some(cred) = creds.get(s) {
                    let _ = c.replace(cred, db.clone(), now);
                }
            }
            Op::Leave(s) => {
                if let Some(cred) = creds.get(s) {
                    let _ = c.leave(cred);
                }
            }
            Op::EvictStale(ttl) => {
                let _ = c.evict_stale(now, SimDuration::from_secs(*ttl));
            }
        }
    }
}

fn members(records: &[Arc<CollectionRecord>]) -> Vec<Loid> {
    records.iter().map(|r| r.member).collect()
}

fn assert_member_order(what: &str, members: Vec<Loid>) -> Result<(), TestCaseError> {
    prop_assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "{} is not in strictly increasing member order: {:?}",
        what,
        members
    );
    Ok(())
}

fn assert_equivalent(c: &Collection, query: &str) -> Result<(), TestCaseError> {
    let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    let indexed = c.query_parsed(&q);
    let scanned = c.query_scan(&q);
    prop_assert_eq!(
        &indexed,
        &scanned,
        "indexed and scan paths disagree on {} over {} records",
        query,
        c.len()
    );
    Ok(())
}

proptest! {
    /// Indexed results equal scan results on arbitrary record sets.
    #[test]
    fn indexed_equals_scan(
        ops in proptest::collection::vec(arb_op(), 0..25),
        queries in proptest::collection::vec(arb_query(), 1..4),
    ) {
        let c = Collection::new(7);
        apply_ops(&c, &ops);
        for query in &queries {
            assert_equivalent(&c, query)?;
        }
    }

    /// ...and stay equal when a derived attribute extends the views:
    /// the planner must refuse to index `$derived_load`, and both paths
    /// must return identical *extended* views.
    #[test]
    fn indexed_equals_scan_with_derived(
        ops in proptest::collection::vec(arb_op(), 0..20),
        queries in proptest::collection::vec(arb_query(), 1..4),
    ) {
        let c = Collection::new(7);
        c.install_function(DerivedAttribute::new("derived_load", |_, attrs| {
            attrs.get_f64("load").map(|v| AttrValue::Float(v + 1.0))
        }));
        apply_ops(&c, &ops);
        for query in &queries {
            assert_equivalent(&c, query)?;
        }
    }

    /// Membership churn between queries never desynchronizes the
    /// indexes from the records, and every multi-record result comes
    /// out in strictly increasing member order: the candidate cache
    /// binary-searches served sets by member.
    #[test]
    fn interleaved_ops_keep_indexes_in_sync(
        rounds in proptest::collection::vec(
            (proptest::collection::vec(arb_op(), 1..8), arb_query()),
            1..5
        ),
    ) {
        let c = Collection::new(7);
        for (ops, query) in &rounds {
            apply_ops(&c, ops);
            assert_equivalent(&c, query)?;
            let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
            assert_member_order("query", members(&c.query_parsed(&q)))?;
            assert_member_order("query_scan", members(&c.query_scan(&q)))?;
            assert_member_order("dump", members(&c.dump()))?;
            let (fresh, _) = c.fresh_records(SimTime::from_secs(8), SimDuration::from_secs(4));
            assert_member_order("fresh_records", members(&fresh))?;
            let evicted = c.evict_stale(SimTime::from_secs(8), SimDuration::from_secs(6));
            assert_member_order("evict_stale", evicted)?;
        }
        // A last sweep evicts every member, in the order `dump` lists them.
        let all = members(&c.dump());
        prop_assert_eq!(c.evict_stale(SimTime::from_secs(1_000), SimDuration::ZERO), all);
        prop_assert!(c.is_empty());
    }

    /// Members leave, and members whose LOIDs sort before every member
    /// that stayed re-join into the slots they freed, so slot order and
    /// member order part: every indexed result still equals the scan, in
    /// member order.
    #[test]
    fn reused_slots_keep_member_order(
        first in proptest::collection::vec(arb_db(), 1..10),
        leaves in proptest::collection::vec(any::<bool>(), 10..11),
        later in proptest::collection::vec(arb_db(), 1..10),
        queries in proptest::collection::vec(arb_query(), 1..4),
    ) {
        let c = Collection::new(7);
        let creds: Vec<MemberCredential> = first
            .iter()
            .enumerate()
            .map(|(i, db)| c.join_with(loid(100 + i as u64), db.clone(), SimTime::ZERO))
            .collect();
        for (cred, leaves) in creds.iter().zip(&leaves) {
            if *leaves {
                c.leave(cred).expect("a member leaves once");
            }
        }
        // The last slot freed is the first taken, by the lowest LOID.
        for (i, db) in later.iter().enumerate() {
            c.join_with(loid(i as u64), db.clone(), SimTime::from_secs(1));
        }
        for query in &queries {
            assert_equivalent(&c, query)?;
            let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
            assert_member_order("query", members(&c.query_parsed(&q)))?;
        }
    }
}

/// Deterministic spot checks for the documented fallback shapes: these
/// must return correct results via the scan path (ISSUE acceptance).
#[test]
fn fallback_shapes_are_correct() {
    let c = Collection::new(7);
    c.join_with(
        loid(1),
        AttributeDb::new().with("os", "IRIX").with("pat", "RI").with("load", 0.2),
        SimTime::ZERO,
    );
    c.join_with(
        loid(2),
        AttributeDb::new()
            .with("os", "Linux")
            .with("tags", AttrValue::List(vec!["x".into()]))
            .with("load", 0.9),
        SimTime::ZERO,
    );

    // Attribute-sourced pattern.
    let rs = c.query("match($pat, $os)").unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].member, loid(1));

    // Unanchored literal pattern.
    let rs = c.query(r#"match("inux", $os)"#).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].member, loid(2));

    // Pure `or` of non-indexed predicates.
    let rs = c.query(r#"contains($tags, "x") or not exists($os)"#).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].member, loid(2));

    // Negation.
    let rs = c.query("not $load < 0.5").unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].member, loid(2));

    // `!=`.
    let rs = c.query(r#"$os != "IRIX""#).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].member, loid(2));
}

/// Selective queries are answered from the indexes, not by scanning:
/// on a 10,000-record fleet (`HPUX` on 1%, `IRIX` on a third, `5.3` on
/// every tenth host) exact plans re-evaluate no record at all, while a
/// non-selective range and the reference scan each examine every one.
#[test]
fn selective_queries_skip_reevaluation() {
    const N: u64 = 10_000;
    let c = Collection::new(9);
    for i in 0..N {
        let os = match i {
            i if i % 100 == 0 => "HPUX",
            i if i % 3 == 0 => "IRIX",
            _ => "Linux",
        };
        let attrs = AttributeDb::new()
            .with("host_os_name", os)
            .with("host_os_version", if i % 10 == 0 { "5.3" } else { "6.5" })
            .with("host_load", (i % 100) as f64 / 50.0);
        c.join_with(loid(i), attrs, SimTime::ZERO);
    }
    let metrics = Arc::new(MetricsLedger::default());
    c.set_metrics(Arc::clone(&metrics));

    for (query, expected_scanned) in [
        (r#"match("^IRIX$", $host_os_name) and match("^5\.", $host_os_version)"#, 0),
        (r#"match("PUX", $host_os_name)"#, 0),
        (r#"$host_os_name == "HPUX""#, 0),
        ("$host_load >= 0.0", N),
    ] {
        let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
        let before = metrics.snapshot();
        let indexed = c.query_parsed(&q);
        let between = metrics.snapshot();
        let scanned = c.query_scan(&q);
        let after = metrics.snapshot();
        assert_eq!(indexed, scanned, "indexed and scan paths disagree on {query}");
        assert!(!indexed.is_empty(), "{query} selects nothing");
        assert_eq!(
            between.delta(&before).collection_records_scanned,
            expected_scanned,
            "records re-evaluated by {query}"
        );
        assert_eq!(
            after.delta(&between).collection_records_scanned,
            N,
            "query_scan examines every record for {query}"
        );
    }
}

/// The Arc snapshots returned by queries are immune to later updates
/// (and updates copy-on-write instead of mutating shared state).
#[test]
fn query_results_are_stable_snapshots() {
    let c = Collection::new(7);
    let cred = c.join_with(loid(1), AttributeDb::new().with("load", 0.2), SimTime::ZERO);
    let before = c.query("exists($load)").unwrap();
    assert_eq!(before[0].attrs.get_f64("load"), Some(0.2));

    c.update(&cred, &AttributeDb::new().with("load", 0.9), SimTime::from_secs(1)).unwrap();

    // The old snapshot is unchanged; a fresh query sees the update.
    assert_eq!(before[0].attrs.get_f64("load"), Some(0.2));
    let after = c.query("exists($load)").unwrap();
    assert_eq!(after[0].attrs.get_f64("load"), Some(0.9));
    // Without derived attributes, hits share storage with the record map.
    assert!(Arc::ptr_eq(&after[0], &c.get(loid(1)).unwrap()));
}
