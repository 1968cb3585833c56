//! Query text cannot exhaust the stack: `parse_query` refuses groups and
//! `not`s nested deeper than 64 levels, and the regex parser inside
//! `match()` refuses patterns nested deeper than 64, each as a
//! `BadQuery` error. A chain of `and`s or `or`s is not nesting: it
//! parses to one flat node, so a chain of any length is accepted.
//!
//! Each hostile query is 1 MB and is handled on a thread with a 256 KiB
//! stack; without the limits and the flat chains they abort the process
//! with a stack overflow.
//!
//! Nor can it exhaust memory: a `match()` pattern whose program would
//! exceed 65,536 instructions is refused before anything is expanded.

use legion_collection::{parse_query, Collection};
use legion_core::{AttributeDb, LegionError, Loid, LoidKind, SimTime};

const MB: usize = 1 << 20;

/// Runs `f` on a thread with a 256 KiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("the query must not panic")
}

/// Parses `query` on a thread with a 256 KiB stack and returns the
/// `BadQuery` text.
fn refusal_on_small_stack(query: String) -> String {
    match on_small_stack(move || parse_query(&query).map(drop)) {
        Err(LegionError::BadQuery(why)) => why,
        other => panic!("expected a BadQuery error, got {other:?}"),
    }
}

#[test]
fn a_megabyte_of_nested_groups_is_refused() {
    let n = MB / 2;
    let why = refusal_on_small_stack(format!("{}true{}", "(".repeat(n), ")".repeat(n)));
    assert!(why.contains("nesting depth exceeds the limit of 64"), "{why}");
}

#[test]
fn a_megabyte_of_chained_nots_is_refused() {
    let why = refusal_on_small_stack(format!("{}true", "not ".repeat(MB / 4)));
    assert!(why.contains("nesting depth exceeds the limit of 64"), "{why}");
}

#[test]
fn a_megabyte_of_stacked_quantifiers_in_match_is_refused() {
    let why = refusal_on_small_stack(format!("match(\"a{}\", $name)", "?".repeat(MB)));
    assert!(why.contains("nesting depth exceeds the limit of 64"), "{why}");
}

#[test]
fn sixty_four_levels_still_parse() {
    let deep = format!("{}true{}", "not (".repeat(32), ")".repeat(32));
    assert!(parse_query(&deep).unwrap().matches(&Default::default()));
    let too_deep = format!("not {deep}");
    assert!(parse_query(&too_deep).is_err());
}

/// Parses `query`, evaluates it against an empty record and runs it as
/// a `Collection::query` over two members, all on a thread with a
/// 256 KiB stack; returns the evaluation and the number of hits.
fn run_on_small_stack(query: String) -> (bool, usize) {
    on_small_stack(move || {
        let matched = parse_query(&query).expect("a chain parses").matches(&AttributeDb::new());
        let c = Collection::new(1);
        for seq in 0..2 {
            c.join_with(Loid::synthetic(LoidKind::Host, seq), AttributeDb::new(), SimTime::ZERO);
        }
        (matched, c.query(&query).expect("a chain runs").len())
    })
}

#[test]
fn a_megabyte_chain_of_ands_runs() {
    let query = format!("{}true", "true and ".repeat(MB / "true and ".len()));
    assert!(query.len() > MB - 16);
    assert_eq!(run_on_small_stack(query), (true, 2));
}

#[test]
fn a_megabyte_chain_of_ors_runs() {
    let query = format!("{}true", "false or ".repeat(MB / "false or ".len()));
    assert!(query.len() > MB - 16);
    assert_eq!(run_on_small_stack(query), (true, 2));
}

#[test]
fn a_billion_instruction_pattern_is_refused_by_collection_query() {
    let c = Collection::new(1);
    c.join_with(Loid::synthetic(LoidKind::Host, 0), AttributeDb::new(), SimTime::ZERO);
    let started = std::time::Instant::now();
    let refused = c.query(r#"match("((a{1000}){1000}){1000}", $name)"#);
    let elapsed = started.elapsed();
    match refused {
        Err(LegionError::BadQuery(why)) => {
            assert!(why.contains("exceeds the limit of 65536 instructions"), "{why}")
        }
        other => panic!("expected a BadQuery error, got {other:?}"),
    }
    assert!(elapsed < std::time::Duration::from_millis(10), "took {elapsed:?}");
}
