//! Query text cannot exhaust the stack: `parse_query` refuses groups and
//! `not`s nested deeper than 64 levels, and the regex parser inside
//! `match()` refuses patterns nested deeper than 64, each as a
//! `BadQuery` error.
//!
//! Each hostile query is 1 MB and is parsed on a thread with a 256 KiB
//! stack; without the limits they abort the process with a stack
//! overflow.

use legion_collection::parse_query;
use legion_core::LegionError;

const MB: usize = 1 << 20;

/// Parses `query` on a thread with a 256 KiB stack and returns the
/// `BadQuery` text.
fn refusal_on_small_stack(query: String) -> String {
    let result = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || parse_query(&query).map(drop))
        .expect("spawn test thread")
        .join()
        .expect("parsing must not panic");
    match result {
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
