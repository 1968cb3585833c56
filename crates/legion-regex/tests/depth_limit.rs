//! Pattern text cannot exhaust the stack: parsing refuses nesting deeper
//! than 64 levels (groups plus stacked quantifiers) with a `RegexError`,
//! so compiling and dropping never recurse deeper than that either.
//!
//! Each hostile pattern is 1 MB and runs on a thread with a 256 KiB
//! stack; without the limit they abort the process with a stack
//! overflow.
//!
//! Nor can pattern text exhaust memory: nested bounded repeats multiply,
//! and a pattern whose program would exceed 65,536 instructions is
//! refused before anything is expanded.

use legion_regex::{Regex, RegexError};

const MB: usize = 1 << 20;

/// Compiles `pattern` on a thread with a 256 KiB stack.
fn compile_on_small_stack(pattern: String) -> Result<(), RegexError> {
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || Regex::new(&pattern).map(drop))
        .expect("spawn test thread")
        .join()
        .expect("compiling must not panic")
}

fn assert_depth_refused(pattern: String) {
    let err = compile_on_small_stack(pattern).unwrap_err();
    assert!(err.message.contains("nesting depth exceeds the limit of 64"), "{err}");
}

#[test]
fn a_megabyte_of_stacked_quantifiers_is_refused() {
    assert_depth_refused(format!("a{}", "?".repeat(MB)));
}

#[test]
fn a_megabyte_of_nested_groups_is_refused() {
    let n = MB / 2;
    assert_depth_refused(format!("{}a{}", "(".repeat(n), ")".repeat(n)));
}

#[test]
fn the_limit_is_sixty_four_levels() {
    let groups = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
    assert!(compile_on_small_stack(groups(64)).is_ok());
    assert_depth_refused(groups(65));
    let quantifiers = |n: usize| format!("a{}", "?".repeat(n));
    assert!(compile_on_small_stack(quantifiers(64)).is_ok());
    assert_depth_refused(quantifiers(65));
}

/// Refuses `pattern` for its program size, in under 10 ms.
fn assert_size_refused(pattern: &str) {
    let started = std::time::Instant::now();
    let err = Regex::new(pattern).unwrap_err();
    let elapsed = started.elapsed();
    assert!(err.message.contains("exceeds the limit of 65536 instructions"), "{err}");
    assert!(elapsed < std::time::Duration::from_millis(10), "{pattern} took {elapsed:?}");
}

#[test]
fn a_million_instruction_pattern_is_refused() {
    assert_size_refused("(a{1000}){1000}");
}

#[test]
fn a_billion_instruction_pattern_is_refused() {
    assert_size_refused("((a{1000}){1000}){1000}");
}
