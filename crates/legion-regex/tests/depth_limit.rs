//! Pattern text cannot exhaust the stack: parsing refuses nesting deeper
//! than 64 levels (groups plus stacked quantifiers) with a `RegexError`,
//! so compiling and dropping never recurse deeper than that either.
//!
//! Each hostile pattern is 1 MB and runs on a thread with a 256 KiB
//! stack; without the limit they abort the process with a stack
//! overflow.

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
