//! A small, dependency-free regular-expression engine.
//!
//! The Legion Collection query grammar exposes a `match(regex, $field)`
//! primitive which the paper implements with the Unix `regexp()` library.
//! This crate is the equivalent substrate, built from scratch: patterns are
//! parsed into an AST, compiled to a non-deterministic finite automaton
//! (NFA) program, and executed with a Pike-style virtual machine.  The VM
//! runs in `O(pattern * text)` time — there is no backtracking, so no
//! pathological blow-up on adversarial patterns, which matters because
//! Collection queries are accepted from arbitrary (authenticated) users.
//!
//! Supported syntax:
//!
//! * literals, `.` (any character)
//! * repetition: `*`, `+`, `?`, and bounded `{m}`, `{m,}`, `{m,n}`
//! * alternation `a|b` and grouping `(ab)+`
//! * character classes `[a-z0-9_]`, negated classes `[^...]`
//! * anchors `^` and `$`
//! * escapes: `\d \D \w \W \s \S` and `\.` `\\` `\n` `\t` `\r` plus any
//!   escaped punctuation
//!
//! Matching is *unanchored search* by default (like `regexp()`): the
//! pattern may match anywhere in the text unless `^`/`$` pin it down.
//!
//! ```
//! use legion_regex::Regex;
//! let re = Regex::new("5\\..*").unwrap();
//! assert!(re.is_match("5.3_IRIX"));
//! assert!(!re.is_match("6.5"));
//! ```

mod ast;
mod compile;
mod error;
pub mod hints;
mod parser;
mod vm;

pub use error::RegexError;
pub use hints::{analyze, MatchHints, PrefixHint};

use compile::Program;

/// A compiled regular expression.
///
/// Construction validates and compiles the pattern once; matching is then
/// allocation-light and linear in the input.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

impl Regex {
    /// Parses and compiles `pattern`.
    ///
    /// Returns a [`RegexError`] describing the first syntax problem
    /// found, or refusing a pattern whose program would exceed 65,536
    /// instructions (nested bounded repeats multiply: `(a{1000}){1000}`
    /// is a million). The size is counted before anything is expanded.
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        let ast = parser::parse(pattern)?;
        let size = compile::program_size(&ast);
        if size > compile::MAX_PROGRAM_SIZE {
            return Err(RegexError::new(
                0,
                format!(
                    "program size {size} exceeds the limit of {} instructions",
                    compile::MAX_PROGRAM_SIZE
                ),
            ));
        }
        let program = compile::compile(&ast);
        Ok(Regex { pattern: pattern.to_string(), program })
    }

    /// Returns the source pattern this regex was compiled from.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// Returns `true` if the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        vm::search(&self.program, text).is_some()
    }

    /// Returns the byte range of the leftmost match, if any.
    ///
    /// The end is the *earliest* end among leftmost matches (the VM stops
    /// as soon as a match thread completes), which is sufficient for the
    /// boolean semantics the Collection needs.
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        vm::search(&self.program, text)
    }

    /// Returns `true` if the pattern matches the *entire* `text`.
    pub fn is_full_match(&self, text: &str) -> bool {
        vm::search_anchored_full(&self.program, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    #[test]
    fn literal_search_is_unanchored() {
        assert!(m("IRIX", "my IRIX box"));
        assert!(!m("IRIX", "linux"));
    }

    #[test]
    fn dot_matches_any_single_char() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a-c"));
        assert!(!m("a.c", "ac"));
    }

    #[test]
    fn star_matches_zero_or_more() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbbc"));
        assert!(!m("^ab*c$", "adc"));
    }

    #[test]
    fn plus_requires_one() {
        assert!(!m("^ab+c$", "ac"));
        assert!(m("ab+c", "abc"));
    }

    #[test]
    fn question_optional() {
        assert!(m("^colou?r$", "color"));
        assert!(m("^colou?r$", "colour"));
        assert!(!m("^colou?r$", "colouur"));
    }

    #[test]
    fn bounded_repeats() {
        assert!(m("^a{3}$", "aaa"));
        assert!(!m("^a{3}$", "aa"));
        assert!(m("^a{2,}$", "aaaa"));
        assert!(!m("^a{2,}$", "a"));
        assert!(m("^a{1,3}$", "aa"));
        assert!(!m("^a{1,3}$", "aaaa"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("^(cat|dog)$", "dog"));
        assert!(m("^(ab)+$", "ababab"));
        assert!(!m("^(ab)+$", "aba"));
    }

    #[test]
    fn character_classes() {
        assert!(m("^[a-c]+$", "abcba"));
        assert!(!m("^[a-c]+$", "abd"));
        assert!(m("^[^0-9]+$", "irix"));
        assert!(!m("^[^0-9]+$", "irix5"));
        assert!(m("^[-a]+$", "-a-")); // leading '-' is literal
        assert!(m("^[a-]+$", "a--")); // trailing '-' is literal
    }

    #[test]
    fn escapes() {
        assert!(m(r"^\d+$", "12345"));
        assert!(!m(r"^\d+$", "12a45"));
        assert!(m(r"^\w+$", "host_os9"));
        assert!(m(r"^\s$", " "));
        assert!(m(r"^\D+$", "abc"));
        assert!(m(r"^\W$", "-"));
        assert!(m(r"^\S+$", "xyz"));
        assert!(m(r"^5\.3$", "5.3"));
        assert!(!m(r"^5\.3$", "5x3"));
        assert!(m(r"^a\\b$", "a\\b"));
        assert!(m(r"^a\tb$", "a\tb"));
        assert!(m(r"^a\nb$", "a\nb"));
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^bcd", "abcdef"));
        assert!(m("def$", "abcdef"));
        assert!(!m("abc$", "abcdef"));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
    }

    #[test]
    fn paper_query_example() {
        // From the paper: find hosts running IRIX 5.x.
        let os = Regex::new("IRIX").unwrap();
        let ver = Regex::new(r"5\..*").unwrap();
        assert!(os.is_match("IRIX"));
        assert!(ver.is_match("5.3"));
        assert!(!ver.is_match("6.5"));
    }

    #[test]
    fn find_reports_leftmost_range() {
        let re = Regex::new("b+").unwrap();
        assert_eq!(re.find("aabbbc"), Some((2, 3)));
        assert_eq!(re.find("nope"), None);
    }

    #[test]
    fn full_match_mode() {
        let re = Regex::new("ab+").unwrap();
        assert!(re.is_full_match("abbb"));
        assert!(!re.is_full_match("abbbc"));
        assert!(!re.is_full_match("xab"));
    }

    #[test]
    fn unicode_chars_are_single_units() {
        assert!(m("^.$", "é"));
        assert!(m("^héllo$", "héllo"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("", ""));
        assert!(m("", "anything"));
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("a)b").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("a{99999999}").is_err());
    }

    #[test]
    fn program_size_limit_is_inclusive() {
        assert!(Regex::new("(a{1000}){65}a{535}").is_ok()); // 65,536 instructions
        let err = Regex::new("(a{1000}){65}a{536}").unwrap_err();
        assert!(err.message.contains("exceeds the limit of 65536 instructions"), "{err}");
    }

    #[test]
    fn no_pathological_blowup() {
        // Classic backtracking killer: (a*)*b against aaaa...a
        let re = Regex::new("^(a*)*b$").unwrap();
        let text = "a".repeat(2000);
        assert!(!re.is_match(&text));
        let re2 = Regex::new("(a|aa)+$").unwrap();
        assert!(re2.is_match(&"a".repeat(500)));
    }

    #[test]
    fn nested_groups() {
        assert!(m("^((ab|cd)e)+$", "abecde"));
        assert!(!m("^((ab|cd)e)+$", "abecd"));
    }

    #[test]
    fn class_with_escape_inside() {
        assert!(m(r"^[\d-]+$", "12-34"));
        assert!(m(r"^[\]]$", "]"));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    #[test]
    fn bounded_repeat_of_groups() {
        assert!(m("^(ab){2,3}$", "abab"));
        assert!(m("^(ab){2,3}$", "ababab"));
        assert!(!m("^(ab){2,3}$", "ab"));
        assert!(!m("^(ab){2,3}$", "abababab"));
    }

    #[test]
    fn alternation_with_empty_branch() {
        // `a|` has an empty right branch: matches everything.
        assert!(m("^(a|)$", ""));
        assert!(m("^(a|)$", "a"));
        assert!(!m("^(a|)$", "b"));
    }

    #[test]
    fn class_mixing_ranges_and_perl() {
        assert!(m(r"^[a-f\d]+$", "a1f9"));
        assert!(!m(r"^[a-f\d]+$", "g1"));
        assert!(m(r"^[\s,;]+$", " ,; "));
    }

    #[test]
    fn anchors_inside_alternation() {
        assert!(m("^foo|bar$", "foox"));
        assert!(m("^foo|bar$", "xbar"));
        assert!(!m("^foo|bar$", "xbarx"));
    }

    #[test]
    fn nested_quantifiers_linear_time() {
        let re = Regex::new("^(a+)+$").unwrap();
        let good = "a".repeat(3000);
        let mut bad = good.clone();
        bad.push('b');
        let t = std::time::Instant::now();
        assert!(re.is_match(&good));
        assert!(!re.is_match(&bad));
        assert!(t.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn leftmost_earliest_end_semantics() {
        // find() stops at the earliest end of the leftmost match.
        let re = Regex::new("ab*").unwrap();
        assert_eq!(re.find("xabbby"), Some((1, 2)));
        let re = Regex::new("a|ab").unwrap();
        assert_eq!(re.find("ab"), Some((0, 1)));
    }

    #[test]
    fn dollar_only_matches_at_end() {
        assert!(m("a$", "bba"));
        assert!(!m("a$", "ab"));
        assert!(m("^$|x", "x"));
    }

    #[test]
    fn escaped_metachars_in_hostnames() {
        // The shape of real Collection queries: version and host fields.
        assert!(m(r"^cypress\.cs\.virginia\.edu$", "cypress.cs.virginia.edu"));
        assert!(!m(r"^cypress\.cs\.virginia\.edu$", "cypressxcsxvirginiaxedu"));
        assert!(m(r"^sp2-node\d{2}$", "sp2-node07"));
        assert!(!m(r"^sp2-node\d{2}$", "sp2-node7"));
    }

    #[test]
    fn repeat_of_alternation_group() {
        assert!(m("^(a|bc){3}$", "abca"));
        assert!(m("^(a|bc){3}$", "bcbcbc"));
        assert!(!m("^(a|bc){3}$", "abcab"));
    }

    #[test]
    fn full_match_with_classes() {
        let re = Regex::new(r"[A-Z][a-z]+").unwrap();
        assert!(re.is_full_match("Legion"));
        assert!(!re.is_full_match("LegionRMS"));
        assert!(!re.is_full_match("legion"));
    }
}
