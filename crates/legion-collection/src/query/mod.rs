//! The Collection query language.
//!
//! "A Collection query is a logical expression conforming to the grammar
//! described in our earlier work. This grammar allows typical operations
//! (field matching, semantic comparisons, and boolean combinations of
//! terms). Identifiers refer to attribute names within a particular
//! record, and are of the form `$AttributeName`." (§3.2)
//!
//! The paper's running example:
//!
//! ```text
//! match($host_os_name, "IRIX") and match("5\..*", $host_os_version)
//! ```
//!
//! Note the paper's footnote: `match()` treats its **first** argument as
//! the regular expression (earlier descriptions erroneously had it
//! second) — yet the paper's own example passes the attribute first. We
//! honour both spellings: when exactly one argument is a string literal
//! and the other an attribute reference, the literal is the pattern; when
//! both are literals, the first is the pattern, as specified.
//!
//! Grammar accepted here:
//!
//! ```text
//! expr   := or
//! or     := and ('or' and)*
//! and    := unary ('and' unary)*
//! unary  := 'not' unary | primary
//! primary:= '(' expr ')' | 'true' | 'false'
//!         | 'match' '(' marg ',' marg ')'
//!         | 'contains' '(' $id ',' operand ')'
//!         | 'exists' '(' $id ')'
//!         | operand cmp operand
//! cmp    := '==' | '!=' | '<' | '<=' | '>' | '>='
//! operand:= $id | string | number | 'true' | 'false'
//! marg   := $id | string
//! ```
//!
//! Missing attributes make a term false, never an error — a record that
//! does not describe a field simply does not match.

mod ast;
mod eval;
mod lexer;
mod parser;

pub use ast::{CmpOp, MatchArg, Operand, QueryExpr};
pub use eval::Query;

use legion_core::LegionError;

/// Parses and compiles a query string.
pub fn parse_query(input: &str) -> Result<Query, LegionError> {
    let tokens = lexer::lex(input).map_err(LegionError::BadQuery)?;
    let expr = parser::parse(&tokens).map_err(LegionError::BadQuery)?;
    Query::compile(expr).map_err(LegionError::BadQuery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::{AttrValue, AttributeDb};

    fn host(os: &str, ver: &str, load: f64, mem: i64) -> AttributeDb {
        AttributeDb::new()
            .with("host_os_name", os)
            .with("host_os_version", ver)
            .with("host_load", load)
            .with("host_memory_mb", mem)
    }

    fn matches(q: &str, db: &AttributeDb) -> bool {
        parse_query(q).unwrap().matches(db)
    }

    #[test]
    fn paper_example_finds_irix_5x() {
        let q = r#"match($host_os_name, "IRIX") and match("5\..*", $host_os_version)"#;
        assert!(matches(q, &host("IRIX", "5.3", 0.2, 512)));
        assert!(!matches(q, &host("IRIX", "6.5", 0.2, 512)));
        assert!(!matches(q, &host("Linux", "5.3", 0.2, 512)));
    }

    #[test]
    fn reads_names_every_attribute_the_query_mentions() {
        use legion_core::AttrMask;
        let reads = |q: &str| parse_query(q).unwrap().reads();
        let of = AttrMask::of;
        assert_eq!(reads("true"), AttrMask::default());
        assert_eq!(
            reads(r#"match($host_os_name, "IRIX") and not ($host_load > $host_ncpus)"#),
            of("host_os_name") | of("host_load") | of("host_ncpus")
        );
        assert_eq!(
            reads(r#"contains($host_compatible_vaults, $site) or exists($host_draining)"#),
            of("host_compatible_vaults") | of("site") | of("host_draining")
        );
        assert!(!reads("$host_memory_mb >= 256").intersects(of("host_load")));
    }

    #[test]
    fn comparisons_with_numbers() {
        let db = host("IRIX", "5.3", 0.75, 512);
        assert!(matches("$host_load < 1.0", &db));
        assert!(matches("$host_load >= 0.75", &db));
        assert!(!matches("$host_load > 0.75", &db));
        assert!(matches("$host_memory_mb == 512", &db));
        assert!(matches("$host_memory_mb != 256", &db));
        // Int attr compared against float literal coerces.
        assert!(matches("$host_memory_mb > 511.5", &db));
    }

    #[test]
    fn string_equality_and_ordering() {
        let db = host("IRIX", "5.3", 0.1, 512);
        assert!(matches(r#"$host_os_name == "IRIX""#, &db));
        assert!(matches(r#"$host_os_name < "Linux""#, &db));
        assert!(!matches(r#"$host_os_name == "irix""#, &db));
    }

    #[test]
    fn boolean_combinations_and_precedence() {
        let db = host("IRIX", "5.3", 0.1, 512);
        // `and` binds tighter than `or`.
        assert!(matches(
            r#"$host_os_name == "Linux" or $host_load < 1.0 and $host_memory_mb == 512"#,
            &db
        ));
        assert!(matches(r#"not $host_os_name == "Linux""#, &db));
        assert!(matches("not (true and false)", &db));
        assert!(!matches("not true", &db));
    }

    #[test]
    fn missing_attribute_is_false_not_error() {
        let db = host("IRIX", "5.3", 0.1, 512);
        assert!(!matches("$no_such_attr > 5", &db));
        assert!(!matches(r#"match("x", $no_such_attr)"#, &db));
        // ...and its negation is true.
        assert!(matches("not $no_such_attr > 5", &db));
    }

    #[test]
    fn exists_probe() {
        let db = host("IRIX", "5.3", 0.1, 512);
        assert!(matches("exists($host_load)", &db));
        assert!(!matches("exists($gpu_count)", &db));
    }

    #[test]
    fn contains_over_lists() {
        let db = AttributeDb::new().with(
            "host_refused_domains",
            AttrValue::List(vec!["spam.org".into(), "evil.net".into()]),
        );
        assert!(matches(r#"contains($host_refused_domains, "evil.net")"#, &db));
        assert!(!matches(r#"contains($host_refused_domains, "uva.edu")"#, &db));
        // Non-list attr: false.
        let db2 = AttributeDb::new().with("host_refused_domains", "evil.net");
        assert!(!matches(r#"contains($host_refused_domains, "evil.net")"#, &db2));
    }

    #[test]
    fn match_both_argument_orders() {
        let db = host("IRIX", "5.3", 0.1, 512);
        assert!(matches(r#"match("IR.X", $host_os_name)"#, &db)); // spec order
        assert!(matches(r#"match($host_os_name, "IR.X")"#, &db)); // paper's example order
    }

    #[test]
    fn match_two_literals_first_is_pattern() {
        let db = AttributeDb::new();
        assert!(matches(r#"match("a+", "aaa")"#, &db));
        assert!(!matches(r#"match("aaa", "a+")"#, &db));
    }

    #[test]
    fn match_attr_pattern_against_attr_text() {
        let db = AttributeDb::new().with("pat", "5\\..*").with("ver", "5.3");
        assert!(matches("match($pat, $ver)", &db));
    }

    #[test]
    fn bad_queries_report_errors() {
        assert!(parse_query("").is_err());
        assert!(parse_query("$a >").is_err());
        assert!(parse_query("match($a)").is_err());
        assert!(parse_query("$a == 5 garbage").is_err());
        assert!(parse_query("((($a == 5)").is_err());
        assert!(parse_query(r#"match("[", $a)"#).is_err()); // bad regex caught at compile
        assert!(parse_query("$a ~ 5").is_err());
        assert!(parse_query(r#""unterminated"#).is_err());
    }

    #[test]
    fn numbers_negative_and_float() {
        let db = AttributeDb::new().with("temp", -12.5).with("n", -3i64);
        assert!(matches("$temp < -12", &db));
        assert!(matches("$n == -3", &db));
        assert!(matches("$temp >= -12.5", &db));
    }

    #[test]
    fn bool_literals_compare() {
        let db = AttributeDb::new().with("up", true);
        assert!(matches("$up == true", &db));
        assert!(!matches("$up == false", &db));
    }
}
