//! Query compilation and evaluation.

use super::ast::{MatchArg, Operand, QueryExpr};
use legion_core::{AttrMask, AttrValue, AttributeDb};
use legion_regex::{MatchHints, Regex};
use parking_lot::RwLock;
use std::collections::HashMap;

/// A compiled query, ready to test records.
///
/// Literal `match()` patterns are compiled once at construction (bad
/// patterns are reported immediately, as `QueryCollection` should).
/// Patterns drawn from attributes are compiled on demand and cached in
/// a read-mostly structure: on the hot path (every literal pattern, and
/// every attribute-sourced pattern after its first sighting) a probe
/// takes a shared read lock and allocates nothing, so concurrent
/// queries over the same compiled `Query` do not serialize.
#[derive(Debug)]
pub struct Query {
    expr: QueryExpr,
    /// Every attribute name the expression reads.
    reads: AttrMask,
    /// Pattern string → compiled regex; pre-seeded with literals.
    regex_cache: RwLock<HashMap<String, Option<Regex>>>,
    /// Pattern string → index-planning hints; pre-seeded with literals
    /// so the planner's per-query probe is a read-lock lookup.
    hints_cache: RwLock<HashMap<String, Option<MatchHints>>>,
}

impl Query {
    /// Compiles an expression, validating all literal patterns.
    pub(crate) fn compile(expr: QueryExpr) -> Result<Self, String> {
        let mut cache = HashMap::new();
        seed_literal_patterns(&expr, &mut cache)?;
        let hints = cache
            .iter()
            .map(|(p, re)| (p.clone(), re.as_ref().and_then(|_| legion_regex::analyze(p))))
            .collect();
        Ok(Query {
            reads: names_read(&expr),
            expr,
            regex_cache: RwLock::new(cache),
            hints_cache: RwLock::new(hints),
        })
    }

    /// The mask of every `$name` the query reads. A record change that
    /// moves none of these names cannot change whether it matches.
    pub fn reads(&self) -> AttrMask {
        self.reads
    }

    /// Index-planning hints for a pattern (see
    /// [`legion_regex::analyze`]), memoized alongside the compiled
    /// regex. Literal patterns are pre-seeded at compile time.
    pub(crate) fn hints_for(&self, pattern: &str) -> Option<MatchHints> {
        if let Some(hints) = self.hints_cache.read().get(pattern) {
            return hints.clone();
        }
        let mut cache = self.hints_cache.write();
        cache
            .entry(pattern.to_string())
            .or_insert_with(|| legion_regex::analyze(pattern))
            .clone()
    }

    /// The underlying expression.
    pub(crate) fn expr(&self) -> &QueryExpr {
        &self.expr
    }

    /// Tests a record's attributes against the query.
    pub fn matches(&self, attrs: &AttributeDb) -> bool {
        self.eval(&self.expr, attrs)
    }

    fn eval(&self, e: &QueryExpr, attrs: &AttributeDb) -> bool {
        match e {
            QueryExpr::Bool(b) => *b,
            QueryExpr::And(parts) => parts.iter().all(|p| self.eval(p, attrs)),
            QueryExpr::Or(parts) => parts.iter().any(|p| self.eval(p, attrs)),
            QueryExpr::Not(inner) => !self.eval(inner, attrs),
            QueryExpr::Exists(name) => attrs.contains(name),
            QueryExpr::Cmp { lhs, op, rhs } => {
                let (Some(l), Some(r)) = (resolve(lhs, attrs), resolve(rhs, attrs)) else {
                    return false;
                };
                match l.semantic_cmp(r) {
                    Some(ord) => op.accepts(ord),
                    None => false,
                }
            }
            QueryExpr::Contains { attr, needle } => {
                let (Some(list), Some(n)) =
                    (attrs.get(attr).and_then(AttrValue::as_list), resolve(needle, attrs))
                else {
                    return false;
                };
                list.iter()
                    .any(|item| item.semantic_cmp(n) == Some(std::cmp::Ordering::Equal))
            }
            QueryExpr::Match { a, b } => self.eval_match(a, b, attrs),
        }
    }

    /// Resolves which argument is the pattern (see module docs), then
    /// runs the regex search.
    fn eval_match(&self, a: &MatchArg, b: &MatchArg, attrs: &AttributeDb) -> bool {
        let (pattern, text): (&str, &str) = match (a, b) {
            // Exactly one literal: the literal is the pattern, whichever
            // position it is in (the paper's own example uses the
            // attribute-first spelling).
            (MatchArg::Lit(p), MatchArg::Attr(t)) => {
                let Some(text) = attrs.get_str(t) else { return false };
                (p.as_str(), text)
            }
            (MatchArg::Attr(t), MatchArg::Lit(p)) => {
                let Some(text) = attrs.get_str(t) else { return false };
                (p.as_str(), text)
            }
            // Both literal: per the footnote, the first is the pattern.
            (MatchArg::Lit(p), MatchArg::Lit(t)) => (p.as_str(), t.as_str()),
            // Both attributes: first is the pattern.
            (MatchArg::Attr(p), MatchArg::Attr(t)) => {
                let (Some(p), Some(t)) = (attrs.get_str(p), attrs.get_str(t)) else {
                    return false;
                };
                (p, t)
            }
        };

        // Fast path: probe under the read lock with no allocation (an
        // `entry()` probe would build a `String` key per record even on
        // cache hits). Matching runs under the shared lock, so parallel
        // queries proceed concurrently.
        if let Some(compiled) = self.regex_cache.read().get(pattern) {
            return match compiled {
                Some(re) => re.is_match(text),
                None => false, // attribute-sourced pattern failed to compile
            };
        }
        // First sighting of an attribute-sourced pattern: compile and
        // publish it. `entry` re-checks under the write lock in case a
        // racing query inserted it between our probe and here.
        let mut cache = self.regex_cache.write();
        let compiled = cache
            .entry(pattern.to_string())
            .or_insert_with(|| Regex::new(pattern).ok());
        match compiled {
            Some(re) => re.is_match(text),
            None => false,
        }
    }
}

fn resolve<'a>(op: &'a Operand, attrs: &'a AttributeDb) -> Option<&'a AttrValue> {
    match op {
        Operand::Attr(name) => attrs.get(name),
        Operand::Lit(v) => Some(v),
    }
}

/// The mask of every attribute name `e` reads.
fn names_read(e: &QueryExpr) -> AttrMask {
    let operand = |o: &Operand| match o {
        Operand::Attr(name) => AttrMask::of(name),
        Operand::Lit(_) => AttrMask::default(),
    };
    let arg = |a: &MatchArg| match a {
        MatchArg::Attr(name) => AttrMask::of(name),
        MatchArg::Lit(_) => AttrMask::default(),
    };
    match e {
        QueryExpr::Bool(_) => AttrMask::default(),
        QueryExpr::Cmp { lhs, rhs, .. } => operand(lhs) | operand(rhs),
        QueryExpr::Match { a, b } => arg(a) | arg(b),
        QueryExpr::Contains { attr, needle } => AttrMask::of(attr) | operand(needle),
        QueryExpr::Exists(name) => AttrMask::of(name),
        QueryExpr::And(parts) | QueryExpr::Or(parts) => {
            parts.iter().fold(AttrMask::default(), |mask, p| mask | names_read(p))
        }
        QueryExpr::Not(inner) => names_read(inner),
    }
}

/// Pre-compiles every literal pattern, failing fast on bad syntax.
fn seed_literal_patterns(
    e: &QueryExpr,
    cache: &mut HashMap<String, Option<Regex>>,
) -> Result<(), String> {
    match e {
        QueryExpr::Match { a, b } => {
            for arg in [a, b] {
                if let MatchArg::Lit(p) = arg {
                    // Only the pattern position must compile, but we can't
                    // know the position for two-literal calls until eval;
                    // compiling both is harmless (the text literal either
                    // compiles or simply isn't consulted as a pattern) —
                    // except we must not *fail* on the text literal. So:
                    // validate strictly only when the other arg is an
                    // attribute or this is the first of two literals.
                    let must_be_pattern = match (a, b) {
                        (MatchArg::Lit(_), MatchArg::Attr(_)) => std::ptr::eq(arg, a),
                        (MatchArg::Attr(_), MatchArg::Lit(_)) => std::ptr::eq(arg, b),
                        (MatchArg::Lit(_), MatchArg::Lit(_)) => std::ptr::eq(arg, a),
                        _ => false,
                    };
                    match Regex::new(p) {
                        Ok(re) => {
                            cache.insert(p.clone(), Some(re));
                        }
                        Err(err) if must_be_pattern => {
                            return Err(format!("bad pattern `{p}`: {err}"));
                        }
                        Err(_) => {
                            cache.insert(p.clone(), None);
                        }
                    }
                }
            }
            Ok(())
        }
        QueryExpr::And(parts) | QueryExpr::Or(parts) => {
            parts.iter().try_for_each(|p| seed_literal_patterns(p, cache))
        }
        QueryExpr::Not(inner) => seed_literal_patterns(inner, cache),
        _ => Ok(()),
    }
}
