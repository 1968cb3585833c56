//! The query planner: turns a compiled query's AST into an index plan.
//!
//! The planner walks a [`QueryExpr`] and extracts the **indexable
//! conjuncts** — predicates whose satisfying member set can be read
//! straight out of the [`AttributeIndexes`]:
//!
//! * string equality: `$attr == "lit"` (either operand order),
//! * numeric range: `$attr < n`, `<=`, `>`, `>=`, `==` (either order;
//!   the flipped order mirrors the operator),
//! * `exists($attr)`,
//! * `match()` whose pattern is a *literal*, planned from the hints
//!   [`legion_regex::analyze`] derives from its AST: a fully anchored
//!   literal (`^IRIX$`) becomes an equality probe, an anchored prefix
//!   (`^5\.`) a prefix probe, a mandatory substring (`RIX`, `.*nux.*`)
//!   a trigram-index probe, and a leading character class (`^[A-Z]...`)
//!   a first-character range probe.
//!
//! Everything else — negation, `contains()`, attribute-sourced
//! patterns, alternation-topped patterns, string ordering, `!=`,
//! comparisons between two attributes — is *residual*: the plan it
//! produces is `None` and the engine falls back to a full scan, or,
//! inside an `and`, the indexable side narrows the candidate set.
//!
//! Every plan is *superset-correct*: it may return candidates that do
//! not match, never miss ones that do. On top of that each plan tracks
//! **exactness** — whether its candidate set provably *equals* the
//! query's satisfying set. Equality/range/presence probes are exact
//! (the index applies the same type coercions the evaluator does), and
//! prefix/substring probes are exact when the pattern hints say so
//! (`^lit`, `^lit$`, bare `lit`); an `and` that drops a residual side
//! or a first-character probe is not. The engine skips the residual
//! re-evaluation entirely for exact plans — candidate sets intersect by
//! sorted-vector merge and the hits are returned as zero-copy `Arc`
//! clones without running the regex VM or the comparator once.
//!
//! Attributes produced by injected functions
//! ([`DerivedAttribute`](crate::inject::DerivedAttribute)) are never
//! indexable — their values exist only in query-time views — so any
//! conjunct touching a derived name is residual.

use crate::index::{intersect_sorted, union_sorted, AttributeIndexes};
use crate::query::{CmpOp, MatchArg, Operand, QueryExpr};
use legion_core::{AttrValue, Loid};
use legion_regex::MatchHints;
use std::ops::Bound;

/// One index probe.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexPredicate {
    /// `$attr == "value"`.
    StrEq {
        /// The indexed attribute.
        attr: String,
        /// The sought string.
        value: String,
    },
    /// `match("^prefix...", $attr)`.
    StrPrefix {
        /// The indexed attribute.
        attr: String,
        /// The anchored literal prefix.
        prefix: String,
    },
    /// `match()` whose pattern forces `needle` into every match —
    /// served by the trigram index over distinct values.
    StrContains {
        /// The indexed attribute.
        attr: String,
        /// The mandatory substring.
        needle: String,
    },
    /// `match("^[ranges]...", $attr)` — first character pinned to a
    /// set of inclusive ranges.
    StrFirstRanges {
        /// The indexed attribute.
        attr: String,
        /// The inclusive first-character ranges.
        ranges: Vec<(char, char)>,
    },
    /// `$attr` within a numeric range.
    NumRange {
        /// The indexed attribute.
        attr: String,
        /// Lower bound.
        lo: Bound<f64>,
        /// Upper bound.
        hi: Bound<f64>,
    },
    /// `exists($attr)`.
    Exists {
        /// The probed attribute.
        attr: String,
    },
}

/// An executable index plan: probes combined by set algebra, tagged
/// with whether the candidate set exactly equals the satisfying set.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The probe tree.
    pub node: PlanNode,
    /// True when executing the plan yields *exactly* the records
    /// satisfying the whole expression it was planned from — letting
    /// the engine skip residual re-evaluation.
    pub exact: bool,
}

/// A node in the probe tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// A single index probe.
    Lookup(IndexPredicate),
    /// Intersection of sub-plans (an `and` of indexable conjuncts).
    Intersect(Vec<Plan>),
    /// Union of sub-plans (an `or` whose arms are all indexable).
    Union(Vec<Plan>),
}

impl Plan {
    fn lookup(pred: IndexPredicate, exact: bool) -> Self {
        Plan { node: PlanNode::Lookup(pred), exact }
    }

    /// Runs the plan against the indexes, yielding the sorted candidate
    /// member list.
    pub fn execute(&self, idx: &AttributeIndexes) -> Vec<Loid> {
        match &self.node {
            PlanNode::Lookup(p) => match p {
                IndexPredicate::StrEq { attr, value } => idx.lookup_str_eq(attr, value),
                IndexPredicate::StrPrefix { attr, prefix } => {
                    idx.lookup_str_prefix(attr, prefix)
                }
                IndexPredicate::StrContains { attr, needle } => {
                    idx.lookup_str_contains(attr, needle)
                }
                IndexPredicate::StrFirstRanges { attr, ranges } => {
                    idx.lookup_str_first_ranges(attr, ranges)
                }
                IndexPredicate::NumRange { attr, lo, hi } => {
                    idx.lookup_num_range(attr, *lo, *hi)
                }
                IndexPredicate::Exists { attr } => idx.lookup_exists(attr),
            },
            PlanNode::Intersect(parts) => {
                let mut sets = parts.iter().map(|p| p.execute(idx));
                let Some(mut acc) = sets.next() else { return Vec::new() };
                for s in sets {
                    acc = intersect_sorted(&acc, &s);
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            PlanNode::Union(parts) => {
                union_sorted(parts.iter().map(|p| p.execute(idx)).collect())
            }
        }
    }

    /// Upper bound on the candidate count [`Self::execute`] would
    /// return, saturating at `cap` — the estimate never walks more
    /// index buckets than it takes to reach the cap, and provably
    /// unselective probes (full-covering ranges, empty prefixes)
    /// answer from maintained totals without walking at all. The
    /// engine uses this to route non-selective plans straight to the
    /// scan path.
    pub fn estimate(&self, idx: &AttributeIndexes, cap: usize) -> usize {
        match &self.node {
            PlanNode::Lookup(p) => match p {
                IndexPredicate::StrEq { attr, value } => idx.count_str_eq(attr, value).min(cap),
                IndexPredicate::StrPrefix { attr, prefix } => {
                    idx.count_str_prefix(attr, prefix, cap)
                }
                IndexPredicate::StrContains { attr, needle } => {
                    idx.count_str_contains(attr, needle, cap)
                }
                IndexPredicate::StrFirstRanges { attr, ranges } => {
                    idx.count_str_first_ranges(attr, ranges, cap)
                }
                IndexPredicate::NumRange { attr, lo, hi } => {
                    idx.count_num_range(attr, *lo, *hi, cap)
                }
                IndexPredicate::Exists { attr } => idx.count_exists(attr).min(cap),
            },
            // An intersection can hit at most its smallest part.
            PlanNode::Intersect(parts) => {
                parts.iter().map(|p| p.estimate(idx, cap)).min().unwrap_or(0)
            }
            PlanNode::Union(parts) => parts
                .iter()
                .map(|p| p.estimate(idx, cap))
                .fold(0usize, usize::saturating_add)
                .min(cap),
        }
    }
}

/// Plans `expr` against the indexes. `is_derived` reports whether an
/// attribute name is produced by an injected function (and therefore
/// invisible to the stored-record indexes); `hints_for` supplies the
/// regex hints of a literal `match()` pattern (compiled queries cache
/// them). Returns `None` when no index can narrow the query — the
/// caller must run a full scan.
pub fn plan(
    expr: &QueryExpr,
    is_derived: &dyn Fn(&str) -> bool,
    hints_for: &dyn Fn(&str) -> Option<MatchHints>,
) -> Option<Plan> {
    match expr {
        // The plannable parts intersect, and any of them alone is a
        // superset of the conjunction. The conjunction is exact iff
        // every part is planned and exact: dropping one forfeits it.
        QueryExpr::And(parts) => {
            let mut exact = true;
            let mut plans = Vec::new();
            for part in parts {
                match plan(part, is_derived, hints_for) {
                    Some(p) => {
                        exact &= p.exact;
                        plans.push(p);
                    }
                    None => exact = false,
                }
            }
            match plans.len() {
                0 => None,
                1 => plans.pop().map(|p| Plan { exact, ..p }),
                _ => Some(Plan { node: PlanNode::Intersect(plans), exact }),
            }
        }
        // An `or` is only narrowable when *every* arm is.
        QueryExpr::Or(parts) => {
            let plans =
                parts.iter().map(|p| plan(p, is_derived, hints_for)).collect::<Option<Vec<_>>>()?;
            let exact = plans.iter().all(|p| p.exact);
            Some(Plan { node: PlanNode::Union(plans), exact })
        }
        QueryExpr::Cmp { lhs, op, rhs } => plan_cmp(lhs, *op, rhs, is_derived),
        QueryExpr::Exists(attr) if !is_derived(attr) => {
            Some(Plan::lookup(IndexPredicate::Exists { attr: attr.clone() }, true))
        }
        QueryExpr::Match { a, b } => plan_match(a, b, is_derived, hints_for),
        // Negation, contains(), bool constants: residual.
        _ => None,
    }
}

fn plan_cmp(
    lhs: &Operand,
    op: CmpOp,
    rhs: &Operand,
    is_derived: &dyn Fn(&str) -> bool,
) -> Option<Plan> {
    // Normalize to (attr, op, literal); a literal-first comparison
    // mirrors the operator: `5 > $x` is `$x < 5`.
    let (attr, op, lit) = match (lhs, rhs) {
        (Operand::Attr(a), Operand::Lit(v)) => (a, op, v),
        (Operand::Lit(v), Operand::Attr(a)) => (a, flip(op), v),
        _ => return None,
    };
    if is_derived(attr) {
        return None;
    }
    match (op, lit) {
        // Exact: only a `Str` attribute can compare equal to a string
        // literal (the evaluator's semantic_cmp refuses cross-type
        // string comparisons), and the index holds every Str value.
        (CmpOp::Eq, AttrValue::Str(s)) => Some(Plan::lookup(
            IndexPredicate::StrEq { attr: attr.clone(), value: s.to_string() },
            true,
        )),
        (_, AttrValue::Int(_) | AttrValue::Float(_)) => {
            let v = lit.as_f64().expect("numeric literal");
            let (lo, hi) = match op {
                CmpOp::Eq => (Bound::Included(v), Bound::Included(v)),
                CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(v)),
                CmpOp::Le => (Bound::Unbounded, Bound::Included(v)),
                CmpOp::Gt => (Bound::Excluded(v), Bound::Unbounded),
                CmpOp::Ge => (Bound::Included(v), Bound::Unbounded),
                // `!=` selects nearly everything; scanning is cheaper
                // than materializing the complement.
                CmpOp::Ne => return None,
            };
            // Exact: the index coerces Int/Float with the same `as_f64`
            // the evaluator uses, Bool/Str/List never compare to
            // numbers, and NaN (never indexed) never satisfies a range.
            Some(Plan::lookup(
                IndexPredicate::NumRange { attr: attr.clone(), lo, hi },
                true,
            ))
        }
        // String ordering, bool/list equality: residual.
        _ => None,
    }
}

fn plan_match(
    a: &MatchArg,
    b: &MatchArg,
    is_derived: &dyn Fn(&str) -> bool,
    hints_for: &dyn Fn(&str) -> Option<MatchHints>,
) -> Option<Plan> {
    // Mirror the evaluator's pattern-argument resolution: with exactly
    // one literal the literal is the pattern; other shapes (two
    // literals, two attributes) are not attribute probes.
    let (pattern, attr) = match (a, b) {
        (MatchArg::Lit(p), MatchArg::Attr(t)) | (MatchArg::Attr(t), MatchArg::Lit(p)) => (p, t),
        _ => return None,
    };
    if is_derived(attr) {
        return None;
    }
    let hints = hints_for(pattern)?;

    // Strongest first: an anchored literal prefix (equality when the
    // pattern matches nothing else). Exactness comes straight from the
    // hint analysis — `^lit$`, `^lit`, `^lit.*` are exact; a prefix
    // with a non-trivial tail is a superset filter.
    if let Some(p) = &hints.prefix {
        if p.literal.is_empty() {
            return None;
        }
        let pred = if p.entire {
            IndexPredicate::StrEq { attr: attr.clone(), value: p.literal.clone() }
        } else {
            IndexPredicate::StrPrefix { attr: attr.clone(), prefix: p.literal.clone() }
        };
        return Some(Plan::lookup(pred, hints.exact));
    }

    // Mandatory substrings → trigram probes, intersected when the
    // pattern forces several. The probe itself is verified (exact per
    // substring); the *plan* is exact only when containing the one
    // substring is also sufficient for a match (bare `lit`, `.*lit.*`).
    let needles: Vec<&String> = hints.required.iter().filter(|n| !n.is_empty()).collect();
    if !needles.is_empty() {
        if needles.len() == 1 {
            return Some(Plan::lookup(
                IndexPredicate::StrContains { attr: attr.clone(), needle: needles[0].clone() },
                hints.exact,
            ));
        }
        let parts = needles
            .into_iter()
            .map(|n| {
                Plan::lookup(
                    IndexPredicate::StrContains { attr: attr.clone(), needle: n.clone() },
                    false,
                )
            })
            .collect();
        // Containment of all runs is necessary, not sufficient (order
        // and overlap are unchecked), so the intersection is inexact.
        return Some(Plan { node: PlanNode::Intersect(parts), exact: false });
    }

    // Weakest: a leading character class pins the first character.
    if let Some(ranges) = &hints.first_ranges {
        return Some(Plan::lookup(
            IndexPredicate::StrFirstRanges { attr: attr.clone(), ranges: ranges.clone() },
            false,
        ));
    }
    None
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;

    const CAP: usize = usize::MAX;

    fn plan_str(q: &str) -> Option<Plan> {
        let compiled = parse_query(q).unwrap();
        plan(compiled.expr(), &|_| false, &legion_regex::analyze)
    }

    fn str_eq(attr: &str, value: &str) -> PlanNode {
        PlanNode::Lookup(IndexPredicate::StrEq { attr: attr.into(), value: value.into() })
    }

    #[test]
    fn string_equality_both_orders() {
        for q in [r#"$os == "IRIX""#, r#""IRIX" == $os"#] {
            let p = plan_str(q).unwrap();
            assert_eq!(p.node, str_eq("os", "IRIX"));
            assert!(p.exact, "{q} plans exactly");
        }
    }

    #[test]
    fn numeric_ranges_flip_with_operand_order() {
        let p = plan_str("$load < 0.5").unwrap();
        assert_eq!(
            p.node,
            PlanNode::Lookup(IndexPredicate::NumRange {
                attr: "load".into(),
                lo: Bound::Unbounded,
                hi: Bound::Excluded(0.5),
            })
        );
        assert!(p.exact);
        // `0.5 < $load` is `$load > 0.5`.
        let p = plan_str("0.5 < $load").unwrap();
        assert_eq!(
            p.node,
            PlanNode::Lookup(IndexPredicate::NumRange {
                attr: "load".into(),
                lo: Bound::Excluded(0.5),
                hi: Bound::Unbounded,
            })
        );
    }

    #[test]
    fn residual_shapes_fall_back() {
        assert_eq!(plan_str("$a != 5"), None); // complement
        assert_eq!(plan_str("not $a == 5"), None); // negation
        assert_eq!(plan_str("$a == $b"), None); // attr-attr
        assert_eq!(plan_str(r#"$os < "M""#), None); // string ordering
        assert_eq!(plan_str(r#"contains($l, "x")"#), None);
        assert_eq!(plan_str("match($pat, $ver)"), None); // attr-sourced pattern
        assert_eq!(plan_str(r#"match("a|b", $os)"#), None); // alternation
        assert_eq!(plan_str("true"), None);
    }

    #[test]
    fn and_narrows_with_one_indexable_side_but_loses_exactness() {
        let p = plan_str(r#"$os == "IRIX" and not $load > 0.5"#).unwrap();
        assert_eq!(p.node, str_eq("os", "IRIX"));
        assert!(!p.exact, "dropped conjunct forfeits exactness");
    }

    #[test]
    fn and_of_exact_sides_is_exact() {
        let p = plan_str(r#"$os == "IRIX" and $load < 0.5"#).unwrap();
        assert!(matches!(p.node, PlanNode::Intersect(_)));
        assert!(p.exact);
        // The paper's anchored-regex conjunction is fully exact too.
        let p = plan_str(r#"match("^IRIX$", $os) and match("^5\.", $ver)"#).unwrap();
        assert!(p.exact, "paper query must skip residual evaluation");
    }

    #[test]
    fn or_requires_both_arms() {
        let p = plan_str(r#"$os == "IRIX" or $load < 0.5"#).unwrap();
        assert!(matches!(p.node, PlanNode::Union(_)));
        assert!(p.exact);
        assert_eq!(plan_str(r#"$os == "IRIX" or not $load > 0.5"#), None);
    }

    #[test]
    fn derived_attributes_are_residual() {
        let compiled = parse_query("$host_load_forecast < 0.5").unwrap();
        assert_eq!(
            plan(compiled.expr(), &|n| n == "host_load_forecast", &legion_regex::analyze),
            None
        );
        // ...and poison only their own conjunct.
        let compiled = parse_query(r#"$os == "IRIX" and $host_load_forecast < 0.5"#).unwrap();
        let p = plan(compiled.expr(), &|n| n == "host_load_forecast", &legion_regex::analyze)
            .unwrap();
        assert_eq!(p.node, str_eq("os", "IRIX"));
        assert!(!p.exact);
    }

    #[test]
    fn match_plans_use_equality_prefix_contains_or_first_ranges() {
        // Fully anchored literal → exact equality probe.
        let p = plan_str(r#"match("^IRIX$", $os)"#).unwrap();
        assert_eq!(p.node, str_eq("os", "IRIX"));
        assert!(p.exact);
        // Anchored prefix → exact prefix probe.
        let p = plan_str(r#"match("^5\..*", $ver)"#).unwrap();
        assert_eq!(
            p.node,
            PlanNode::Lookup(IndexPredicate::StrPrefix { attr: "ver".into(), prefix: "5.".into() })
        );
        assert!(p.exact);
        // Attribute-first spelling plans identically.
        assert_eq!(plan_str(r#"match($ver, "^5\..*")"#), plan_str(r#"match("^5\..*", $ver)"#));
        // Anchored prefix with a live tail → inexact prefix probe.
        let p = plan_str(r#"match("^v\d+$", $ver)"#).unwrap();
        assert_eq!(
            p.node,
            PlanNode::Lookup(IndexPredicate::StrPrefix { attr: "ver".into(), prefix: "v".into() })
        );
        assert!(!p.exact);
        // Unanchored literal → exact trigram probe (this was residual
        // before the trigram index).
        let p = plan_str(r#"match("RIX", $os)"#).unwrap();
        assert_eq!(
            p.node,
            PlanNode::Lookup(IndexPredicate::StrContains {
                attr: "os".into(),
                needle: "RIX".into()
            })
        );
        assert!(p.exact);
        // Two mandatory runs → inexact intersection of trigram probes.
        let p = plan_str(r#"match("ab.*cd", $os)"#).unwrap();
        assert!(matches!(&p.node, PlanNode::Intersect(parts) if parts.len() == 2));
        assert!(!p.exact);
        // Leading class → inexact first-character probe.
        let p = plan_str(r#"match("^[A-Z]", $os)"#).unwrap();
        assert_eq!(
            p.node,
            PlanNode::Lookup(IndexPredicate::StrFirstRanges {
                attr: "os".into(),
                ranges: vec![('A', 'Z')],
            })
        );
        assert!(!p.exact);
    }

    #[test]
    fn estimates_upper_bound_execution() {
        use legion_core::{AttributeDb, LoidKind};
        use legion_core::Loid;
        let mut idx = AttributeIndexes::new();
        for i in 0..10u64 {
            idx.insert(
                Loid::synthetic(LoidKind::Host, i),
                &AttributeDb::new()
                    .with("os", if i % 5 == 0 { "IRIX" } else { "Linux" })
                    .with("load", i as f64),
            );
        }
        let selective = plan_str(r#"$os == "IRIX""#).unwrap();
        assert_eq!(selective.estimate(&idx, CAP), selective.execute(&idx).len());
        assert_eq!(selective.estimate(&idx, CAP), 2);
        let broad = plan_str("$load >= 0.0").unwrap();
        assert_eq!(broad.estimate(&idx, CAP), 10);
        // ...and the broad estimate saturates at the cap without
        // walking past it.
        assert_eq!(broad.estimate(&idx, 3), 3);
        // Intersection estimates by its smallest part; union by the sum
        // (which may overcount overlap — fine for an upper bound).
        let both = plan_str(r#"$os == "IRIX" and $load >= 0.0"#).unwrap();
        assert_eq!(both.estimate(&idx, CAP), 2);
        let either = plan_str(r#"$os == "IRIX" or $load >= 0.0"#).unwrap();
        assert_eq!(either.estimate(&idx, CAP), 12);
        assert!(either.estimate(&idx, CAP) >= either.execute(&idx).len());
        // Trigram estimates match the verified candidate sets.
        let contains = plan_str(r#"match("RIX", $os)"#).unwrap();
        assert_eq!(contains.estimate(&idx, CAP), contains.execute(&idx).len());
    }
}
