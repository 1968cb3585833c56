//! Query AST.

use legion_core::AttrValue;

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to a semantic-comparison result.
    pub fn accepts(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// A comparison operand: attribute reference or literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// `$name`.
    Attr(String),
    /// A literal value.
    Lit(AttrValue),
}

/// An argument to `match()`.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchArg {
    /// `$name`.
    Attr(String),
    /// A string literal.
    Lit(String),
}

/// A parsed query expression.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// A boolean constant.
    Bool(bool),
    /// `lhs op rhs`.
    Cmp {
        /// Left operand.
        lhs: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: Operand,
    },
    /// `match(a, b)` — see module docs for pattern-argument resolution.
    Match {
        /// First argument.
        a: MatchArg,
        /// Second argument.
        b: MatchArg,
    },
    /// `contains($attr, needle)` — list membership.
    Contains {
        /// The list attribute.
        attr: String,
        /// The sought value.
        needle: Operand,
    },
    /// `exists($attr)`.
    Exists(String),
    /// Conjunction of a chain `a and b and …`, held flat so that a long
    /// chain costs no stack depth.
    And(Vec<QueryExpr>),
    /// Disjunction of a chain `a or b or …`, held flat likewise.
    Or(Vec<QueryExpr>),
    /// Negation.
    Not(Box<QueryExpr>),
}
