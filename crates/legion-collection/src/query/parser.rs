//! Recursive-descent query parser.

use super::ast::{CmpOp, MatchArg, Operand, QueryExpr};
use super::lexer::Token;
use legion_core::AttrValue;

/// Upper bound on nesting: groups and `not`s open around a point.
/// Parsing, compiling, evaluating and dropping an expression recurse
/// once per level, so this bounds their stack use however long the
/// query text is. A chain of `and`s or `or`s is one flat node, not a
/// level per operator.
const MAX_DEPTH: usize = 64;

/// Parses a token stream into an expression.
pub fn parse(tokens: &[Token]) -> Result<QueryExpr, String> {
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let expr = p.or_expr()?;
    if p.pos != tokens.len() {
        return Err(format!("trailing tokens after expression: {:?}", p.tokens[p.pos]));
    }
    Ok(*expr)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting at the current point (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Enters one more level of nesting, refusing to pass [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting depth exceeds the limit of {MAX_DEPTH} (groups and `not`s)"
            ));
        }
        Ok(())
    }

    fn expect(&mut self, want: &Token, ctx: &str) -> Result<(), String> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(format!("expected {want:?} {ctx}, found {t:?}")),
            None => Err(format!("expected {want:?} {ctx}, found end of query")),
        }
    }

    // The recursive levels pass boxes, not expressions, so that a
    // nested group stacks small frames even in an unoptimised build.

    fn or_expr(&mut self) -> Result<Box<QueryExpr>, String> {
        self.chain(&Token::Or, Self::and_expr, QueryExpr::Or)
    }

    fn and_expr(&mut self) -> Result<Box<QueryExpr>, String> {
        self.chain(&Token::And, Self::unary, QueryExpr::And)
    }

    /// Parses `operand (op operand)*`: a lone operand as itself, a
    /// chain as one flat `node` over every operand.
    fn chain(
        &mut self,
        op: &Token,
        operand: fn(&mut Self) -> Result<Box<QueryExpr>, String>,
        node: fn(Vec<QueryExpr>) -> QueryExpr,
    ) -> Result<Box<QueryExpr>, String> {
        let first = operand(self)?;
        if self.peek() != Some(op) {
            return Ok(first);
        }
        let mut parts = vec![*first];
        while self.peek() == Some(op) {
            self.bump();
            parts.push(*operand(self)?);
        }
        Ok(Box::new(node(parts)))
    }

    fn unary(&mut self) -> Result<Box<QueryExpr>, String> {
        if self.peek() == Some(&Token::Not) {
            self.descend()?;
            self.bump();
            let inner = self.unary()?;
            self.depth -= 1;
            return Ok(Box::new(QueryExpr::Not(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Box<QueryExpr>, String> {
        if self.peek() != Some(&Token::LParen) {
            return self.leaf().map(Box::new);
        }
        self.descend()?;
        self.bump();
        let inner = self.or_expr()?;
        self.expect(&Token::RParen, "to close group")?;
        self.depth -= 1;
        Ok(inner)
    }

    /// Everything but a group.
    fn leaf(&mut self) -> Result<QueryExpr, String> {
        match self.peek() {
            None => Err("unexpected end of query".into()),
            Some(Token::Match) => {
                self.bump();
                self.expect(&Token::LParen, "after `match`")?;
                let a = self.match_arg()?;
                self.expect(&Token::Comma, "between match arguments")?;
                let b = self.match_arg()?;
                self.expect(&Token::RParen, "to close `match`")?;
                Ok(QueryExpr::Match { a, b })
            }
            Some(Token::Contains) => {
                self.bump();
                self.expect(&Token::LParen, "after `contains`")?;
                let attr = match self.bump() {
                    Some(Token::Attr(name)) => name.clone(),
                    other => return Err(format!("contains() needs a $attr first, got {other:?}")),
                };
                self.expect(&Token::Comma, "between contains arguments")?;
                let needle = self.operand()?;
                self.expect(&Token::RParen, "to close `contains`")?;
                Ok(QueryExpr::Contains { attr, needle })
            }
            Some(Token::Exists) => {
                self.bump();
                self.expect(&Token::LParen, "after `exists`")?;
                let attr = match self.bump() {
                    Some(Token::Attr(name)) => name.clone(),
                    other => return Err(format!("exists() needs a $attr, got {other:?}")),
                };
                self.expect(&Token::RParen, "to close `exists`")?;
                Ok(QueryExpr::Exists(attr))
            }
            // `true` / `false` standing alone (not part of a comparison).
            Some(Token::True | Token::False)
                if !matches!(
                    self.tokens.get(self.pos + 1),
                    Some(
                        Token::Eq | Token::Ne | Token::Lt | Token::Le | Token::Gt | Token::Ge
                    )
                ) =>
            {
                let v = self.bump() == Some(&Token::True);
                Ok(QueryExpr::Bool(v))
            }
            _ => {
                let lhs = self.operand()?;
                let op = match self.bump() {
                    Some(Token::Eq) => CmpOp::Eq,
                    Some(Token::Ne) => CmpOp::Ne,
                    Some(Token::Lt) => CmpOp::Lt,
                    Some(Token::Le) => CmpOp::Le,
                    Some(Token::Gt) => CmpOp::Gt,
                    Some(Token::Ge) => CmpOp::Ge,
                    other => return Err(format!("expected comparison operator, got {other:?}")),
                };
                let rhs = self.operand()?;
                Ok(QueryExpr::Cmp { lhs, op, rhs })
            }
        }
    }

    fn operand(&mut self) -> Result<Operand, String> {
        match self.bump() {
            Some(Token::Attr(name)) => Ok(Operand::Attr(name.clone())),
            Some(Token::Str(s)) => Ok(Operand::Lit(AttrValue::from(s.as_str()))),
            Some(Token::Int(i)) => Ok(Operand::Lit(AttrValue::Int(*i))),
            Some(Token::Float(f)) => Ok(Operand::Lit(AttrValue::Float(*f))),
            Some(Token::True) => Ok(Operand::Lit(AttrValue::Bool(true))),
            Some(Token::False) => Ok(Operand::Lit(AttrValue::Bool(false))),
            other => Err(format!("expected an operand, got {other:?}")),
        }
    }

    fn match_arg(&mut self) -> Result<MatchArg, String> {
        match self.bump() {
            Some(Token::Attr(name)) => Ok(MatchArg::Attr(name.clone())),
            Some(Token::Str(s)) => Ok(MatchArg::Lit(s.clone())),
            other => Err(format!("match() arguments must be $attr or string, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn p(s: &str) -> QueryExpr {
        parse(&lex(s).unwrap()).unwrap()
    }

    #[test]
    fn precedence_and_over_or() {
        let e = p("true or false and false");
        // Must parse as true or (false and false).
        match e {
            QueryExpr::Or(parts) => assert_eq!(parts[0], QueryExpr::Bool(true)),
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn not_binds_tightest() {
        let e = p("not true and false");
        match e {
            QueryExpr::And(parts) => {
                assert_eq!(parts[0], QueryExpr::Not(Box::new(QueryExpr::Bool(true))))
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn comparison_shape() {
        let e = p("$load <= 0.5");
        assert_eq!(
            e,
            QueryExpr::Cmp {
                lhs: Operand::Attr("load".into()),
                op: CmpOp::Le,
                rhs: Operand::Lit(AttrValue::Float(0.5)),
            }
        );
    }

    #[test]
    fn bool_can_be_compared_too() {
        let e = p("$up == true");
        assert!(matches!(e, QueryExpr::Cmp { .. }));
    }

    #[test]
    fn rejects_trailing() {
        assert!(parse(&lex("true true").unwrap()).is_err());
        assert!(parse(&lex("$a == 1)").unwrap()).is_err());
    }
}
