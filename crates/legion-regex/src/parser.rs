//! Recursive-descent parser from pattern text to [`Ast`].

use crate::ast::{Ast, ClassItem, PerlClass};
use crate::error::RegexError;

/// Upper bound on `{m,n}` counts, to keep compiled programs small.
const MAX_REPEAT: u32 = 1000;

/// Upper bound on nesting: groups open around a point plus quantifiers
/// stacked on one atom. Parsing, compiling and dropping the AST recurse
/// once per level, so this bounds their stack use however long the
/// pattern is (`a???…` otherwise builds one `Repeat` per `?`).
const MAX_DEPTH: usize = 64;

/// Parses a whole pattern into an AST.
pub fn parse(pattern: &str) -> Result<Ast, RegexError> {
    let mut p = Parser { chars: pattern.char_indices().collect(), pos: 0, depth: 0 };
    let ast = p.parse_alternation()?;
    if let Some(&(off, c)) = p.peek_raw() {
        return Err(RegexError::new(off, format!("unexpected `{c}`")));
    }
    Ok(ast)
}

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    /// Nesting at the current point (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek_raw(&self) -> Option<&(usize, char)> {
        self.chars.get(self.pos)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn offset(&self) -> usize {
        self.chars.get(self.pos).map(|&(o, _)| o).unwrap_or_else(|| {
            self.chars.last().map(|&(o, c)| o + c.len_utf8()).unwrap_or(0)
        })
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    /// Enters one more level of nesting, refusing to pass [`MAX_DEPTH`].
    fn descend(&mut self, at: usize) -> Result<(), RegexError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(RegexError::new(
                at,
                format!("nesting depth exceeds the limit of {MAX_DEPTH}"),
            ));
        }
        Ok(())
    }

    fn eat(&mut self, want: char) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alternation := concat ('|' concat)*
    fn parse_alternation(&mut self) -> Result<Ast, RegexError> {
        let first = self.parse_concat()?;
        if self.peek() != Some('|') {
            return Ok(first);
        }
        let mut branches = vec![first];
        while self.eat('|') {
            branches.push(self.parse_concat()?);
        }
        Ok(Ast::Alternate(branches))
    }

    /// concat := repeat*
    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.parse_repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("len checked"),
            _ => Ast::Concat(items),
        })
    }

    /// repeat := atom ('*' | '+' | '?' | '{m,n}')*
    fn parse_repeat(&mut self) -> Result<Ast, RegexError> {
        let start = self.offset();
        let depth = self.depth;
        let mut node = self.parse_atom()?;
        loop {
            let (min, max) = match self.peek() {
                Some('*') => (0, None),
                Some('+') => (1, None),
                Some('?') => (0, Some(1)),
                Some('{') => {
                    self.bump();
                    let rep = self.parse_counted_repeat(start)?;
                    node = self.apply_repeat(node, rep.0, rep.1, start)?;
                    continue;
                }
                _ => break,
            };
            self.bump();
            node = self.apply_repeat(node, min, max, start)?;
        }
        self.depth = depth;
        Ok(node)
    }

    fn apply_repeat(
        &mut self,
        node: Ast,
        min: u32,
        max: Option<u32>,
        at: usize,
    ) -> Result<Ast, RegexError> {
        if matches!(node, Ast::StartAnchor | Ast::EndAnchor) {
            return Err(RegexError::new(at, "cannot repeat an anchor"));
        }
        self.descend(at)?;
        Ok(Ast::Repeat { node: Box::new(node), min, max })
    }

    /// Parses the body of `{m}`, `{m,}` or `{m,n}` (the `{` is consumed).
    fn parse_counted_repeat(&mut self, at: usize) -> Result<(u32, Option<u32>), RegexError> {
        let min = self.parse_number(at)?;
        let max = if self.eat(',') {
            if self.peek() == Some('}') { None } else { Some(self.parse_number(at)?) }
        } else {
            Some(min)
        };
        if !self.eat('}') {
            return Err(RegexError::new(self.offset(), "expected `}` to close repetition"));
        }
        if let Some(max) = max {
            if max < min {
                return Err(RegexError::new(at, format!("invalid repetition {{{min},{max}}}")));
            }
        }
        Ok((min, max))
    }

    fn parse_number(&mut self, at: usize) -> Result<u32, RegexError> {
        let mut digits = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                digits.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if digits.is_empty() {
            return Err(RegexError::new(self.offset(), "expected a number in `{...}`"));
        }
        let n: u32 = digits
            .parse()
            .map_err(|_| RegexError::new(at, "repetition count out of range"))?;
        if n > MAX_REPEAT {
            return Err(RegexError::new(
                at,
                format!("repetition count {n} exceeds the limit of {MAX_REPEAT}"),
            ));
        }
        Ok(n)
    }

    /// atom := literal | '.' | '^' | '$' | escape | class | '(' alternation ')'
    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        let off = self.offset();
        match self.peek() {
            None => Err(RegexError::new(off, "unexpected end of pattern")),
            Some('(') => {
                self.descend(off)?;
                self.bump();
                let inner = self.parse_alternation()?;
                if !self.eat(')') {
                    return Err(RegexError::new(self.offset(), "unclosed `(`"));
                }
                self.depth -= 1;
                Ok(Ast::Group(Box::new(inner)))
            }
            Some(')') => Err(RegexError::new(off, "unmatched `)`")),
            Some('[') => {
                self.bump();
                self.parse_class(off)
            }
            Some('.') => {
                self.bump();
                Ok(Ast::AnyChar)
            }
            Some('^') => {
                self.bump();
                Ok(Ast::StartAnchor)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::EndAnchor)
            }
            Some('\\') => {
                self.bump();
                self.parse_escape(off).map(|e| match e {
                    Escaped::Char(c) => Ast::Literal(c),
                    Escaped::Perl(p) => Ast::Perl(p),
                })
            }
            Some(c @ ('*' | '+' | '?')) => {
                Err(RegexError::new(off, format!("`{c}` has nothing to repeat")))
            }
            Some('{') => {
                // A `{` that does not open a valid repetition is treated as
                // a literal, matching common regexp() behaviour.
                self.bump();
                Ok(Ast::Literal('{'))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Literal(c))
            }
        }
    }

    /// Parses `[...]` after the opening bracket.
    fn parse_class(&mut self, open: usize) -> Result<Ast, RegexError> {
        let negated = self.eat('^');
        let mut items = Vec::new();
        // A `]` immediately after `[` or `[^` is a literal.
        if self.peek() == Some(']') {
            self.bump();
            items.push(ClassItem::Char(']'));
        }
        loop {
            match self.peek() {
                None => return Err(RegexError::new(open, "unclosed `[`")),
                Some(']') => {
                    self.bump();
                    break;
                }
                Some('\\') => {
                    self.bump();
                    let off = self.offset();
                    match self.parse_escape(off)? {
                        Escaped::Char(c) => self.push_class_char(&mut items, c, open)?,
                        Escaped::Perl(p) => items.push(ClassItem::Perl(p)),
                    }
                }
                Some(c) => {
                    self.bump();
                    self.push_class_char(&mut items, c, open)?;
                }
            }
        }
        Ok(Ast::Class { negated, items })
    }

    /// Adds `c` to the class, forming a range if a `-` follows.
    fn push_class_char(
        &mut self,
        items: &mut Vec<ClassItem>,
        c: char,
        open: usize,
    ) -> Result<(), RegexError> {
        if self.peek() == Some('-') {
            // Look one past the '-': a ']' makes the '-' literal.
            match self.chars.get(self.pos + 1).map(|&(_, c)| c) {
                Some(']') | None => {
                    items.push(ClassItem::Char(c));
                }
                Some('\\') => {
                    self.bump(); // consume '-'
                    self.bump(); // consume '\\'
                    let off = self.offset();
                    match self.parse_escape(off)? {
                        Escaped::Char(hi) => {
                            if hi < c {
                                return Err(RegexError::new(open, "invalid class range"));
                            }
                            items.push(ClassItem::Range(c, hi));
                        }
                        Escaped::Perl(_) => {
                            return Err(RegexError::new(
                                off,
                                "perl class cannot end a range",
                            ));
                        }
                    }
                }
                Some(hi) => {
                    self.bump(); // consume '-'
                    self.bump(); // consume hi
                    if hi < c {
                        return Err(RegexError::new(open, "invalid class range"));
                    }
                    items.push(ClassItem::Range(c, hi));
                }
            }
        } else {
            items.push(ClassItem::Char(c));
        }
        Ok(())
    }

    /// Parses the character after a `\`.
    fn parse_escape(&mut self, at: usize) -> Result<Escaped, RegexError> {
        let c = self
            .bump()
            .ok_or_else(|| RegexError::new(at, "dangling `\\` at end of pattern"))?;
        Ok(match c {
            'd' => Escaped::Perl(PerlClass::Digit),
            'D' => Escaped::Perl(PerlClass::NotDigit),
            'w' => Escaped::Perl(PerlClass::Word),
            'W' => Escaped::Perl(PerlClass::NotWord),
            's' => Escaped::Perl(PerlClass::Space),
            'S' => Escaped::Perl(PerlClass::NotSpace),
            'n' => Escaped::Char('\n'),
            't' => Escaped::Char('\t'),
            'r' => Escaped::Char('\r'),
            '0' => Escaped::Char('\0'),
            c if c.is_ascii_alphanumeric() => {
                return Err(RegexError::new(at, format!("unknown escape `\\{c}`")));
            }
            c => Escaped::Char(c),
        })
    }
}

enum Escaped {
    Char(char),
    Perl(PerlClass),
}
