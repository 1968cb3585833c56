//! AST → NFA program compiler.
//!
//! The program is a flat instruction list in the style of Thompson's
//! construction as used by Pike VMs: `Split` and `Jmp` wire up the control
//! flow, consuming instructions test one input character, and `Match`
//! terminates a successful thread.

use crate::ast::{Ast, ClassItem, PerlClass};

/// One NFA instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Consume one character equal to the payload.
    Char(char),
    /// Consume any one character.
    Any,
    /// Consume one character accepted by the class.
    Class {
        /// True for `[^...]`.
        negated: bool,
        /// Class membership items.
        items: Vec<ClassItem>,
    },
    /// Consume one character accepted by a perl shorthand.
    Perl(PerlClass),
    /// Succeed only at the start of the text (consumes nothing).
    StartAnchor,
    /// Succeed only at the end of the text (consumes nothing).
    EndAnchor,
    /// Continue at both targets (preference order: first then second).
    Split(usize, usize),
    /// Continue at the target.
    Jmp(usize),
    /// The whole pattern matched.
    Match,
}

impl Inst {
    /// Whether this instruction accepts input character `c`.
    pub fn accepts(&self, c: char) -> bool {
        match self {
            Inst::Char(want) => *want == c,
            Inst::Any => true,
            Inst::Perl(p) => p.matches(c),
            Inst::Class { negated, items } => {
                let mut hit = false;
                for item in items {
                    let ok = match item {
                        ClassItem::Char(x) => *x == c,
                        ClassItem::Range(lo, hi) => (*lo..=*hi).contains(&c),
                        ClassItem::Perl(p) => p.matches(c),
                    };
                    if ok {
                        hit = true;
                        break;
                    }
                }
                hit != *negated
            }
            _ => false,
        }
    }
}

/// A compiled NFA program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Flat instruction list; entry point is index 0.
    pub insts: Vec<Inst>,
}

/// Most instructions a compiled program may hold. Bounded repeats
/// expand into copies of their body, so nested counts multiply:
/// `(a{1000}){1000}` is 15 characters and 10⁶ instructions, and one
/// more level would be 10⁹, whose allocation failure aborts the
/// process. The Pike VM costs O(instructions × text) per record, so the
/// cap also bounds what one `match()` costs per host.
pub const MAX_PROGRAM_SIZE: u64 = 1 << 16;

/// The number of instructions [`compile`] emits for `ast`, counted
/// without expanding anything: a bounded repeat costs its body's size
/// times its count. Saturates rather than overflowing, so a pattern far
/// over [`MAX_PROGRAM_SIZE`] still reads as over it.
pub fn program_size(ast: &Ast) -> u64 {
    size_of(ast).saturating_add(1) // the final `Match`
}

fn sum_of(items: &[Ast]) -> u64 {
    items.iter().fold(0, |n, item| n.saturating_add(size_of(item)))
}

fn size_of(ast: &Ast) -> u64 {
    match ast {
        Ast::Empty => 0,
        Ast::Literal(_)
        | Ast::AnyChar
        | Ast::Perl(_)
        | Ast::Class { .. }
        | Ast::StartAnchor
        | Ast::EndAnchor => 1,
        Ast::Group(inner) => size_of(inner),
        Ast::Concat(items) => sum_of(items),
        // Every branch but the last adds a `Split` and a `Jmp`.
        Ast::Alternate(branches) => {
            sum_of(branches).saturating_add(2 * (branches.len() as u64).saturating_sub(1))
        }
        Ast::Repeat { node, min, max } => {
            let body = size_of(node);
            let tail = match max {
                // `e*`: a `Split`, the body and a `Jmp`.
                None => body.saturating_add(2),
                // Each optional copy: a `Split` and the body.
                Some(max) => u64::from(max - min).saturating_mul(body.saturating_add(1)),
            };
            u64::from(*min).saturating_mul(body).saturating_add(tail)
        }
    }
}

/// Compiles a parsed AST into an NFA program ending in [`Inst::Match`].
/// Callers check [`program_size`] first: this expands every repeat.
pub fn compile(ast: &Ast) -> Program {
    let mut c = Compiler { insts: Vec::new() };
    c.emit_ast(ast);
    c.insts.push(Inst::Match);
    Program { insts: c.insts }
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn next(&self) -> usize {
        self.insts.len()
    }

    fn emit(&mut self, inst: Inst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn emit_ast(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => {
                self.emit(Inst::Char(*c));
            }
            Ast::AnyChar => {
                self.emit(Inst::Any);
            }
            Ast::Perl(p) => {
                self.emit(Inst::Perl(*p));
            }
            Ast::Class { negated, items } => {
                self.emit(Inst::Class { negated: *negated, items: items.clone() });
            }
            Ast::StartAnchor => {
                self.emit(Inst::StartAnchor);
            }
            Ast::EndAnchor => {
                self.emit(Inst::EndAnchor);
            }
            Ast::Group(inner) => self.emit_ast(inner),
            Ast::Concat(items) => {
                for item in items {
                    self.emit_ast(item);
                }
            }
            Ast::Alternate(branches) => self.emit_alternate(branches),
            Ast::Repeat { node, min, max } => self.emit_repeat(node, *min, *max),
        }
    }

    fn emit_alternate(&mut self, branches: &[Ast]) {
        debug_assert!(!branches.is_empty());
        if branches.len() == 1 {
            self.emit_ast(&branches[0]);
            return;
        }
        // For branches b1..bn emit:
        //   split L1, Lnext ; L1: b1 ; jmp END ; Lnext: ...
        let mut jmp_ends = Vec::with_capacity(branches.len() - 1);
        let mut pending_split: Option<usize> = None;
        for (i, branch) in branches.iter().enumerate() {
            let last = i + 1 == branches.len();
            if let Some(split) = pending_split.take() {
                let here = self.next();
                if let Inst::Split(_, ref mut second) = self.insts[split] {
                    *second = here;
                }
            }
            if !last {
                let split = self.emit(Inst::Split(0, 0));
                let body = self.next();
                if let Inst::Split(ref mut first, _) = self.insts[split] {
                    *first = body;
                }
                pending_split = Some(split);
                self.emit_ast(branch);
                jmp_ends.push(self.emit(Inst::Jmp(0)));
            } else {
                self.emit_ast(branch);
            }
        }
        let end = self.next();
        for j in jmp_ends {
            if let Inst::Jmp(ref mut t) = self.insts[j] {
                *t = end;
            }
        }
    }

    fn emit_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>) {
        // Mandatory prefix: `min` copies.
        for _ in 0..min {
            self.emit_ast(node);
        }
        match max {
            None => {
                if min == 0 {
                    // `e*`:  L: split B, END ; B: e ; jmp L ; END:
                    let l = self.emit(Inst::Split(0, 0));
                    let body = self.next();
                    self.emit_ast(node);
                    self.emit(Inst::Jmp(l));
                    let end = self.next();
                    if let Inst::Split(ref mut a, ref mut b) = self.insts[l] {
                        *a = body;
                        *b = end;
                    }
                } else {
                    // `e{min,}`: the last mandatory copy loops:
                    //   split BACK, END — emitted as e ; split RESTART, END
                    // Simpler: emit one `e*` after the prefix.
                    self.emit_repeat(node, 0, None);
                }
            }
            Some(max) => {
                // Optional suffix: (max - min) copies of `e?`.
                let optional = max.saturating_sub(min);
                let mut splits = Vec::with_capacity(optional as usize);
                for _ in 0..optional {
                    let s = self.emit(Inst::Split(0, 0));
                    let body = self.next();
                    if let Inst::Split(ref mut a, _) = self.insts[s] {
                        *a = body;
                    }
                    splits.push(s);
                    self.emit_ast(node);
                }
                let end = self.next();
                for s in splits {
                    if let Inst::Split(_, ref mut b) = self.insts[s] {
                        *b = end;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compiles_literal_chain() {
        let p = compile(&parse("abc").unwrap());
        assert_eq!(
            p.insts,
            vec![Inst::Char('a'), Inst::Char('b'), Inst::Char('c'), Inst::Match]
        );
    }

    #[test]
    fn star_forms_a_loop() {
        let p = compile(&parse("a*").unwrap());
        // split 1,3 ; char a ; jmp 0 ; match
        assert_eq!(p.insts.len(), 4);
        assert!(matches!(p.insts[0], Inst::Split(1, 3)));
        assert!(matches!(p.insts[2], Inst::Jmp(0)));
    }

    /// The size bound is computed without expanding anything; it must
    /// never under-count what `compile` then emits.
    #[test]
    fn program_size_bounds_every_compiled_program() {
        let deepest = [
            format!("{}a{}", "(".repeat(64), ")".repeat(64)),
            format!("a{}", "?".repeat(64)),
            format!("{}a{}", "(".repeat(32), "){2}".repeat(16) + &")".repeat(16)),
        ];
        let patterns = SUITE_PATTERNS.iter().copied().chain(deepest.iter().map(String::as_str));
        for pattern in patterns {
            let ast = parse(pattern).unwrap_or_else(|e| panic!("{pattern}: {e}"));
            let emitted = compile(&ast).insts.len() as u64;
            assert!(program_size(&ast) >= emitted, "{pattern}: bound under {emitted}");
        }
    }

    #[test]
    fn nested_repeat_sizes_multiply_and_saturate() {
        let size = |p: &str| program_size(&parse(p).unwrap());
        assert_eq!(size("(a{1000}){1000}"), 1_000_001);
        assert_eq!(size("((a{1000}){1000}){1000}"), 1_000_000_001);
        let deep = format!("{}a{}", "(".repeat(40), "){1000}".repeat(40));
        assert_eq!(size(&deep), u64::MAX);
    }

    /// Every fixed pattern the crate's tests compile, plus counts at
    /// the parser's `{m,n}` limit.
    const SUITE_PATTERNS: &[&str] = &[
        "", "abc", "a*", "a{2,4}", "IRIX", "a.c", "ab*c", "^ab*c$", "^ab+c$", "ab+c",
        "^colou?r$", "^a{3}$", "^a{2,}$", "^a{1,3}$", "^(cat|dog)$", "^(ab)+$", "^[a-c]+$",
        "^[^0-9]+$", "^[-a]+$", "^[a-]+$", r"^\d+$", r"^\w+$", r"^\s$", r"^\D+$", r"^\W$",
        r"^\S+$", r"^5\.3$", r"^a\\b$", r"^a\tb$", r"^a\nb$", "^abc", "^bcd", "def$",
        "abc$", "^$", r"5\..*", "b+", "ab+", "^.$", "^héllo$", "^(a*)*b$", "(a|aa)+$",
        "^((ab|cd)e)+$", r"^[\d-]+$", r"^[\]]$", "^(ab){2,3}$", "^(a|)$", r"^[a-f\d]+$",
        r"^[\s,;]+$", "^foo|bar$", "^(a+)+$", "ab*", "a|ab", "a$", "^$|x",
        r"^cypress\.cs\.virginia\.edu$", r"^sp2-node\d{2}$", "^(a|bc){3}$",
        r"[A-Z][a-z]+", "(ab)*", "(ab)+", ".*nux", "^IRIX$", "^IRIX.*64$", "^[A-Z]rix",
        "^[^a-z]x", "^a?bc", "^ab(c|d)", "^ab.c", "^ab.cd", "^ab|cd", "ab.*cd", "cat|dog",
        "nux$", "x(ab){2,}y", r"^5\.", r"^[\w]x", r"^[a-c5\d]x", "^a{3,5}$", "^[a-c]*$",
        "a{1000}", "a{2,1000}", "(ab|c){0,1000}",
    ];

    #[test]
    fn bounded_repeat_expands() {
        let p = compile(&parse("a{2,4}").unwrap());
        let chars = p.insts.iter().filter(|i| matches!(i, Inst::Char('a'))).count();
        assert_eq!(chars, 4);
        let splits = p.insts.iter().filter(|i| matches!(i, Inst::Split(_, _))).count();
        assert_eq!(splits, 2);
    }
}
