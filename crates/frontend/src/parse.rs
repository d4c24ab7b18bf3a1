//! Shared parsing infrastructure: token cursor and the expression grammar.
//!
//! Both subset parsers (Fortran, C) drive the same cursor and the same
//! precedence-climbing expression parser; only the statement grammars differ.

use crate::ast::{BinOp, Expr};
use crate::lex::{Tok, Token};
use support::{Error, Pos, Result};

/// A cursor over a lexed token stream.
#[derive(Debug)]
pub struct Cursor {
    toks: Vec<Token>,
    i: usize,
}

impl Cursor {
    /// Wraps a token stream (must end with `Eof`).
    pub fn new(toks: Vec<Token>) -> Self {
        debug_assert!(matches!(toks.last().map(|t| &t.tok), Some(Tok::Eof)));
        Cursor { toks, i: 0 }
    }

    /// The current token.
    pub fn peek(&self) -> &Tok {
        &self.toks[self.i.min(self.toks.len() - 1)].tok
    }

    /// The token after the current one.
    pub fn peek2(&self) -> &Tok {
        &self.toks[(self.i + 1).min(self.toks.len() - 1)].tok
    }

    /// Position of the current token.
    pub fn pos(&self) -> Pos {
        self.toks[self.i.min(self.toks.len() - 1)].pos
    }

    /// Advances and returns the consumed token. The cursor never moves
    /// back, so a consumed token is moved out rather than copied; the final
    /// `Eof` stays in place.
    pub fn bump(&mut self) -> Tok {
        let last = self.toks.len() - 1;
        if self.i < last {
            self.i += 1;
            std::mem::replace(&mut self.toks[self.i - 1].tok, Tok::Eof)
        } else {
            self.toks[last].tok.clone()
        }
    }

    /// Consumes the current token if it equals `t`.
    pub fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Requires the current token to be `t`.
    pub fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(Error::parse(
                self.pos(),
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    /// Requires and returns an identifier.
    pub fn ident(&mut self, what: &str) -> Result<String> {
        if matches!(self.peek(), Tok::Ident(_)) {
            if let Tok::Ident(s) = self.bump() {
                return Ok(s);
            }
        }
        Err(Error::parse(
            self.pos(),
            format!("expected {what}, found {:?}", self.peek()),
        ))
    }

    /// Requires and returns an integer literal, allowing a leading minus.
    pub fn int(&mut self, what: &str) -> Result<i64> {
        let neg = self.eat(&Tok::Minus);
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            ref other => Err(Error::parse(
                self.pos(),
                format!("expected {what}, found {other:?}"),
            )),
        }
    }

    /// True when the current token is an identifier equal to `kw`
    /// (identifiers from the Fortran lexer are already lower-cased).
    pub fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// Consumes a keyword identifier.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Requires a keyword identifier.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(
                self.pos(),
                format!("expected `{kw}`, found {:?}", self.peek()),
            ))
        }
    }

    /// Skips any `Newline` tokens.
    pub fn skip_newlines(&mut self) {
        while self.eat(&Tok::Newline) {}
    }

    /// True at end of input.
    pub fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }
}

/// Which call syntax expression-position parentheses use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexStyle {
    /// Fortran: `name(e, e)` is an index-or-call, resolved by sema.
    Paren,
    /// C: `name[e][e]` chains are indices; `name(...)` is a function call.
    Bracket,
}

fn bin_prec(t: &Tok) -> Option<(BinOp, u8)> {
    Some(match t {
        Tok::OrOr => (BinOp::Or, 1),
        Tok::AndAnd => (BinOp::And, 2),
        Tok::EqEq => (BinOp::Eq, 3),
        Tok::Ne => (BinOp::Ne, 3),
        Tok::Lt => (BinOp::Lt, 3),
        Tok::Le => (BinOp::Le, 3),
        Tok::Gt => (BinOp::Gt, 3),
        Tok::Ge => (BinOp::Ge, 3),
        Tok::Plus => (BinOp::Add, 4),
        Tok::Minus => (BinOp::Sub, 4),
        Tok::Star => (BinOp::Mul, 5),
        Tok::Slash => (BinOp::Div, 5),
        _ => return None,
    })
}

/// Parses an expression at the lowest precedence.
pub fn expr(c: &mut Cursor, style: IndexStyle) -> Result<Expr> {
    expr_prec(c, style, 1)
}

fn expr_prec(c: &mut Cursor, style: IndexStyle, min_prec: u8) -> Result<Expr> {
    // Bound recursion depth: pathological nesting (thousands of parens or
    // unary minuses) must surface as a parse error, not a stack overflow —
    // overflow aborts the process and cannot be contained by catch_unwind.
    let Some(_guard) = support::budget::recursion_guard() else {
        return Err(Error::parse(c.pos(), "expression nesting too deep"));
    };
    let mut lhs = unary(c, style)?;
    while let Some((op, prec)) = bin_prec(c.peek()) {
        if prec < min_prec {
            break;
        }
        let pos = c.pos();
        c.bump();
        let rhs = expr_prec(c, style, prec + 1)?;
        lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), pos);
    }
    Ok(lhs)
}

fn unary(c: &mut Cursor, style: IndexStyle) -> Result<Expr> {
    // `-`/`!`/`&` chains recurse without passing through `expr_prec`; bound
    // them too.
    let Some(_guard) = support::budget::recursion_guard() else {
        return Err(Error::parse(c.pos(), "expression nesting too deep"));
    };
    let pos = c.pos();
    if c.eat(&Tok::Minus) {
        let inner = unary(c, style)?;
        return Ok(Expr::Neg(Box::new(inner), pos));
    }
    if c.eat(&Tok::Not) {
        // Logical negation: structurally a unary node; the region analysis
        // never evaluates conditions, so Neg stands in for all unaries.
        let inner = unary(c, style)?;
        return Ok(Expr::Neg(Box::new(inner), pos));
    }
    primary(c, style)
}

fn primary(c: &mut Cursor, style: IndexStyle) -> Result<Expr> {
    let pos = c.pos();
    // Consume the token only once it is known to start an expression, so
    // error recovery resynchronizes from the offending token.
    let tok = match c.peek() {
        Tok::Int(_) | Tok::Real(_) | Tok::Str(_) | Tok::LParen | Tok::Amp | Tok::Ident(_) => {
            c.bump()
        }
        other => return Err(Error::parse(pos, format!("expected expression, found {other:?}"))),
    };
    match tok {
        Tok::Int(v) => Ok(Expr::Int(v, pos)),
        Tok::Real(v) => Ok(Expr::Real(v, pos)),
        // Strings only appear as call arguments (print_results etc.);
        // model them as an opaque integer.
        Tok::Str(_) => Ok(Expr::Int(0, pos)),
        Tok::LParen => {
            let e = expr(c, style)?;
            c.expect(&Tok::RParen, "`)`")?;
            Ok(e)
        }
        // C address-of on an argument: transparent for our analysis.
        // Route through `unary` so `&` chains hit the recursion guard.
        Tok::Amp => unary(c, style),
        Tok::Ident(name) => {
            match style {
                IndexStyle::Paren => {
                    if c.eat(&Tok::LParen) {
                        let args = arg_list(c, style)?;
                        if c.eat(&Tok::LBracket) {
                            // Coindexed read: `x(i)[p]` fetches from image p.
                            let image = expr(c, style)?;
                            c.expect(&Tok::RBracket, "`]` closing image selector")?;
                            Ok(Expr::CoIndex(name, args, Box::new(image), pos))
                        } else {
                            Ok(Expr::Index(name, args, pos))
                        }
                    } else {
                        Ok(Expr::Var(name, pos))
                    }
                }
                IndexStyle::Bracket => {
                    if *c.peek() == Tok::LBracket {
                        let mut subs = Vec::new();
                        while c.eat(&Tok::LBracket) {
                            subs.push(expr(c, style)?);
                            c.expect(&Tok::RBracket, "`]`")?;
                        }
                        Ok(Expr::Index(name, subs, pos))
                    } else if c.eat(&Tok::LParen) {
                        let args = arg_list(c, style)?;
                        Ok(Expr::Call(name, args, pos))
                    } else {
                        Ok(Expr::Var(name, pos))
                    }
                }
            }
        }
        other => Err(Error::parse(pos, format!("expected expression, found {other:?}"))),
    }
}

/// Parses a possibly-empty comma-separated argument list up to `)`.
pub fn arg_list(c: &mut Cursor, style: IndexStyle) -> Result<Vec<Expr>> {
    let mut args = Vec::new();
    if c.eat(&Tok::RParen) {
        return Ok(args);
    }
    loop {
        args.push(expr(c, style)?);
        if c.eat(&Tok::RParen) {
            return Ok(args);
        }
        c.expect(&Tok::Comma, "`,` or `)`")?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, LexMode};

    fn parse_c_expr(src: &str) -> Expr {
        let mut c = Cursor::new(lex(src, LexMode::C).unwrap());
        expr(&mut c, IndexStyle::Bracket).unwrap()
    }

    fn parse_f_expr(src: &str) -> Expr {
        let mut c = Cursor::new(lex(src, LexMode::Fortran).unwrap());
        expr(&mut c, IndexStyle::Paren).unwrap()
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_c_expr("1 + 2 * 3");
        match e {
            Expr::Bin(BinOp::Add, _, rhs, _) => {
                assert!(matches!(*rhs, Expr::Bin(BinOp::Mul, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn left_associativity() {
        // 10 - 3 - 2 must parse as (10 - 3) - 2.
        let e = parse_c_expr("10 - 3 - 2");
        match e {
            Expr::Bin(BinOp::Sub, lhs, _, _) => {
                assert!(matches!(*lhs, Expr::Bin(BinOp::Sub, _, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parens_override() {
        let e = parse_c_expr("(1 + 2) * 3");
        assert!(matches!(e, Expr::Bin(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn c_bracket_indexing_chains() {
        let e = parse_c_expr("u[i][j][k]");
        match e {
            Expr::Index(name, subs, _) => {
                assert_eq!(name, "u");
                assert_eq!(subs.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn c_call_in_expression() {
        let e = parse_c_expr("f(x, 1)");
        assert!(matches!(e, Expr::Call(_, _, _)));
    }

    #[test]
    fn fortran_paren_index_or_call() {
        let e = parse_f_expr("a(i, j+1)");
        match e {
            Expr::Index(name, subs, _) => {
                assert_eq!(name, "a");
                assert_eq!(subs.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fortran_relational_dotted() {
        let e = parse_f_expr("i .le. n .and. j .ge. 1");
        assert!(matches!(e, Expr::Bin(BinOp::And, _, _, _)));
    }

    #[test]
    fn unary_minus_binds_tight() {
        let e = parse_c_expr("-x + 1");
        assert!(matches!(e, Expr::Bin(BinOp::Add, _, _, _)));
    }

    #[test]
    fn address_of_is_transparent() {
        let e = parse_c_expr("&x");
        assert!(matches!(e, Expr::Var(_, _)));
    }

    #[test]
    fn error_on_missing_operand() {
        let toks = lex("1 +", LexMode::C).unwrap();
        let mut c = Cursor::new(toks);
        assert!(expr(&mut c, IndexStyle::Bracket).is_err());
    }

    #[test]
    fn cursor_helpers() {
        let toks = lex("do i = 1", LexMode::Fortran).unwrap();
        let mut c = Cursor::new(toks);
        assert!(c.at_kw("do"));
        assert!(c.eat_kw("do"));
        assert_eq!(c.ident("name").unwrap(), "i");
        assert!(c.eat(&Tok::Assign));
        assert_eq!(c.int("bound").unwrap(), 1);
        c.skip_newlines();
        assert!(c.at_eof());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let depth = 5000;
        let src = format!("{}x{}", "(".repeat(depth), ")".repeat(depth));
        let toks = lex(&src, LexMode::C).unwrap();
        let mut c = Cursor::new(toks);
        let err = expr(&mut c, IndexStyle::Bracket).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn deep_unary_chain_errors_instead_of_overflowing() {
        let src = format!("{}x", "!".repeat(5000));
        let toks = lex(&src, LexMode::C).unwrap();
        let mut c = Cursor::new(toks);
        let err = expr(&mut c, IndexStyle::Bracket).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }

    #[test]
    fn negative_int_helper() {
        let toks = lex("-42", LexMode::C).unwrap();
        let mut c = Cursor::new(toks);
        assert_eq!(c.int("n").unwrap(), -42);
    }
}
