//! A compact text syntax for denials and updates, used by tests, examples
//! and documentation.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! denials  := denial ('.' denial)* '.'?
//! denial   := '<-' literal ('&' literal)*
//! literal  := 'not' atom
//!           | aggfn '(' [term] ';' atom (',' atom)* ')' cmp term
//!           | term cmp term
//!           | atom
//! atom     := ident '(' term (',' term)* ')'
//! term     := UPPER_IDENT            -- variable
//!           | '_'                    -- fresh anonymous variable
//!           | '$' ident              -- parameter
//!           | lower_ident            -- string constant (Datalog style)
//!           | '"' chars '"'          -- string constant
//!           | ['-'] digits           -- integer constant
//! cmp      := '=' | '!=' | '<' | '<=' | '>' | '>='
//! aggfn    := 'cnt' | 'cntd' | 'sum' | 'max' | 'min'
//! update   := '{' ['-'] atom (',' ['-'] atom)* '}'   -- '-' marks a removal
//! ```
//!
//! Example — the paper's Example 3 (conflict of interests):
//!
//! ```
//! use xic_datalog::parse_denials;
//! let gamma = parse_denials(
//!     "<- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,R).
//!      <- rev(Ir,_,_,R) & sub(Is,_,Ir,_) & auts(_,_,Is,A)
//!         & aut(_,_,Ip,R) & aut(_,_,Ip,A).",
//! ).unwrap();
//! assert_eq!(gamma.len(), 2);
//! ```

use crate::atom::Atom;
use crate::denial::Denial;
use crate::literal::{AggFunc, Aggregate, CompOp, Literal};
use crate::term::Term;
use crate::value::Value;
use crate::Update;
use std::fmt;

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a single denial.
pub fn parse_denial(input: &str) -> Result<Denial, ParseError> {
    let mut p = Parser::new(input);
    let d = p.denial()?;
    p.skip_ws();
    p.eat_opt(".");
    p.expect_eof()?;
    Ok(d)
}

/// Parses a `.`-separated list of denials.
pub fn parse_denials(input: &str) -> Result<Vec<Denial>, ParseError> {
    let mut p = Parser::new(input);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.at_eof() {
            break;
        }
        out.push(p.denial()?);
        p.skip_ws();
        if !p.eat_opt(".") {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parses an update transaction `{atom, -atom, …}` (constants and
/// parameters only; a `-` marks a removal).
pub fn parse_update(input: &str) -> Result<Update, ParseError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    p.expect("{")?;
    let (mut atoms, mut removals) = (Vec::new(), Vec::new());
    loop {
        p.skip_ws();
        if p.eat_opt("-") {
            removals.push(p.atom()?);
        } else {
            atoms.push(p.atom()?);
        }
        p.skip_ws();
        if !p.eat_opt(",") {
            break;
        }
    }
    p.skip_ws();
    p.expect("}")?;
    p.expect_eof()?;
    for a in removals.iter().chain(&atoms) {
        for t in &a.args {
            if t.is_var() {
                return Err(ParseError {
                    offset: 0,
                    message: format!("update atom {a} contains a variable"),
                });
            }
        }
    }
    Ok(Update::modification(removals, atoms))
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    anon: u32,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            anon: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn eat_opt(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat_opt(s) {
            Ok(())
        } else {
            self.err(format!("expected {s:?}"))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.at_eof() {
            Ok(())
        } else {
            self.err("unexpected trailing input")
        }
    }

    fn ident(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_ascii_alphabetic() || c == '_'
            } else {
                c.is_ascii_alphanumeric() || c == '_'
            };
            if ok {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            None
        } else {
            let s = &rest[..end];
            self.pos += end;
            Some(s)
        }
    }

    fn comp_op(&mut self) -> Option<CompOp> {
        self.skip_ws();
        for (tok, op) in [
            ("!=", CompOp::Ne),
            ("<=", CompOp::Le),
            (">=", CompOp::Ge),
            ("=", CompOp::Eq),
            ("<", CompOp::Lt),
            (">", CompOp::Gt),
        ] {
            if self.eat_opt(tok) {
                return Some(op);
            }
        }
        None
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let Some(c) = rest.chars().next() else {
            return self.err("expected term, found end of input");
        };
        match c {
            '$' => {
                self.pos += 1;
                match self.ident() {
                    Some(name) => Ok(Term::param(name)),
                    None => self.err("expected parameter name after $"),
                }
            }
            '"' => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    let Some(c) = self.rest().chars().next() else {
                        return self.err("unterminated string literal");
                    };
                    self.pos += c.len_utf8();
                    match c {
                        '"' => break,
                        '\\' => {
                            let Some(e) = self.rest().chars().next() else {
                                return self.err("dangling escape");
                            };
                            self.pos += e.len_utf8();
                            s.push(match e {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                        }
                        other => s.push(other),
                    }
                }
                Ok(Term::Const(Value::Str(s)))
            }
            '-' | '0'..='9' => {
                let neg = c == '-';
                if neg {
                    self.pos += 1;
                }
                let start = self.pos;
                while self
                    .rest()
                    .chars()
                    .next()
                    .is_some_and(|d| d.is_ascii_digit())
                {
                    self.pos += 1;
                }
                if self.pos == start {
                    return self.err("expected digits");
                }
                let digits = &self.input[start..self.pos];
                match digits.parse::<i64>() {
                    Ok(n) => Ok(Term::int(if neg { -n } else { n })),
                    Err(_) => self.err("integer literal out of range"),
                }
            }
            '_' => {
                // `_` alone is anonymous; `_foo` is a named variable.
                let ident = self.ident().expect("starts with _");
                if ident == "_" {
                    let n = self.anon;
                    self.anon += 1;
                    Ok(Term::var(format!("_{n}")))
                } else {
                    Ok(Term::var(ident))
                }
            }
            c if c.is_ascii_uppercase() => {
                let ident = self.ident().expect("starts with letter");
                Ok(Term::var(ident))
            }
            c if c.is_ascii_lowercase() => {
                let ident = self.ident().expect("starts with letter");
                Ok(Term::str(ident))
            }
            other => self.err(format!("unexpected character {other:?} in term")),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        self.skip_ws();
        let Some(name) = self.ident() else {
            return self.err("expected predicate name");
        };
        self.expect("(")?;
        let mut args = Vec::new();
        self.skip_ws();
        if !self.eat_opt(")") {
            loop {
                args.push(self.term()?);
                self.skip_ws();
                if self.eat_opt(")") {
                    break;
                }
                self.expect(",")?;
            }
        }
        Ok(Atom::new(name, args))
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        self.skip_ws();
        // `not atom`
        let save = self.pos;
        if let Some(id) = self.ident() {
            if id == "not" {
                let a = self.atom()?;
                return Ok(Literal::Neg(a));
            }
            let agg = match id {
                "cnt" => Some(AggFunc::Cnt),
                "cntd" => Some(AggFunc::CntD),
                "sum" => Some(AggFunc::Sum),
                "max" => Some(AggFunc::Max),
                "min" => Some(AggFunc::Min),
                _ => None,
            };
            if let Some(func) = agg {
                if self.rest().trim_start().starts_with('(') {
                    self.expect("(")?;
                    self.skip_ws();
                    let term = if self.rest().starts_with(';') {
                        None
                    } else {
                        Some(self.term()?)
                    };
                    self.expect(";")?;
                    let mut pattern = Vec::new();
                    loop {
                        pattern.push(self.atom()?);
                        self.skip_ws();
                        if !self.eat_opt(",") {
                            break;
                        }
                    }
                    self.expect(")")?;
                    let Some(op) = self.comp_op() else {
                        return self.err("expected comparison after aggregate");
                    };
                    let threshold = self.term()?;
                    if func.needs_term() && term.is_none() {
                        return self.err(format!("{func} requires an aggregated term"));
                    }
                    return Ok(Literal::Agg(
                        Aggregate::new(func, term, pattern),
                        op,
                        threshold,
                    ));
                }
            }
            // Plain atom `ident(...)`?
            if self.rest().trim_start().starts_with('(') {
                self.pos = save;
                let a = self.atom()?;
                return Ok(Literal::Pos(a));
            }
            // Fall through: it was a term; rewind and parse a comparison.
            self.pos = save;
        }
        let lhs = self.term()?;
        let Some(op) = self.comp_op() else {
            return self.err("expected comparison operator");
        };
        let rhs = self.term()?;
        Ok(Literal::Comp(lhs, op, rhs))
    }

    fn denial(&mut self) -> Result<Denial, ParseError> {
        self.expect("<-")?;
        self.skip_ws();
        if self.eat_opt("true") {
            return Ok(Denial::always_violated());
        }
        let mut body = vec![self.literal()?];
        loop {
            self.skip_ws();
            if self.eat_opt("&") {
                body.push(self.literal()?);
            } else {
                break;
            }
        }
        Ok(Denial::new(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let d = parse_denial("<- p(X, Y) & p(X, Z) & Y != Z").unwrap();
        assert_eq!(d.to_string(), "<- p(X, Y) & p(X, Z) & Y != Z");
    }

    fn distinct_vars(d: &Denial) -> usize {
        let vars: std::collections::HashSet<_> =
            d.body.iter().flat_map(Literal::terms).filter_map(Term::as_var).collect();
        vars.len()
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let d = parse_denial("<- p(_, _) & q(_)").unwrap();
        assert_eq!(distinct_vars(&d), 3, "each _ must be a distinct variable");
    }

    #[test]
    fn underscore_prefixed_names_are_one_variable() {
        let d = parse_denial("<- p(_x, _x)").unwrap();
        assert_eq!(distinct_vars(&d), 1);
    }

    #[test]
    fn constants_and_params() {
        let d = parse_denial("<- pub($i, 2, -3, \"A \\\"quoted\\\" title\") & x(goofy)").unwrap();
        let s = d.to_string();
        assert!(s.contains("$i"), "{s}");
        assert!(s.contains("-3"), "{s}");
        assert!(s.contains("A \\\"quoted\\\" title") || s.contains("quoted"), "{s}");
        assert!(s.contains("\"goofy\""), "{s}");
    }

    #[test]
    fn aggregate_literals() {
        let d = parse_denial("<- rev(Ir,_,_,_) & cntd(; sub(_,_,Ir,_)) > 4").unwrap();
        assert!(matches!(d.body[1], Literal::Agg(_, CompOp::Gt, _)));
        let d2 = parse_denial("<- cntd(T; r(T,R)) >= 3 & cntd(S; s(S,R)) > 10").unwrap();
        assert_eq!(d2.body.len(), 2);
    }

    #[test]
    fn sum_requires_term() {
        let e = parse_denial("<- sum(; m(_,V)) > 0").unwrap_err();
        assert!(e.message.contains("requires"), "{e}");
    }

    #[test]
    fn multiple_denials_with_trailing_dot() {
        let ds = parse_denials("<- p(X). <- q(X) & r(X).").unwrap();
        assert_eq!(ds.len(), 2);
        let ds2 = parse_denials("<- p(X)").unwrap();
        assert_eq!(ds2.len(), 1);
    }

    #[test]
    fn empty_input_is_empty_set() {
        assert_eq!(parse_denials("   ").unwrap().len(), 0);
    }

    #[test]
    fn update_syntax() {
        let u = parse_update("{sub($is, 7, 123, \"Taming Web Services\"), auts($ia, 2, $is, \"Jack\")}")
            .unwrap();
        assert_eq!(u.additions.len(), 2);
        assert_eq!(u.additions[0].pred, "sub");
    }

    #[test]
    fn update_rejects_vars() {
        let e = parse_update("{p(X)}").unwrap_err();
        assert!(e.message.contains("variable"), "{e}");
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse_denial("<- p(X) & ").unwrap_err();
        assert!(e.offset > 0);
        assert!(parse_denial("p(X)").is_err(), "missing <- must fail");
        assert!(parse_denial("<- p(X) extra").is_err());
        assert!(parse_denial("<- p(X").is_err());
        assert!(parse_denial("<- \"unterminated").is_err());
    }

    #[test]
    fn true_denial() {
        let d = parse_denial("<- true").unwrap();
        assert!(d.body.is_empty());
    }

    #[test]
    fn zero_arity_atom() {
        let d = parse_denial("<- flag()").unwrap();
        assert_eq!(d.to_string(), "<- flag()");
    }

    #[test]
    fn comparison_only_denial() {
        let d = parse_denial("<- $a = $b").unwrap();
        assert_eq!(d.body.len(), 1);
    }
}
