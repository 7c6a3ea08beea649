//! Body literals: atoms, negated atoms, comparisons and aggregates.

use crate::atom::Atom;
use crate::term::Term;
use crate::value::Value;
use std::fmt;

/// A comparison operator for built-in literals and aggregate thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompOp {
    /// `=`
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

impl CompOp {
    /// Evaluates the comparison on two concrete values.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CompOp::Eq => a == b,
            CompOp::Ne => a != b,
            CompOp::Lt => a < b,
            CompOp::Le => a <= b,
            CompOp::Gt => a > b,
            CompOp::Ge => a >= b,
        }
    }

    /// The operator with its arguments swapped: `a op b ⇔ b op.flip() a`.
    pub fn flip(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Eq,
            CompOp::Ne => CompOp::Ne,
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Gt => CompOp::Lt,
            CompOp::Ge => CompOp::Le,
        }
    }

    /// The negated operator: `¬(a op b) ⇔ a op.negate() b`.
    pub fn negate(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Ne,
            CompOp::Ne => CompOp::Eq,
            CompOp::Lt => CompOp::Ge,
            CompOp::Le => CompOp::Gt,
            CompOp::Gt => CompOp::Le,
            CompOp::Ge => CompOp::Lt,
        }
    }

    /// True for operators whose truth is *antitone* in the left argument
    /// when that argument grows (i.e. `<` and `<=`). Used by the aggregate
    /// `After` rule to decide whether over-approximating case splits stay
    /// exact (see `xic-simplify::aggregate`).
    pub fn is_upper_bound(self) -> bool {
        matches!(self, CompOp::Lt | CompOp::Le)
    }

    /// True for `>` and `>=`.
    pub fn is_lower_bound(self) -> bool {
        matches!(self, CompOp::Gt | CompOp::Ge)
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// An aggregate function (Section 3.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `Cnt`: number of distinct bindings of the pattern's local variables.
    /// Relations have set semantics, so this counts matching join results.
    Cnt,
    /// `Cnt_D`: number of distinct values of the counted term (or distinct
    /// local bindings when no counted term is given, which coincides with
    /// `Cnt` under set semantics).
    CntD,
    /// `Sum` of the aggregated term over all bindings.
    Sum,
    /// `Max` of the aggregated term; the aggregate literal is unsatisfied
    /// when the pattern has no bindings.
    Max,
    /// `Min` of the aggregated term; unsatisfied on empty patterns.
    Min,
}

impl AggFunc {
    /// True if the function requires an aggregated term (`Sum`, `Max`,
    /// `Min`); `Cnt`/`Cnt_D` may omit it.
    pub fn needs_term(self) -> bool {
        matches!(self, AggFunc::Sum | AggFunc::Max | AggFunc::Min)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Cnt => "cnt",
            AggFunc::CntD => "cntd",
            AggFunc::Sum => "sum",
            AggFunc::Max => "max",
            AggFunc::Min => "min",
        };
        f.write_str(s)
    }
}

/// An aggregate expression `func(term; pattern)` over a conjunctive pattern.
///
/// Variables occurring both in `pattern` and elsewhere in the enclosing
/// denial act as *group-by* variables (the `[G1,…,Gn]` of the paper's
/// syntax); the remaining pattern variables are local and existentially
/// quantified inside the aggregate. Example 2's
/// `Cnt_D{[R]; //rev[/name/text()→R]/sub} > 10` maps to
/// `cntd(Is; rev(Ir,_,_,R), sub(Is,_,Ir,_)) > 10` where `R` is shared with
/// the rest of the clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Aggregate {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated/counted term, if any. Must occur in `pattern` to be
    /// meaningful.
    pub term: Option<Term>,
    /// The conjunctive pattern ranged over.
    pub pattern: Vec<Atom>,
}

impl Aggregate {
    /// Creates an aggregate expression.
    pub fn new(func: AggFunc, term: Option<Term>, pattern: Vec<Atom>) -> Aggregate {
        Aggregate { func, term, pattern }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func)?;
        if let Some(t) = &self.term {
            write!(f, "{t}")?;
        }
        write!(f, "; ")?;
        for (i, a) in self.pattern.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A literal in a denial body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A positive database atom.
    Pos(Atom),
    /// A negated database atom (safe negation: its variables must be bound
    /// by positive literals).
    Neg(Atom),
    /// A built-in comparison between two terms.
    Comp(Term, CompOp, Term),
    /// An aggregate comparison `agg(…) op term`.
    Agg(Aggregate, CompOp, Term),
}

impl Literal {
    /// Convenience constructor for an equality literal.
    pub fn eq(a: Term, b: Term) -> Literal {
        Literal::Comp(a, CompOp::Eq, b)
    }

    /// Convenience constructor for a disequality literal.
    pub fn ne(a: Term, b: Term) -> Literal {
        Literal::Comp(a, CompOp::Ne, b)
    }

    /// Every term of this literal, in the order [`fmt::Display`] prints
    /// them: an aggregate's counted term, its pattern's arguments, then its
    /// threshold. The one walk over a literal's terms.
    pub fn terms(&self) -> impl Iterator<Item = &Term> {
        let (head, atoms, tail) = match self {
            Literal::Pos(a) | Literal::Neg(a) => (None, std::slice::from_ref(a), None),
            Literal::Comp(x, _, y) => (Some(x), &[][..], Some(y)),
            Literal::Agg(g, _, t) => (g.term.as_ref(), &g.pattern[..], Some(t)),
        };
        head.into_iter().chain(atoms.iter().flat_map(|a| &a.args)).chain(tail)
    }

    /// [`Literal::terms`], mutably.
    pub fn terms_mut(&mut self) -> impl Iterator<Item = &mut Term> {
        let (head, atoms, tail) = match self {
            Literal::Pos(a) | Literal::Neg(a) => (None, std::slice::from_mut(a), None),
            Literal::Comp(x, _, y) => (Some(x), &mut [][..], Some(y)),
            Literal::Agg(g, _, t) => (g.term.as_mut(), &mut g.pattern[..], Some(t)),
        };
        head.into_iter().chain(atoms.iter_mut().flat_map(|a| &mut a.args)).chain(tail)
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Comp(a, op, b) => write!(f, "{a} {op} {b}"),
            Literal::Agg(agg, op, t) => write!(f, "{agg} {op} {t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compop_eval() {
        let a = Value::from(3);
        let b = Value::from(5);
        assert!(CompOp::Lt.eval(&a, &b));
        assert!(CompOp::Le.eval(&a, &b));
        assert!(CompOp::Ne.eval(&a, &b));
        assert!(!CompOp::Eq.eval(&a, &b));
        assert!(!CompOp::Gt.eval(&a, &b));
        assert!(CompOp::Ge.eval(&b, &a));
    }

    #[test]
    fn compop_flip_negate_roundtrip() {
        for op in [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
            // flip is semantically the converse.
            let a = Value::from(1);
            let b = Value::from(2);
            assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a));
            assert_eq!(op.eval(&a, &b), !op.negate().eval(&a, &b));
        }
    }

    #[test]
    fn terms_come_in_display_order() {
        let agg = Aggregate::new(
            AggFunc::CntD,
            Some(Term::var("Is")),
            vec![
                Atom::new("rev", vec![Term::var("Ir"), Term::var("R")]),
                Atom::new("sub", vec![Term::var("Is"), Term::var("Ir")]),
            ],
        );
        let mut l = Literal::Agg(agg, CompOp::Gt, Term::int(3));
        let names: Vec<String> = l.terms().map(Term::to_string).collect();
        assert_eq!(names, ["Is", "Ir", "R", "Is", "Ir", "3"]);
        for t in l.terms_mut() {
            *t = Term::param(t.to_string());
        }
        assert_eq!(l.to_string(), "cntd($Is; rev($Ir, $R), sub($Is, $Ir)) > $3");
    }

    #[test]
    fn literal_terms_and_display() {
        let l = Literal::Comp(Term::var("X"), CompOp::Ne, Term::var("Y"));
        assert_eq!(l.terms().collect::<Vec<_>>(), [&Term::var("X"), &Term::var("Y")]);
        assert_eq!(l.to_string(), "X != Y");
        let n = Literal::Neg(Atom::new("p", vec![Term::var("Z")]));
        assert_eq!(n.to_string(), "not p(Z)");
    }
}
