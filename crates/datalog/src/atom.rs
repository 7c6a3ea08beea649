//! Relational atoms.

use crate::term::Term;
use std::fmt;

/// A relational atom `pred(t1, …, tn)`.
///
/// In the XML mapping of Section 4, every predicate's first three columns
/// are, by convention, the node id, the position among siblings, and the
/// parent node id; remaining columns hold compacted PCDATA children (e.g.
/// `rev(Id, Pos, IdParent, Name)`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(pred: impl Into<String>, args: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            args,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let a = Atom::new("rev", vec![Term::var("Ir"), Term::param("n"), Term::str("s")]);
        assert_eq!(a.to_string(), "rev(Ir, $n, \"s\")");
    }
}
