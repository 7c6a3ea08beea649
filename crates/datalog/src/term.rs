//! Terms: variables, constants and parameters.

use crate::denial::Denial;
use crate::literal::Literal;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A variable: the name it was written or mapped under (its *stem*) and,
/// for a copy made of it, which copy. Equality, hashing and ordering look
/// at these parts, never at a spelling; [`fmt::Display`] is the one place
/// a name is spelled, and [`Var::new`] reads one back: the two are
/// inverse, so two variables are equal iff they print alike, and they
/// order as their names do as text (`X__10` before `X__9`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Var {
    stem: Arc<str>,
    gen: Option<Gen>,
}

/// Which copy of its stem a variable is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Gen {
    /// A copy [`VarGen::fresh`] made, spelled
    /// `{stem}__{n}`.
    Fresh(u32),
    /// An aggregate-local copy renamed apart from the clause around it,
    /// spelled `{stem}__ag{n}`.
    Apart(u32),
}

impl Var {
    /// The variable spelled `name`: a trailing `__{n}` or `__ag{n}` (`n` a
    /// decimal `u32` without leading zeros) is read as the copy it names.
    pub fn new(name: &str) -> Var {
        let copy = name.rfind("__").and_then(|at| {
            let tail = &name[at + 2..];
            let (digits, gen): (_, fn(u32) -> Gen) = match tail.strip_prefix("ag") {
                Some(digits) => (digits, Gen::Apart),
                None => (tail, Gen::Fresh),
            };
            let canonical = digits.bytes().all(|b| b.is_ascii_digit())
                && (digits == "0" || !digits.starts_with('0'));
            let n = digits.parse().ok().filter(|_| canonical)?;
            Some((&name[..at], gen(n)))
        });
        match copy {
            Some((stem, gen)) => Var { stem: stem.into(), gen: Some(gen) },
            None => Var { stem: name.into(), gen: None },
        }
    }

    fn copy(&self, gen: Gen) -> Var {
        Var { stem: Arc::clone(&self.stem), gen: Some(gen) }
    }

    /// The `n`-th aggregate-local copy of this variable, spelled
    /// `{self}__ag{n}`; `self` must be a plain name, not a copy.
    pub fn apart(&self, n: u32) -> Var {
        debug_assert!(self.gen.is_none(), "{self} is already a copy");
        self.copy(Gen::Apart(n))
    }

    /// The name's bytes, as [`fmt::Display`] writes them.
    fn spelled(&self) -> impl Iterator<Item = u8> + '_ {
        let (marker, n): (&[u8], _) = match self.gen {
            None => (b"", None),
            Some(Gen::Fresh(n)) => (b"__", Some(n)),
            Some(Gen::Apart(n)) => (b"__ag", Some(n)),
        };
        let digits = n.into_iter().flat_map(|n| {
            let width = n.checked_ilog10().unwrap_or(0);
            (0..=width).rev().map(move |i| b'0' + (n / 10u32.pow(i) % 10) as u8)
        });
        self.stem.bytes().chain(marker.iter().copied()).chain(digits)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.stem)?;
        match self.gen {
            None => Ok(()),
            Some(Gen::Fresh(n)) => write!(f, "__{n}"),
            Some(Gen::Apart(n)) => write!(f, "__ag{n}"),
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self}\"")
    }
}

impl Ord for Var {
    fn cmp(&self, other: &Var) -> Ordering {
        self.spelled().cmp(other.spelled())
    }
}

impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Var) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<&str> for Var {
    fn from(name: &str) -> Var {
        Var::new(name)
    }
}

impl From<String> for Var {
    fn from(name: String) -> Var {
        Var::new(&name)
    }
}

impl PartialEq<str> for Var {
    fn eq(&self, name: &str) -> bool {
        self.spelled().eq(name.bytes())
    }
}

impl PartialEq<&str> for Var {
    fn eq(&self, name: &&str) -> bool {
        *self == **name
    }
}

impl PartialEq<Var> for &str {
    fn eq(&self, var: &Var) -> bool {
        *var == **self
    }
}

/// A generator of fresh variables: copies of their stems numbered from
/// one counter, so clauses renamed with the same generator never share
/// variables.
#[derive(Debug, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// A generator whose variables are fresh in `denials`: it starts past
    /// every generation they hold, and past one number per distinct
    /// variable of each denial — where the numbering of every compiled
    /// pattern has always started.
    pub fn above(denials: &[Denial]) -> VarGen {
        let (mut next, mut top) = (0, 0);
        for d in denials {
            let mut vars: Vec<&Var> = Vec::new();
            for v in d.body.iter().flat_map(Literal::terms).filter_map(Term::as_var) {
                if let Some(Gen::Fresh(n)) = v.gen {
                    top = top.max(n + 1);
                }
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            next += vars.len() as u32;
        }
        VarGen { next: next.max(top) }
    }

    /// A fresh copy of `base`'s stem.
    pub fn fresh(&mut self, base: &Var) -> Var {
        let fresh = base.copy(Gen::Fresh(self.next));
        self.next += 1;
        fresh
    }
}

/// A Datalog term.
///
/// There are no function symbols: the Herbrand universe is flat, which keeps
/// unification and θ-subsumption decidable by simple backtracking and makes
/// the simplification procedure trivially terminating (Section 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable, implicitly universally quantified in a denial.
    Var(Var),
    /// A constant value.
    Const(Value),
    /// A *parameter*: a placeholder for a constant that becomes known only
    /// at update time (the boldface symbols of the paper). During
    /// simplification a parameter behaves like a constant distinct from
    /// every other constant name-wise, except that its actual value is
    /// unknown — so `$a = "x"` cannot be decided at compile time.
    Param(String),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<Var>) -> Term {
        Term::Var(name.into())
    }

    /// Convenience constructor for a parameter term.
    pub fn param(name: impl Into<String>) -> Term {
        Term::Param(name.into())
    }

    /// Convenience constructor for an integer constant.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// Convenience constructor for a string constant.
    pub fn str(s: impl Into<String>) -> Term {
        Term::Const(Value::Str(s.into()))
    }

    /// True if this term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// True if this term is a constant or a parameter — i.e. rigid under
    /// substitution.
    pub fn is_rigid(&self) -> bool {
        matches!(self, Term::Const(_) | Term::Param(_))
    }

    /// The variable, if this is one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
            Term::Param(p) => write!(f, "${p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_and_predicates() {
        assert!(Term::var("X").is_var());
        assert!(!Term::int(1).is_var());
        assert!(Term::int(1).is_rigid());
        assert!(Term::param("a").is_rigid());
        assert!(!Term::var("X").is_rigid());
        assert_eq!(Term::var("X").as_var(), Some(&Var::new("X")));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::var("X").to_string(), "X");
        assert_eq!(Term::param("ir").to_string(), "$ir");
        assert_eq!(Term::str("t").to_string(), "\"t\"");
        assert_eq!(Term::int(7).to_string(), "7");
    }

    #[test]
    fn a_name_is_read_as_the_copy_it_spells() {
        assert_eq!(Var::new("X__4"), Var::new("X").copy(Gen::Fresh(4)));
        assert_eq!(Var::new("R__ag0"), Var::new("R").apart(0));
        let plain = ["X__", "X__04", "X__ag", "X__ag01", "X__+4", "X__99999999999", "_m0", "X_4"];
        for plain in plain {
            assert_eq!(Var::new(plain).gen, None, "{plain}");
        }
    }

    #[test]
    fn var_gen_names_are_fresh() {
        let mut g = VarGen::above(&[]);
        let names = ["X", "X", "X__0", "Y"].map(|n| g.fresh(&Var::new(n)));
        assert_eq!(names, ["X__0", "X__1", "X__2", "Y__3"]);
        // Three variables, so past 3 — and past every generation present.
        let above =
            |src: &str| VarGen::above(&[crate::parse_denial(src).unwrap()]).fresh(&Var::new("Z"));
        assert_eq!(above("<- p(X, Y__1) & q(Z)"), "Z__3");
        assert_eq!(above("<- p(X, Y__6) & q(Z, X)"), "Z__7");
        assert_eq!(above("<- p(X, Y__ag9)"), "Z__2");
    }

    /// A variable built the ways the pipeline builds one: a written or
    /// mapped name, then perhaps a copy of it.
    fn var() -> impl Strategy<Value = Var> {
        let stems = ["Paper", "_b", "Ir", "R__ag0", "X", "X_", "_m1", "X__04"];
        let stem = prop::sample::select(&stems[..]);
        (stem, 0..4u8, 0..=12u32).prop_map(|(stem, how, n)| match how {
            0 => Var::new(stem),
            1 => Var::new(stem).copy(Gen::Fresh(n)),
            2 => Var::new(stem).copy(Gen::Apart(n)),
            _ => Var::new(&format!("{stem}__{n}")),
        })
    }

    proptest! {
        #[test]
        fn a_var_round_trips_through_its_name(v in var(), w in var()) {
            let (a, b) = (v.to_string(), w.to_string());
            prop_assert_eq!(&Var::new(&a), &v);
            prop_assert_eq!(a == b, v == w, "{} and {} print alike iff equal", a, b);
            prop_assert_eq!(v.cmp(&w), a.cmp(&b), "{} vs {}", a, b);
            prop_assert!(v == *a && a.as_str() == v);
        }

        #[test]
        fn the_parser_reads_back_what_display_writes(v in var()) {
            let d = crate::parse_denial(&format!("<- p({v})")).unwrap();
            prop_assert_eq!(d.body[0].terms().next(), Some(&Term::Var(v)));
        }
    }
}
