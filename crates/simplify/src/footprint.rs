//! Static read/write footprints for update/constraint independence.
//!
//! A constraint's **read footprint** is the set of relations its denial
//! bodies mention, with a per-relation mask of the argument columns whose
//! *values* influence the verdict. An update's **write footprint** is the
//! set of relations whose tuple membership it may change, the individual
//! `(relation, column)` cells whose values it may overwrite, and the
//! relations whose `Pos` column may shift. Two footprints that do not
//! intersect prove the update cannot change the constraint's verdict —
//! given a Σ-consistent pre-state (the paper's Theorem 1 premise, which
//! the optimized strategy already assumes), the post-state check for
//! that constraint can be skipped outright.
//!
//! The intersection has a polarity. A denial that reads a relation only
//! through positive atoms and lower-bounded counts (`cnt … > k`,
//! `cntd … >= k`) is *monotone* in it: a violation over fewer tuples is
//! already a violation over the pre-state. So a relation an update only
//! deleted from ([`WriteSet::removed`]) keeps live only the denials that
//! are [shrink-sensitive](ReadFootprint::shrink_sensitive) to it, through
//! a negated atom or any other aggregate comparison.
//!
//! Everything here is a *sound over-approximation*: whenever a shape is
//! not recognized, the footprint inflates ([`ReadFootprint::unsound`] /
//! [`WriteFootprint::All`]) and the intersection reports an overlap, so
//! the caller falls back to checking everything.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use xic_datalog::{AggFunc, Atom, Denial, Literal, Term, Update, Var};

/// Column index of the `Pos` argument in every shredded relation
/// (`(Id, Pos, IdParent, col…)` — see `xic_mapping::shred`).
pub const POS_COL: usize = 1;

/// The relations (and columns) one denial reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadFootprint {
    /// Relation name → argument columns whose values are read. A relation
    /// appearing as a key at all means the denial's verdict is sensitive
    /// to that relation's *tuple membership* (insertions/removals),
    /// whatever the column mask says.
    rels: BTreeMap<String, BTreeSet<usize>>,
    /// Relations whose tuples the denial reads under a negation or inside
    /// an aggregate other than a lower-bounded count: removing tuples
    /// from one of them can create a violation.
    shrink: BTreeSet<String>,
}

impl ReadFootprint {
    /// The footprint that reads everything (conservative fallback).
    pub fn unsound() -> ReadFootprint {
        let mut rels = BTreeMap::new();
        rels.insert(ALL_RELS.to_string(), BTreeSet::new());
        ReadFootprint { rels, shrink: BTreeSet::new() }
    }

    /// True if this is the reads-everything fallback.
    pub fn is_unsound(&self) -> bool {
        self.rels.contains_key(ALL_RELS)
    }

    /// True if the denial's verdict is sensitive to tuple membership of
    /// `rel`.
    pub fn mentions(&self, rel: &str) -> bool {
        self.is_unsound() || self.rels.contains_key(rel)
    }

    /// True if deleting tuples of `rel` alone can violate the denial: it
    /// reads `rel` under `not`, or inside an aggregate literal that is not
    /// a `cnt`/`cntd` compared with `>` or `>=`.
    pub fn shrink_sensitive(&self, rel: &str) -> bool {
        self.is_unsound() || self.shrink.contains(rel)
    }

    /// True if the denial reads the value of column `col` of `rel`.
    pub fn reads_cell(&self, rel: &str, col: usize) -> bool {
        self.is_unsound()
            || self.rels.get(rel).is_some_and(|cols| cols.contains(&col))
    }

    /// The relations this footprint mentions (empty for the unsound
    /// fallback — use [`ReadFootprint::is_unsound`] first).
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().filter(|r| r.as_str() != ALL_RELS).map(String::as_str)
    }
}

/// Pseudo-relation marking the reads-everything fallback.
const ALL_RELS: &str = "\u{0}all";

/// Extracts the read footprint of one denial.
///
/// Per atom (positive, negative, or inside an aggregate pattern), the
/// relation is recorded as membership-sensitive. A column's *value* is
/// read when its term is a constant or parameter (selection), or a
/// variable that occurs more than once across the whole body (join,
/// comparison, or aggregated term) — a variable occurring exactly once
/// is a wildcard whose value cannot influence satisfiability.
///
/// An atom under `not`, or inside an aggregate literal that is not a
/// `cnt`/`cntd` compared with `>` or `>=`, also makes the denial
/// shrink-sensitive to its relation.
pub fn read_footprint(denial: &Denial) -> ReadFootprint {
    let mut occurrences: HashMap<&Var, usize> = HashMap::new();
    for v in denial.body.iter().flat_map(Literal::terms).filter_map(Term::as_var) {
        *occurrences.entry(v).or_insert(0) += 1;
    }
    let shared = |t: &Term| match t {
        Term::Var(v) => occurrences.get(v).copied().unwrap_or(0) > 1,
        Term::Const(_) | Term::Param(_) => true,
    };
    let mut fp = ReadFootprint::default();
    fn record(
        fp: &mut ReadFootprint,
        a: &Atom,
        shared: &dyn Fn(&Term) -> bool,
        aggregated: Option<&Term>,
    ) {
        let cols = fp.rels.entry(a.pred.clone()).or_default();
        for (i, t) in a.args.iter().enumerate() {
            let is_agg = aggregated.is_some_and(|at| at == t && matches!(t, Term::Var(_)));
            if shared(t) || is_agg {
                cols.insert(i);
            }
        }
    }
    for lit in &denial.body {
        match lit {
            Literal::Pos(a) => record(&mut fp, a, &shared, None),
            Literal::Neg(a) => {
                record(&mut fp, a, &shared, None);
                fp.shrink.insert(a.pred.clone());
            }
            Literal::Comp(..) => {}
            Literal::Agg(agg, op, _) => {
                // The aggregated term's value is read even if its
                // variable occurs nowhere else (Sum/Max/Min aggregate
                // over it), so force those columns on.
                let monotone =
                    matches!(agg.func, AggFunc::Cnt | AggFunc::CntD) && op.is_lower_bound();
                for a in &agg.pattern {
                    record(&mut fp, a, &shared, agg.term.as_ref());
                    if !monotone {
                        fp.shrink.insert(a.pred.clone());
                    }
                }
            }
        }
    }
    fp
}

/// Extracts read footprints for a whole constraint set, in order.
pub fn read_footprints(gamma: &[Denial]) -> Vec<ReadFootprint> {
    gamma.iter().map(read_footprint).collect()
}

/// The relations (and cells) one update may write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteFootprint {
    /// Conservative fallback: may write anything; every constraint stays
    /// live.
    All,
    /// A provably bounded write set.
    Cells(WriteSet),
}

/// The bounded form of a [`WriteFootprint`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteSet {
    /// Relations that may have gained tuples (and may have lost some).
    pub existence: BTreeSet<String>,
    /// Relations that may only have lost tuples. A relation that also
    /// gained some belongs in `existence` instead.
    pub removed: BTreeSet<String>,
    /// `(relation, column)` cells whose values may be overwritten in
    /// tuples that otherwise survive.
    pub cells: BTreeSet<(String, usize)>,
    /// Relations whose `Pos` column values may shift (sibling
    /// displacement by a positional insert or a removal).
    pub pos_shift: BTreeSet<String>,
}

impl WriteSet {
    /// Restores the invariant between the two membership sets: a relation
    /// that gained tuples is listed in `existence` only, whatever the
    /// statement also removed from it.
    pub fn settle(&mut self) {
        let WriteSet { existence, removed, .. } = self;
        removed.retain(|r| !existence.contains(r));
    }
}

impl WriteFootprint {
    /// An empty (writes-nothing) footprint.
    pub fn empty() -> WriteFootprint {
        WriteFootprint::Cells(WriteSet::default())
    }

    /// Merges another footprint into this one (multi-op statements).
    pub fn union(self, other: WriteFootprint) -> WriteFootprint {
        match (self, other) {
            (WriteFootprint::All, _) | (_, WriteFootprint::All) => WriteFootprint::All,
            (WriteFootprint::Cells(mut a), WriteFootprint::Cells(b)) => {
                a.existence.extend(b.existence);
                a.removed.extend(b.removed);
                a.cells.extend(b.cells);
                a.pos_shift.extend(b.pos_shift);
                a.settle();
                WriteFootprint::Cells(a)
            }
        }
    }

    /// True if an update with this footprint can influence a constraint
    /// with read footprint `read` — the *dependence* test. `false` is a
    /// proof of independence; `true` is merely "not provably
    /// independent".
    pub fn overlaps(&self, read: &ReadFootprint) -> bool {
        if read.is_unsound() {
            return true;
        }
        match self {
            WriteFootprint::All => true,
            WriteFootprint::Cells(w) => {
                w.existence.iter().any(|r| read.mentions(r))
                    || w.removed.iter().any(|r| read.shrink_sensitive(r))
                    || w.cells.iter().any(|(r, c)| read.reads_cell(r, *c))
                    || w.pos_shift.iter().any(|r| read.reads_cell(r, POS_COL))
            }
        }
    }
}

/// The write footprint of a mapped update pattern. An added tuple changes
/// its relation's membership. A removal whose id an addition on the same
/// relation reuses is a modification of that tuple: it writes only the
/// cells whose terms differ (a text update writes one). Any other removal
/// deletes from its relation. Position displacement of existing siblings
/// is *not* covered here — callers deciding a full skip for a concrete
/// statement must use the statement-level footprint from the checker
/// layer; this form is only used to pre-filter which constraints enter
/// `Simp` at pattern-compile time, where the tuples added and removed are
/// exactly what `After` reasons about.
pub fn update_write_footprint(update: &Update) -> WriteFootprint {
    let mut w = WriteSet::default();
    let same_tuple = |r: &Atom, a: &Atom| {
        r.pred == a.pred && r.args.len() == a.args.len() && r.args.first() == a.args.first()
    };
    for r in &update.removals {
        match update.additions.iter().find(|a| same_tuple(r, a)) {
            Some(a) => {
                let changed = r.args.iter().zip(&a.args).enumerate().filter(|(_, (x, y))| x != y);
                w.cells.extend(changed.map(|(col, _)| (r.pred.clone(), col)));
            }
            None => {
                w.removed.insert(r.pred.clone());
            }
        }
    }
    for a in &update.additions {
        if !update.removals.iter().any(|r| same_tuple(r, a)) {
            w.existence.insert(a.pred.clone());
        }
    }
    w.settle();
    WriteFootprint::Cells(w)
}

/// The per-constraint live bitset for one update footprint: `live[i]` is
/// true when constraint `i` must still be checked. With `K` constraints
/// and small denials this is O(K · footprint size).
pub fn live_set(read_fps: &[ReadFootprint], write: &WriteFootprint) -> Vec<bool> {
    read_fps.iter().map(|r| write.overlaps(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_datalog::parse_denial;

    fn fp(text: &str) -> ReadFootprint {
        read_footprint(&parse_denial(text).expect("denial parses"))
    }

    #[test]
    fn membership_recorded_per_atom() {
        let f = fp("<- sub(I, P, R) & rev(R, Q, T)");
        assert!(f.mentions("sub"));
        assert!(f.mentions("rev"));
        assert!(!f.mentions("track"));
    }

    #[test]
    fn single_occurrence_vars_are_wildcards() {
        let f = fp("<- sub(I, P, R) & rev(R, Q, T)");
        // `R` joins the two atoms: column 2 of sub, column 0 of rev.
        assert!(f.reads_cell("sub", 2));
        assert!(f.reads_cell("rev", 0));
        // `I`, `P`, `Q`, `T` occur once each: wildcards.
        assert!(!f.reads_cell("sub", 0));
        assert!(!f.reads_cell("sub", 1));
        assert!(!f.reads_cell("rev", 1));
        assert!(!f.reads_cell("rev", 2));
    }

    #[test]
    fn constants_and_params_are_reads() {
        let f = fp("<- sub(I, 3, $r)");
        assert!(f.reads_cell("sub", 1));
        assert!(f.reads_cell("sub", 2));
        assert!(!f.reads_cell("sub", 0));
    }

    #[test]
    fn comparison_makes_var_shared() {
        let f = fp("<- sub(I, P, R) & P > 2");
        assert!(f.reads_cell("sub", 1));
    }

    #[test]
    fn aggregated_term_is_read() {
        // `X` occurs only inside the aggregate pattern, but Sum reads it.
        let f = fp("<- rev(I, P, T) & sum(X; sub(S, X, I)) > 5");
        assert!(f.reads_cell("sub", 1), "aggregated column is a value read");
        assert!(f.reads_cell("sub", 2), "join with outer I");
        assert!(!f.reads_cell("sub", 0), "S is a wildcard");
    }

    #[test]
    fn cnt_pattern_reads_join_columns_only() {
        let f = fp("<- rev(I, P, T) & cnt(; sub(S, X, I)) > 5");
        assert!(f.mentions("sub"));
        assert!(!f.reads_cell("sub", 0));
        assert!(!f.reads_cell("sub", 1));
        assert!(f.reads_cell("sub", 2));
    }

    #[test]
    fn negation_and_non_monotone_aggregates_are_shrink_sensitive() {
        let neg = fp("<- rev(I, P, T, R) & not sub(S, X, I, R)");
        assert!(neg.shrink_sensitive("sub"));
        assert!(!neg.shrink_sensitive("rev"), "a positive atom is monotone");
        for op in ["<", "<=", "=", "!="] {
            let f = fp(&format!("<- rev(I, P, T) & cnt(; sub(S, X, I)) {op} 2"));
            assert!(f.shrink_sensitive("sub"), "cnt {op}");
            assert!(!f.shrink_sensitive("rev"), "cnt {op}");
        }
        for func in ["sum", "max", "min"] {
            let f = fp(&format!("<- rev(I, P, T) & {func}(X; sub(S, X, I)) > 2"));
            assert!(f.shrink_sensitive("sub"), "{func} >");
        }
        for func in ["cnt", "cntd"] {
            for op in [">", ">="] {
                let f = fp(&format!("<- rev(I, P, T) & {func}(S; sub(S, X, I)) {op} 2"));
                assert!(f.mentions("sub"));
                assert!(!f.shrink_sensitive("sub"), "{func} {op} is a lower bound");
            }
        }
        assert!(ReadFootprint::unsound().shrink_sensitive("anything"));
    }

    #[test]
    fn removal_overlaps_only_shrink_sensitive_reads() {
        let floor = fp("<- rev(I, P, T) & cnt(; sub(S, X, I)) < 2");
        let ceiling = fp("<- rev(I, P, T) & cnt(; sub(S, X, I)) > 5");
        let mut w = WriteSet::default();
        w.removed.insert("sub".to_string());
        let w = WriteFootprint::Cells(w);
        assert!(w.overlaps(&floor));
        assert!(!w.overlaps(&ceiling), "fewer subs cannot exceed a ceiling");
        assert!(w.overlaps(&ReadFootprint::unsound()));
    }

    #[test]
    fn a_relation_that_also_gained_tuples_is_in_existence() {
        let mut a = WriteSet::default();
        a.removed.extend(["sub".to_string(), "auts".to_string()]);
        let mut b = WriteSet::default();
        b.existence.insert("sub".to_string());
        let u = WriteFootprint::Cells(a).union(WriteFootprint::Cells(b));
        let WriteFootprint::Cells(u) = &u else { panic!("bounded union") };
        assert_eq!(u.existence, BTreeSet::from(["sub".to_string()]));
        assert_eq!(u.removed, BTreeSet::from(["auts".to_string()]));
    }

    #[test]
    fn overlap_on_existence() {
        let f = fp("<- sub(I, P, R)");
        let mut w = WriteSet::default();
        w.existence.insert("sub".to_string());
        assert!(WriteFootprint::Cells(w).overlaps(&f));
        let mut other = WriteSet::default();
        other.existence.insert("rev".to_string());
        assert!(!WriteFootprint::Cells(other).overlaps(&f));
    }

    #[test]
    fn overlap_on_cell_requires_value_read() {
        let f = fp("<- sub(I, P, R) & rev(R, Q, T)");
        // Writing a wildcard column of sub is invisible…
        let mut w = WriteSet::default();
        w.cells.insert(("sub".to_string(), 1));
        assert!(!WriteFootprint::Cells(w).overlaps(&f));
        // …writing the joined column is not.
        let mut w = WriteSet::default();
        w.cells.insert(("sub".to_string(), 2));
        assert!(WriteFootprint::Cells(w).overlaps(&f));
    }

    #[test]
    fn pos_shift_only_conflicts_with_pos_reads() {
        let reads_pos = fp("<- sub(I, P, R) & P > 1");
        let ignores_pos = fp("<- sub(I, P, R) & rev(R, Q, T)");
        let mut w = WriteSet::default();
        w.pos_shift.insert("sub".to_string());
        let w = WriteFootprint::Cells(w);
        assert!(w.overlaps(&reads_pos));
        assert!(!w.overlaps(&ignores_pos));
    }

    #[test]
    fn all_and_unsound_always_overlap() {
        let f = fp("<- sub(I, P, R)");
        assert!(WriteFootprint::All.overlaps(&f));
        assert!(WriteFootprint::empty().overlaps(&ReadFootprint::unsound()));
        assert!(!WriteFootprint::empty().overlaps(&f));
    }

    #[test]
    fn union_accumulates_and_saturates() {
        let mut a = WriteSet::default();
        a.existence.insert("sub".to_string());
        let mut b = WriteSet::default();
        b.pos_shift.insert("rev".to_string());
        let u = WriteFootprint::Cells(a).union(WriteFootprint::Cells(b));
        let WriteFootprint::Cells(u) = &u else { panic!("bounded union") };
        assert!(u.existence.contains("sub") && u.pos_shift.contains("rev"));
        assert_eq!(
            WriteFootprint::empty().union(WriteFootprint::All),
            WriteFootprint::All
        );
    }

    #[test]
    fn live_set_matches_overlap_per_constraint() {
        let gamma = [
            parse_denial("<- sub(I, P, R)").expect("parses"),
            parse_denial("<- rev(I, P, T)").expect("parses"),
        ];
        let fps = read_footprints(&gamma);
        let mut w = WriteSet::default();
        w.existence.insert("sub".to_string());
        assert_eq!(live_set(&fps, &WriteFootprint::Cells(w)), vec![true, false]);
    }

    #[test]
    fn a_modification_writes_the_cells_it_changes() {
        let u = xic_datalog::parse_update("{-auts($n, $p, $t, $o), auts($n, $p, $t, $v)}")
            .expect("parses");
        let WriteFootprint::Cells(w) = update_write_footprint(&u) else { panic!("bounded") };
        assert!(w.existence.is_empty() && w.removed.is_empty(), "{w:?}");
        assert_eq!(w.cells, BTreeSet::from([("auts".to_string(), 3)]));
        // A name read by a join is live; membership alone is not.
        let gamma = [
            parse_denial("<- rev(I, _, _, R) & sub(S, _, I, _) & auts(_, _, S, R)").expect("parses"),
            parse_denial("<- sub(S, _, _, _) & cnt(; auts(_, _, S, _)) > 3").expect("parses"),
        ];
        let live = live_set(&read_footprints(&gamma), &WriteFootprint::Cells(w));
        assert_eq!(live, vec![true, false]);
    }
}
