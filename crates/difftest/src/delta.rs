//! The delta oracle for text updates: what `map_update` predicts a
//! statement writes against what applying it wrote, in the relational
//! image.
//!
//! A text update that `map_update` maps is a modification — the removal
//! of its owner's tuple and the addition of that tuple with the new value
//! ([`xic_mapping::update_map`]). Instantiated with the statement's
//! bindings, its removals less its additions must be exactly
//! `shred(D) ∖ shred(D′)`, and its additions less its removals exactly
//! `shred(D′) ∖ shred(D)`. The simplified checks are derived from that
//! prediction, so a mapping that names the wrong owner, column or value
//! decides another statement than the one applied; this is where it
//! shows.

use std::collections::BTreeSet;

use xic_datalog::{Atom, Database, Term, Value};
use xic_mapping::{map_update, shred, RelSchema};
use xic_xml::{Document, XUpdateDoc, XUpdateOp};
use xicheck::xpath_resolver;

type Tuples = BTreeSet<(String, Vec<Value>)>;

/// Checks the prediction for `stmt`, a text update, against `post`, the
/// document it produced from `pre`. `Ok(false)` when there is nothing to
/// compare: the statement is no single text update, or `map_update` does
/// not map it.
pub fn oracle(
    schema: &RelSchema,
    pre: &Document,
    post: &Document,
    stmt: &XUpdateDoc,
) -> Result<bool, String> {
    if !matches!(stmt.ops.as_slice(), [XUpdateOp::Update { .. }]) {
        return Ok(false);
    }
    let Ok(mapped) = map_update(pre, schema, stmt, &xpath_resolver) else {
        return Ok(false);
    };
    let ground =
        mapped.update.instantiate(&mapped.bindings).map_err(|e| format!("mapped update: {e}"))?;
    let (removals, additions) = (tuples(&ground.removals), tuples(&ground.additions));
    let (before, after) = (image(&shred(pre, schema)), image(&shred(post, schema)));
    let predicted = (&removals - &additions, &additions - &removals);
    let written = (&before - &after, &after - &before);
    if predicted != written {
        return Err(format!(
            "map_update predicts {} for {}, but the statement removed {:?} and added {:?}",
            mapped.update, stmt.ops[0].select(), written.0, written.1
        ));
    }
    Ok(true)
}

fn tuples(atoms: &[Atom]) -> Tuples {
    let value = |t: &Term| match t {
        Term::Const(v) => v.clone(),
        other => panic!("an instantiated update holds {other}"),
    };
    atoms.iter().map(|a| (a.pred.clone(), a.args.iter().map(value).collect())).collect()
}

fn image(db: &Database) -> Tuples {
    let relations = db.predicates().filter_map(|p| db.relation(p).map(|r| (p, r)));
    relations.flat_map(|(p, r)| r.iter().map(move |t| (p.to_string(), t.to_vec()))).collect()
}
