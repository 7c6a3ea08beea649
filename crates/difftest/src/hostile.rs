//! Hostile targets: a `select` aimed at a node an operation may not be
//! defined for — a text node, a comment, a processing instruction, the
//! document node or the root element — crossed with every operation kind.
//!
//! The campaign runs every case a second time as a hostile case: its
//! document with a comment as the root element's first child and a
//! processing instruction in front of the root, and one operation, the
//! pair `seed % 30` of [`TARGETS`] × [`OPS`]. Every oracle of the campaign
//! runs on it ([`crate::check_case`]), and one more: where XUpdate does
//! not define the operation for the node it is aimed at, plain application
//! refuses it with a typed error and leaves the document as it was, the
//! checker answers a statement error, and a service answers `ERR` to the
//! `UPDATE` and `ok` to the `HEALTH` after it.

use crate::{gen, Case};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::sync::Arc;
use xic_xml::{
    apply, parse_document, serialize, undo, Document, Dtd, NodeId, NodeKind, XUpdateDoc,
};
use xic_xml::{XUpdateError, XUpdateOp};
use xicheck::protocol::{execute, parse_command};
use xicheck::{xpath_resolver, Checker, CheckerError, CheckerService, Executor, SharedGamma};

/// The nodes a hostile case aims at.
pub const TARGETS: [&str; 5] = ["text", "comment", "pi", "document", "root"];

/// The operation kinds, as their XUpdate element names.
pub const OPS: [&str; 6] = [
    "insert-before",
    "insert-after",
    "append",
    "remove",
    "update",
    "rename",
];

/// Number of (target, operation) pairs.
pub const PAIRS: usize = TARGETS.len() * OPS.len();

thread_local! {
    static COVERED: [Cell<u64>; PAIRS] = const { [const { Cell::new(0) }; PAIRS] };
}

/// This thread's count of hostile cases per pair, `target * 6 + op`.
pub fn covered() -> [u64; PAIRS] {
    COVERED.with(|c| std::array::from_fn(|i| c[i].get()))
}

/// Whether XUpdate defines `op` for a node of `kind` where a hostile case
/// puts it: text and the comment sit inside an element, the processing
/// instruction beside the root element.
fn defined(kind: &str, op: &str) -> bool {
    match kind {
        "text" | "comment" => matches!(op, "insert-before" | "insert-after" | "remove"),
        "pi" => op == "remove",
        "root" => matches!(op, "append" | "update" | "rename"),
        _ => false,
    }
}

/// What the node `n` of `doc` is, as a hostile target.
fn kind_of(doc: &Document, n: NodeId) -> &'static str {
    match &doc.node(n).kind {
        NodeKind::Document => "document",
        NodeKind::Element { .. } if doc.node(n).parent == Some(doc.document_node()) => "root",
        NodeKind::Element { .. } => "element",
        NodeKind::Text(_) => "text",
        NodeKind::Comment(_) => "comment",
        NodeKind::Pi { .. } => "pi",
    }
}

/// The hostile case of `base`, counted under its (target, operation)
/// pair. A document without a text node aims the text pairs at the
/// comment instead.
pub fn case(base: &Case) -> Case {
    let mut rng = StdRng::seed_from_u64(base.seed ^ 0xbb67_ae85_84ca_a73b);
    let (mut doc, _) = parse_document(&base.doc_xml).expect("a generated document parses");
    let dtd = Dtd::parse(&base.dtd).expect("a generated DTD parses");
    let root = doc.root_element().expect("a generated document has a root");
    let comment = doc.create_comment("hostile");
    doc.insert_child(root, 0, comment);
    let pi = doc.create_pi("hostile", "target");
    doc.insert_child(doc.document_node(), 0, pi);
    let pair = (base.seed % PAIRS as u64) as usize;
    let (mut target, op) = (pair / OPS.len(), pair % OPS.len());
    let has_text = doc
        .descendants(root)
        .any(|n| matches!(doc.node(n).kind, NodeKind::Text(_)));
    if TARGETS[target] == "text" && !has_text {
        target = 1;
    }
    COVERED.with(|c| c[target * OPS.len() + op].set(c[target * OPS.len() + op].get() + 1));
    let root_path = doc.positional_path(root).expect("the root is attached");
    let select = match TARGETS[target] {
        "text" => "(//text())[1]".to_string(),
        "comment" => format!("{root_path}/comment()"),
        "pi" => "/node()[1]".to_string(),
        "document" => "/".to_string(),
        _ => root_path,
    };
    let root_name = doc.name(root).expect("an element");
    let names: Vec<&str> = dtd.elements().iter().map(|e| e.name.as_str()).collect();
    let children = gen::model_names(&dtd.element(root_name).expect("the root is declared").model);
    let child = children.first().map_or(root_name, String::as_str);
    let content = gen::random_subtree(&mut rng, &dtd, child);
    let op_text = match OPS[op] {
        "remove" => format!("<xupdate:remove select=\"{select}\"/>"),
        "update" => {
            format!(
                "<xupdate:update select=\"{select}\">{}</xupdate:update>",
                gen::random_text(&mut rng)
            )
        }
        "rename" => {
            let name = names[rng.gen_range(0..names.len())];
            format!("<xupdate:rename select=\"{select}\">{name}</xupdate:rename>")
        }
        tag => format!("<xupdate:{tag} select=\"{select}\">{content}</xupdate:{tag}>"),
    };
    Case {
        seed: base.seed,
        mode: "hostile",
        doc_xml: serialize(&doc),
        ops: vec![op_text],
        ..base.clone()
    }
}

/// The hostile oracle for the statement of a hostile case (the other
/// oracles run beside it): where the operation is not defined for the node
/// its select finds, a typed refusal everywhere and nothing changed.
pub fn oracle(case: &Case, gamma: &Arc<SharedGamma>, stmt: &XUpdateDoc) -> Result<(), String> {
    let [op] = stmt.ops.as_slice() else {
        return Ok(());
    };
    let (mut doc, _) = parse_document(&case.doc_xml).map_err(|e| e.to_string())?;
    let original = serialize(&doc);
    let targets = xpath_resolver(&doc, op.select()).unwrap_or_default();
    let name = match op {
        XUpdateOp::InsertBefore { .. } => "insert-before",
        XUpdateOp::InsertAfter { .. } => "insert-after",
        XUpdateOp::Append { .. } => "append",
        XUpdateOp::Remove { .. } => "remove",
        XUpdateOp::Update { .. } => "update",
        XUpdateOp::Rename { .. } => "rename",
    };
    let [target] = targets.as_slice() else {
        return Ok(()); // a shrunk document lost the target: nothing hostile left
    };
    let kind = kind_of(&doc, *target);
    match apply(&mut doc, stmt, &xpath_resolver) {
        Ok(_) if defined(kind, name) => return Ok(()),
        Ok(_) => return Err(format!("{name} aimed at {kind} applied")),
        Err((XUpdateError::Invalid(m), partial))
            if !defined(kind, name) && m.contains("cannot ") =>
        {
            undo(&mut doc, partial);
        }
        Err((e, _)) => return Err(format!("{name} aimed at {kind} failed as {e}")),
    }
    if serialize(&doc) != original {
        return Err(format!(
            "a refused {name} aimed at {kind} changed the document"
        ));
    }
    let mut checker = Checker::from_shared(&case.doc_xml, gamma).map_err(|e| e.to_string())?;
    match checker.try_update(stmt) {
        Err(CheckerError::Statement(_)) if serialize(checker.doc()) == original => {}
        other => {
            return Err(format!(
                "the checker answered {name} aimed at {kind} with {other:?}"
            ))
        }
    }
    // The same checker, as it is after refusing, behind a service.
    let service = CheckerService::new(checker, Executor::GroupCommit);
    let reply = |line: &str| execute(&service, &parse_command(line).expect("a request")).render();
    let (update, health) = (reply(&format!("UPDATE {}", stmt.to_xml())), reply("HEALTH"));
    if !update.starts_with("ERR ") || health != "OK 0 ok" {
        return Err(format!(
            "the service answered {name} aimed at {kind} with {update:?}, then {health:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Thirty seeds in a row draw every pair once (but a text pair of a
    /// document without text), each a case the campaign's oracles and the
    /// hostile oracle pass.
    #[test]
    fn thirty_seeds_draw_every_pair_and_pass() {
        let before = covered();
        for seed in 0..PAIRS as u64 {
            let hostile = case(&crate::generate_case(seed));
            crate::check_case(&hostile).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
        let after = covered();
        let drawn = (0..PAIRS).filter(|&i| after[i] > before[i]).count();
        assert!(drawn >= PAIRS - OPS.len(), "{drawn} pairs drawn");
    }
}
