//! A naive reference evaluator for a small XPath subset, plus the query
//! generator that drives the XPath/XQuery differential oracle.
//!
//! The subset — absolute child/descendant name steps, positional
//! predicates on child steps, and a trailing `text()` — is evaluated here
//! by brute-force tree walking (sets are re-sorted into document order
//! after every step), and independently by the real `xic-xpath` engine
//! and, for cardinalities, quantifiers, aggregate FLWORs and value joins
//! over the path, by `xic-xquery`. Any disagreement is an engine bug by
//! construction: the two implementations share no code beyond the
//! document arena.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_xml::{Document, Dtd, NodeId, NodeKind};
use xic_xpath::ir::Inst;
use xic_xpath::{evaluate_exists, evaluate_nodes, parse, Context, NodeRef};
use xic_xquery::ir::{Probe, XClause, XFor, XInst};
use xic_xquery::{parse_query, XProgram};

/// One step of a reference query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefStep {
    /// `/name` or `/name[k]` (1-based position among same-name children of
    /// each context node).
    Child(String, Option<usize>),
    /// `//name` — all element descendants named `name`.
    Desc(String),
    /// `/text()` — child text nodes.
    Text,
}

/// An absolute reference query (steps applied from the document node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefQuery {
    /// The steps, outermost first.
    pub steps: Vec<RefStep>,
}

impl std::fmt::Display for RefQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.steps {
            match step {
                RefStep::Child(name, None) => write!(f, "/{name}")?,
                RefStep::Child(name, Some(k)) => write!(f, "/{name}[{k}]")?,
                RefStep::Desc(name) => write!(f, "//{name}")?,
                RefStep::Text => write!(f, "/text()")?,
            }
        }
        Ok(())
    }
}

/// Evaluates `q` by brute force; returns matching nodes in document order.
pub fn eval_reference(doc: &Document, q: &RefQuery) -> Vec<NodeId> {
    let mut cur = vec![doc.document_node()];
    for step in &q.steps {
        let mut next: Vec<NodeId> = Vec::new();
        match step {
            RefStep::Child(name, pos) => {
                for &n in &cur {
                    let kids: Vec<NodeId> = doc
                        .node(n)
                        .children
                        .iter()
                        .copied()
                        .filter(|&c| doc.name(c) == Some(name.as_str()))
                        .collect();
                    match pos {
                        Some(k) => next.extend(kids.get(*k - 1).copied()),
                        None => next.extend(kids),
                    }
                }
            }
            RefStep::Desc(name) => {
                for &n in &cur {
                    next.extend(
                        doc.descendants(n)
                            .filter(|&c| doc.name(c) == Some(name.as_str())),
                    );
                }
            }
            RefStep::Text => {
                for &n in &cur {
                    next.extend(
                        doc.node(n)
                            .children
                            .iter()
                            .copied()
                            .filter(|&c| matches!(doc.node(c).kind, NodeKind::Text(_))),
                    );
                }
            }
        }
        // Nested descendant contexts can produce out-of-order duplicates.
        doc.sort_document_order(&mut next);
        next.dedup();
        cur = next;
    }
    cur
}

/// Draws a random query over the schema's element names. The first step
/// anchors at the root element or at an arbitrary descendant name; later
/// steps descend by name, occasionally with a positional predicate or a
/// `//` hop; a trailing `text()` appears some of the time.
pub fn random_query(rng: &mut StdRng, names: &[&str]) -> RefQuery {
    let mut steps = Vec::new();
    let pick = |rng: &mut StdRng| names[rng.gen_range(0..names.len())].to_string();
    if rng.gen_bool(0.5) {
        // Anchor on the root element name (names[0] by convention).
        steps.push(RefStep::Child(names[0].to_string(), None));
    } else {
        steps.push(RefStep::Desc(pick(rng)));
    }
    for _ in 0..rng.gen_range(0..3) {
        if rng.gen_bool(0.25) {
            steps.push(RefStep::Desc(pick(rng)));
        } else {
            let pos = if rng.gen_bool(0.3) {
                Some(1 + rng.gen_range(0..2))
            } else {
                None
            };
            steps.push(RefStep::Child(pick(rng), pos));
        }
    }
    if rng.gen_bool(0.3) {
        steps.push(RefStep::Text);
    }
    RefQuery { steps }
}

/// Number of element children of `n` named `name` — what `$x/name`
/// binds when `$x` is `n` (text nodes have none).
fn children_named(doc: &Document, n: NodeId, name: &str) -> usize {
    doc.node(n)
        .children
        .iter()
        .filter(|&&c| doc.name(c) == Some(name))
        .count()
}

/// The contents of the text children of `n`'s children named `name`:
/// the string values of `$x/name/text()` when `$x` is `n`.
fn child_texts<'d>(doc: &'d Document, n: NodeId, name: &str) -> Vec<&'d str> {
    let kids = doc.node(n).children.iter().filter(|&&c| doc.name(c) == Some(name));
    kids.flat_map(|&c| &doc.node(c).children)
        .filter_map(|&t| match &doc.node(t).kind {
            NodeKind::Text(text) => Some(text.as_str()),
            _ => None,
        })
        .collect()
}

/// A random one of `among`, or of `names` when there is none.
fn pick<'a>(rng: &mut StdRng, among: &[&'a str], names: &[&'a str]) -> &'a str {
    let among = if among.is_empty() { names } else { among };
    among[rng.gen_range(0..among.len())]
}

/// Every element named `name`: what `//name` selects.
fn elements_named<'d>(doc: &'d Document, name: &'d str) -> impl Iterator<Item = NodeId> + 'd {
    doc.descendants(doc.document_node()).filter(move |&n| doc.name(n) == Some(name))
}

/// True if `prog` has a planned site with no shape to ask the document
/// for: a keyed step, or a binder's joins, answered from per-evaluation
/// tables.
fn plans_a_table(prog: &XProgram) -> bool {
    let keyed_step = |inst: &Inst| matches!(inst, Inst::Keyed { index: None, .. });
    let joins = |inst: &XInst| match inst {
        XInst::Quantified { binds, .. } => binds.iter().any(|bind| {
            matches!(bind, XClause::For(XFor { probe: Some(Probe { index: None, .. }), .. }))
        }),
        _ => false,
    };
    prog.xp.exprs.iter().any(keyed_step) || prog.insts.iter().any(joins)
}

/// Evaluates `query` both existentially and through full
/// materialization; both must return `expected`. Counts the queries the
/// engine planned a keyed sequence for, those among them with a
/// per-evaluation table in the plan, and the sites the document's index
/// answered.
fn expect_verdict(query: &str, doc: &Document, expected: bool) -> Result<(), String> {
    let parsed = parse_query(query).map_err(|e| format!("xquery failed to parse {query}: {e}"))?;
    let prog = XProgram::compile(&parsed);
    if prog.plan_sites() > 0 {
        crate::tally::incr(crate::tally::Tally::ReferenceJoin);
    }
    if plans_a_table(&prog) {
        crate::tally::incr(crate::tally::Tally::ReferenceTable);
    }
    let probes = xicheck::obs::counter(xicheck::obs::Counter::IndexProbe);
    let lazy = prog
        .eval_exists(doc, &[])
        .map_err(|e| format!("xquery failed existential evaluation of {query}: {e}"))?;
    let eager =
        prog.eval_bool(doc, &[]).map_err(|e| format!("xquery failed to evaluate {query}: {e}"))?;
    let probes = xicheck::obs::counter(xicheck::obs::Counter::IndexProbe) - probes;
    crate::tally::add(crate::tally::Tally::ReferenceIndexProbe, probes);
    if lazy != expected || eager != expected {
        return Err(format!(
            "{query}: lazy {lazy}, eager {eager}, reference says {expected}"
        ));
    }
    Ok(())
}

/// The engine differential oracle: draws 6 queries (deterministically
/// from `seed`) and holds the engine to the naive reference evaluator on
/// each — the materialized node-set, the short-circuit existential
/// answer, the XQuery `exists()` and `count()` answers, and the two
/// shapes the constraint translator emits around a path: a quantifier
/// (`some`/`every $x in Q satisfies $x/c`) and an aggregate FLWOR
/// (`exists(for $x in Q let $d := $x/c where count($d) > k return
/// <idle/>)`), whose expected answers are brute-forced over the
/// reference node-set. Each path is also joined on values with a second
/// one — `some $a in Q, $b in Q2 satisfies $a/c/text() = $b/d/text()`,
/// with the operands swapped and a second conjunct, and as an `every` —
/// and grouped by them — `exists(for $v in distinct-values(Q/c/text())
/// let $g := //p[c/text() = $v] let $h := //q[p[c/text() = $v]] where
/// count($g) + count($h) > k return <idle/>)` — the shapes the engine
/// answers from keyed sequences, expected answers brute-forced from the
/// reference node-sets and the text content. Every XQuery answer is
/// taken both existentially and through full materialization, on the
/// case's own document: a planned site with an indexable shape asks it
/// (the first one builds), the others build their tables.
/// The two sides share no evaluation code, so any disagreement is a bug
/// by construction.
pub fn differential(seed: u64, dtd: &Dtd, doc: &Document) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    // The quantifier/FLWOR parameters and the join partners each come
    // from a stream of their own, so a seed draws the same six paths and
    // shapes it always did.
    let mut shape_rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    let mut join_rng = StdRng::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c908);
    let names: Vec<&str> = dtd.elements().iter().map(|e| e.name.as_str()).collect();
    if names.is_empty() {
        return Ok(());
    }
    for _ in 0..6 {
        let q = random_query(&mut rng, &names);
        let text = q.to_string();
        crate::tally::incr(crate::tally::Tally::ReferenceQuery);
        let expected = eval_reference(doc, &q);
        let expr =
            parse(&text).map_err(|e| format!("engine failed to parse query {text}: {e}"))?;
        let got = evaluate_nodes(&expr, &Context::root(doc))
            .map_err(|e| format!("engine failed to evaluate {text}: {e}"))?;
        let mut got_ids = Vec::with_capacity(got.len());
        for r in got {
            match r {
                NodeRef::Node(id) => got_ids.push(id),
                NodeRef::Attr { .. } => {
                    return Err(format!("query {text}: engine returned an attribute node"))
                }
            }
        }
        if got_ids != expected {
            return Err(format!(
                "query {text}: engine {got_ids:?} vs reference {expected:?}"
            ));
        }
        // The short-circuiting evaluator must reach the same emptiness
        // verdict as the reference's full materialization.
        let exists = evaluate_exists(&expr, &Context::root(doc))
            .map_err(|e| format!("engine failed existential evaluation of {text}: {e}"))?;
        if exists == expected.is_empty() {
            return Err(format!(
                "evaluate_exists({text}) = {exists} but reference found {} nodes",
                expected.len()
            ));
        }
        expect_verdict(&format!("exists({text})"), doc, !expected.is_empty())?;
        expect_verdict(&format!("count({text}) = {}", expected.len()), doc, true)?;

        let child = names[shape_rng.gen_range(0..names.len())];
        let k = shape_rng.gen_range(0..3);
        let with_child = |n: &NodeId| children_named(doc, *n, child) > 0;
        expect_verdict(
            &format!("some $x in {text} satisfies $x/{child}"),
            doc,
            expected.iter().any(with_child),
        )?;
        expect_verdict(
            &format!("every $x in {text} satisfies $x/{child}"),
            doc,
            expected.iter().all(with_child),
        )?;
        expect_verdict(
            &format!(
                "exists(for $x in {text} let $d := $x/{child} where count($d) > {k} \
                 return <idle/>)"
            ),
            doc,
            expected.iter().any(|&n| children_named(doc, n, child) > k),
        )?;

        // Names under which the joins have something to compare, where
        // the document has any: a text-bearing child of the path's nodes
        // (`c`) and of the partner's (`d`), an element with a `c` (`p`)
        // and one with a `p` (`q`).
        let texty = |nodes: &[NodeId]| -> Vec<&str> {
            let mut found: Vec<&str> = nodes
                .iter()
                .flat_map(|&n| doc.node(n).children.iter().map(move |&k| (n, k)))
                .filter_map(|(n, k)| doc.name(k).filter(|name| !child_texts(doc, n, name).is_empty()))
                .collect();
            found.sort_unstable();
            found.dedup();
            found
        };
        let parents_of = |name: &str| -> Vec<&str> {
            let mut found: Vec<&str> = elements_named(doc, name)
                .filter_map(|n| doc.name(doc.node(n).parent?))
                .collect();
            found.sort_unstable();
            found.dedup();
            found
        };
        let partner = random_query(&mut join_rng, &names);
        let partners = eval_reference(doc, &partner);
        let c = pick(&mut join_rng, &texty(&expected), &names);
        let d = pick(&mut join_rng, &texty(&partners), &names);
        let p = pick(&mut join_rng, &parents_of(c), &names);
        let q = pick(&mut join_rng, &parents_of(p), &names);
        let joined = |&a: &NodeId, &b: &NodeId| {
            let keys = child_texts(doc, b, d);
            child_texts(doc, a, c).iter().any(|t| keys.contains(t))
        };
        let pairs = || expected.iter().flat_map(|a| partners.iter().map(move |b| (a, b)));
        expect_verdict(
            &format!("some $a in {text}, $b in {partner} satisfies $a/{c}/text() = $b/{d}/text()"),
            doc,
            pairs().any(|(a, b)| joined(a, b)),
        )?;
        expect_verdict(
            &format!(
                "some $a in {text}, $b in {partner} satisfies $b/{d}/text() = $a/{c}/text() \
                 and count($b/{d}) > {k}"
            ),
            doc,
            pairs().any(|(a, b)| joined(a, b) && children_named(doc, *b, d) > k),
        )?;
        expect_verdict(
            &format!("every $a in {text}, $b in {partner} satisfies $a/{c}/text() = $b/{d}/text()"),
            doc,
            pairs().all(|(a, b)| joined(a, b)),
        )?;
        let keyed = |&n: &NodeId, v: &str| child_texts(doc, n, c).contains(&v);
        let group_size = |v: &str| {
            let direct = elements_named(doc, p).filter(|n| keyed(n, v)).count();
            let nested = elements_named(doc, q).filter(|&n| {
                doc.node(n).children.iter().any(|k| doc.name(*k) == Some(p) && keyed(k, v))
            });
            direct + nested.count()
        };
        expect_verdict(
            &format!(
                "exists(for $v in distinct-values({text}/{c}/text()) \
                 let $g := //{p}[{c}/text() = $v] let $h := //{q}[{p}[{c}/text() = $v]] \
                 where count($g) + count($h) > {k} return <idle/>)"
            ),
            doc,
            expected.iter().flat_map(|&n| child_texts(doc, n, c)).any(|v| group_size(v) > k),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_xml::parse_document;

    fn doc() -> Document {
        parse_document(
            "<r><a><b>one</b><b>two</b></a><a><b>three</b></a><c><a><b>four</b></a></c></r>",
        )
        .expect("parses")
        .0
    }

    #[test]
    fn reference_child_and_positional() {
        let d = doc();
        let q = RefQuery {
            steps: vec![
                RefStep::Child("r".into(), None),
                RefStep::Child("a".into(), Some(2)),
                RefStep::Child("b".into(), None),
            ],
        };
        let hits = eval_reference(&d, &q);
        assert_eq!(hits.len(), 1);
        assert_eq!(d.text_content(hits[0]), "three");
        assert_eq!(q.to_string(), "/r/a[2]/b");
    }

    #[test]
    fn reference_descendants_are_in_document_order() {
        let d = doc();
        let q = RefQuery {
            steps: vec![RefStep::Desc("b".into())],
        };
        let hits = eval_reference(&d, &q);
        let texts: Vec<String> = hits.iter().map(|&n| d.text_content(n)).collect();
        assert_eq!(texts, ["one", "two", "three", "four"]);
    }

    #[test]
    fn brute_force_quantifier_and_flwor_answers() {
        // `//a`: two `a`s under `r` (2 and 1 `b` children), one under `c`.
        let d = doc();
        let q = RefQuery {
            steps: vec![RefStep::Desc("a".into())],
        };
        let counts: Vec<usize> =
            eval_reference(&d, &q).iter().map(|&n| children_named(&d, n, "b")).collect();
        assert_eq!(counts, [2, 1, 1]);
        expect_verdict("every $x in //a satisfies $x/b", &d, true).unwrap();
        expect_verdict("some $x in //a satisfies $x/c", &d, false).unwrap();
        let flwor = |k: usize| {
            format!("exists(for $x in //a let $d := $x/b where count($d) > {k} return <idle/>)")
        };
        expect_verdict(&flwor(1), &d, true).unwrap();
        expect_verdict(&flwor(2), &d, false).unwrap();
        let err = expect_verdict(&flwor(2), &d, true).unwrap_err();
        assert!(err.contains("reference says true"), "{err}");
    }

    #[test]
    fn differential_agrees_on_a_known_document() {
        let d = doc();
        let dtd = Dtd::parse(
            "<!ELEMENT r (a*, c?)>\n<!ELEMENT a (b+)>\n<!ELEMENT c (a)>\n<!ELEMENT b (#PCDATA)>",
        )
        .expect("dtd");
        for seed in 0..40 {
            differential(seed, &dtd, &d).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
