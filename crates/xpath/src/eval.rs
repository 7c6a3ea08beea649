//! XPath evaluation over a document: the one-shot entry points
//! (expression in, value out) and the value-level pieces the evaluator
//! in [`crate::ir`] is built from.

use crate::ast::{Axis, BinOp, Expr};
use crate::ir;
use crate::value::{NodeRef, XValue};
use std::collections::HashMap;
use std::fmt;
use xic_xml::{Document, NodeKind};

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Reference to an unbound variable.
    UndefinedVariable(String),
    /// Unknown function or wrong arity.
    BadCall(String),
    /// An operation received a value of the wrong kind (e.g. union of
    /// non-node-sets).
    Type(String),
    /// The armed [`crate::budget::EvalBudget`] ran out of steps; the
    /// caller should retry unbudgeted (e.g. fall back to the baseline
    /// full check) or report the evaluation as too expensive.
    BudgetExhausted,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UndefinedVariable(v) => write!(f, "undefined variable ${v}"),
            EvalError::BadCall(m) | EvalError::Type(m) => f.write_str(m),
            EvalError::BudgetExhausted => f.write_str("evaluation step budget exhausted"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The evaluation context: document, context item, position/size, and
/// variable bindings (populated by the XQuery layer).
#[derive(Debug, Clone)]
pub struct Context<'d> {
    /// The document.
    pub doc: &'d Document,
    /// Context item.
    pub item: NodeRef,
    /// 1-based context position.
    pub position: usize,
    /// Context size.
    pub size: usize,
    /// In-scope variables.
    pub vars: HashMap<String, XValue>,
}

impl<'d> Context<'d> {
    /// A context positioned at the document node.
    pub fn root(doc: &'d Document) -> Context<'d> {
        Context {
            doc,
            item: NodeRef::Node(doc.document_node()),
            position: 1,
            size: 1,
            vars: HashMap::new(),
        }
    }

    /// Returns a copy with a variable bound.
    #[must_use]
    pub fn bind(&self, name: impl Into<String>, value: XValue) -> Context<'d> {
        let mut c = self.clone();
        c.vars.insert(name.into(), value);
        c
    }
}

/// Compiles `expr` and runs `f` on the program in a scope built from
/// `ctx`: the context item, position and size carry over, and every
/// variable the expression mentions is bound to its slot (a name `ctx`
/// does not bind stays an unbound slot, which errors only if read).
fn run<T>(
    expr: &Expr,
    ctx: &Context,
    f: impl FnOnce(ir::ExprId, &ir::Scope) -> Result<T, EvalError>,
) -> Result<T, EvalError> {
    let (prog, root) = ir::compile(expr);
    let slots: Vec<Option<XValue>> = prog
        .var_names
        .iter()
        .map(|v| ctx.vars.get(v).cloned())
        .collect();
    let resolved = prog.resolve(ctx.doc);
    let scope = ir::Scope {
        prog: &prog,
        doc: ctx.doc,
        item: ctx.item.clone(),
        position: ctx.position,
        size: ctx.size,
        slots: &slots,
        resolved: &resolved,
        keyed: &prog.keyed_cache(),
    };
    f(root, &scope)
}

/// Evaluates an expression: the one-shot entry point (compile, then run
/// on the flat IR of [`crate::ir`]). Callers that evaluate one
/// expression many times compile it once with [`ir::compile`] instead.
pub fn evaluate(expr: &Expr, ctx: &Context) -> Result<XValue, EvalError> {
    run(expr, ctx, ir::eval)
}

/// Evaluates an expression that must produce a node-set.
pub fn evaluate_nodes(expr: &Expr, ctx: &Context) -> Result<Vec<NodeRef>, EvalError> {
    match evaluate(expr, ctx)? {
        XValue::Nodes(ns) => Ok(ns),
        other => Err(EvalError::Type(format!(
            "expected a node-set, got {other:?}"
        ))),
    }
}

/// Existential evaluation: the expression's boolean value, computed with
/// first-witness short-circuit wherever the answer cannot depend on the
/// rest of the node-set. Equivalent to `evaluate(expr, ctx)?.to_bool()`
/// (the difftest oracle enforces this), but a path stops descending at
/// the first node it reaches, `or`/`and`/`not`/`boolean` recurse lazily,
/// and no document-order normalization ever happens — a constraint check
/// asking "is there a violation witness?" touches only the nodes up to
/// that witness.
pub fn evaluate_exists(expr: &Expr, ctx: &Context) -> Result<bool, EvalError> {
    run(expr, ctx, ir::eval_exists)
}

/// Sequence-nonemptiness counterpart of [`evaluate_exists`], for the
/// XQuery `exists()`/`empty()` functions: `[""]` is non-empty even though
/// its effective boolean value is false. Equivalent to
/// `!evaluate_nodes(expr, ctx)?.is_empty()` for node-set expressions;
/// atomic values count as one-item sequences.
pub fn evaluate_nonempty(expr: &Expr, ctx: &Context) -> Result<bool, EvalError> {
    run(expr, ctx, ir::eval_nonempty)
}

/// True if all tree-node inputs share one depth (attribute refs anchor at
/// their owner).
pub(crate) fn same_depth(doc: &Document, input: &[NodeRef]) -> bool {
    let depth = |n: &NodeRef| -> usize {
        let mut d = 0;
        let mut cur = n.anchor();
        while let Some(p) = doc.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    };
    let first = depth(&input[0]);
    input[1..].iter().all(|n| depth(n) == first)
}

/// Lazy axis traversal: yields candidates one at a time so existential
/// evaluation can stop at the first witness, and `step_once` never
/// materializes an intermediate candidate `Vec` (descendant axes stream
/// straight out of [`Document::descendants`]).
pub(crate) fn axis_iter<'d>(
    doc: &'d Document,
    item: &NodeRef,
    axis: Axis,
) -> Box<dyn Iterator<Item = NodeRef> + 'd> {
    let ancestors = move |from: Option<xic_xml::NodeId>| {
        std::iter::successors(from, move |&p| doc.node(p).parent).map(NodeRef::Node)
    };
    match item {
        NodeRef::Attr { owner, .. } => match axis {
            Axis::Parent => Box::new(std::iter::once(NodeRef::Node(*owner))),
            // The attribute's ancestors start at (and include) its owner.
            Axis::Ancestor => Box::new(ancestors(Some(*owner))),
            Axis::AncestorOrSelf => {
                Box::new(std::iter::once(item.clone()).chain(ancestors(Some(*owner))))
            }
            Axis::SelfAxis => Box::new(std::iter::once(item.clone())),
            _ => Box::new(std::iter::empty()),
        },
        NodeRef::Node(n) => {
            let n = *n;
            match axis {
                Axis::Child => Box::new(doc.node(n).children.iter().map(|&c| NodeRef::Node(c))),
                Axis::Descendant => Box::new(doc.descendants(n).map(NodeRef::Node)),
                Axis::DescendantOrSelf => Box::new(
                    std::iter::once(NodeRef::Node(n)).chain(doc.descendants(n).map(NodeRef::Node)),
                ),
                Axis::Parent => Box::new(doc.node(n).parent.into_iter().map(NodeRef::Node)),
                Axis::Ancestor => Box::new(ancestors(doc.node(n).parent)),
                Axis::AncestorOrSelf => Box::new(
                    std::iter::once(NodeRef::Node(n)).chain(ancestors(doc.node(n).parent)),
                ),
                Axis::SelfAxis => Box::new(std::iter::once(NodeRef::Node(n))),
                Axis::Attribute => match &doc.node(n).kind {
                    NodeKind::Element { attrs, .. } => {
                        Box::new(attrs.iter().map(move |(name, _)| NodeRef::Attr {
                            owner: n,
                            name: name.clone(),
                        }))
                    }
                    _ => Box::new(std::iter::empty()),
                },
                Axis::PrecedingSibling | Axis::FollowingSibling => {
                    let Some(parent) = doc.node(n).parent else {
                        return Box::new(std::iter::empty());
                    };
                    let siblings = &doc.node(parent).children;
                    let idx = siblings
                        .iter()
                        .position(|&c| c == n)
                        .expect("attached node is among its parent's children");
                    if axis == Axis::PrecedingSibling {
                        // Nearest first (reverse document order).
                        Box::new(siblings[..idx].iter().rev().map(|&c| NodeRef::Node(c)))
                    } else {
                        Box::new(siblings[idx + 1..].iter().map(|&c| NodeRef::Node(c)))
                    }
                }
            }
        }
    }
}

/// Kind discriminant for ordering mixed node/attribute refs that share an
/// anchor: a node sorts before the attributes it owns.
fn ref_kind(n: &NodeRef) -> u8 {
    match n {
        NodeRef::Node(_) => 0,
        NodeRef::Attr { .. } => 1,
    }
}

/// Attribute name for ordering attributes of one owner (empty for nodes)
/// — borrowed, never cloned.
fn ref_name(n: &NodeRef) -> &str {
    match n {
        NodeRef::Node(_) => "",
        NodeRef::Attr { name, .. } => name,
    }
}

/// Sorts a node-set into document order and removes duplicates.
///
/// When every anchor is attached and the document's rank cache is
/// enabled, comparisons are O(1) rank lookups — no per-node `order_key`
/// `Vec` and no per-attribute `String` clone for the dedup key. Sets
/// containing detached nodes (or a cache-disabled document) fall back to
/// the historical path-key sort, which orders detached nodes relative to
/// their own subtree roots.
pub fn dedupe_doc_order(doc: &Document, nodes: &mut Vec<NodeRef>) {
    if nodes.len() <= 1 {
        return;
    }
    if let Some(ranks) = doc.order_ranks_for(nodes.len()) {
        if nodes.iter().all(|n| ranks.rank(n.anchor()).is_some()) {
            xic_obs::incr(xic_obs::Counter::DocOrderFastSort);
            nodes.sort_unstable_by(|a, b| {
                let ra = ranks.rank(a.anchor()).expect("all anchors checked attached");
                let rb = ranks.rank(b.anchor()).expect("all anchors checked attached");
                ra.cmp(&rb)
                    .then_with(|| ref_kind(a).cmp(&ref_kind(b)))
                    .then_with(|| ref_name(a).cmp(ref_name(b)))
            });
            nodes.dedup();
            return;
        }
    }
    xic_obs::incr(xic_obs::Counter::DocOrderPathSort);
    let mut keyed: Vec<(Vec<u32>, NodeRef)> = nodes
        .drain(..)
        .map(|n| (doc.order_key(n.anchor()), n))
        .collect();
    keyed.sort_by(|(ka, a), (kb, b)| {
        ka.cmp(kb)
            .then_with(|| ref_kind(a).cmp(&ref_kind(b)))
            .then_with(|| ref_name(a).cmp(ref_name(b)))
    });
    nodes.extend(keyed.into_iter().map(|(_, n)| n));
    nodes.dedup();
}

/// XPath 1.0 comparison semantics: existential over node-sets. Public so
/// the XQuery layer can reuse the exact same general-comparison rules.
pub fn compare_values(a: &XValue, op: BinOp, b: &XValue, doc: &Document) -> bool {
    let cmp_num = |x: f64, y: f64| match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!(),
    };
    let cmp_str = |x: &str, y: &str| match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        // Relational comparisons on strings go through numbers in XPath 1.0.
        _ => cmp_num(
            x.trim().parse().unwrap_or(f64::NAN),
            y.trim().parse().unwrap_or(f64::NAN),
        ),
    };
    match (a, b) {
        (XValue::Nodes(xs), XValue::Nodes(ys)) => {
            // One string per right-hand node per call, not per pair; text
            // nodes lend theirs.
            let sys: Vec<_> = ys.iter().map(|y| y.str_value(doc)).collect();
            xs.iter().any(|x| {
                let sx = x.str_value(doc);
                sys.iter().any(|sy| cmp_str(&sx, sy))
            })
        }
        (XValue::Nodes(xs), other) | (other, XValue::Nodes(xs)) => {
            let flipped = !matches!(a, XValue::Nodes(_));
            let eff_op = if flipped { flip(op) } else { op };
            match other {
                XValue::Num(n) => xs.iter().any(|x| {
                    let v = x.str_value(doc).trim().parse().unwrap_or(f64::NAN);
                    match eff_op {
                        BinOp::Eq => v == *n,
                        BinOp::Ne => v != *n,
                        BinOp::Lt => v < *n,
                        BinOp::Le => v <= *n,
                        BinOp::Gt => v > *n,
                        BinOp::Ge => v >= *n,
                        _ => unreachable!(),
                    }
                }),
                XValue::Str(s) => xs.iter().any(|x| {
                    let sv = x.str_value(doc);
                    match eff_op {
                        BinOp::Eq => sv == s.as_str(),
                        BinOp::Ne => sv != s.as_str(),
                        _ => cmp_num(
                            sv.trim().parse().unwrap_or(f64::NAN),
                            s.trim().parse().unwrap_or(f64::NAN),
                        ),
                    }
                }),
                XValue::Bool(bv) => {
                    let nb = !xs.is_empty();
                    match eff_op {
                        BinOp::Eq => nb == *bv,
                        BinOp::Ne => nb != *bv,
                        _ => cmp_num(f64::from(u8::from(nb)), f64::from(u8::from(*bv))),
                    }
                }
                XValue::Nodes(_) => unreachable!(),
            }
        }
        _ => {
            // Neither side is a node-set.
            if matches!(op, BinOp::Eq | BinOp::Ne) {
                if matches!(a, XValue::Bool(_)) || matches!(b, XValue::Bool(_)) {
                    let r = a.to_bool() == b.to_bool();
                    return if op == BinOp::Eq { r } else { !r };
                }
                if matches!(a, XValue::Num(_)) || matches!(b, XValue::Num(_)) {
                    return cmp_num(a.to_num(doc), b.to_num(doc));
                }
                return cmp_str(&a.to_str(doc), &b.to_str(doc));
            }
            cmp_num(a.to_num(doc), b.to_num(doc))
        }
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use xic_xml::parse_document;

    const DOC: &str = "<review>\
        <track><name>DB</name>\
          <rev><name>Ann</name>\
            <sub><title>S1</title><auts><name>Bob</name></auts></sub>\
            <sub><title>S2</title><auts><name>Cat</name><name>Ann</name></auts></sub>\
          </rev>\
          <rev><name>Dan</name>\
            <sub><title>S3</title><auts><name>Eve</name></auts></sub>\
          </rev>\
        </track>\
        <track><name>AI</name>\
          <rev><name>Ann</name><sub><title>S4</title><auts><name>Flo</name></auts></sub></rev>\
        </track>\
      </review>";

    fn eval_str(doc_src: &str, xpath: &str) -> XValue {
        let (doc, _) = parse_document(doc_src).unwrap();
        let e = parse(xpath).unwrap();
        let ctx = Context::root(&doc);
        evaluate(&e, &ctx).unwrap()
    }

    fn count_nodes(doc_src: &str, xpath: &str) -> usize {
        match eval_str(doc_src, xpath) {
            XValue::Nodes(ns) => ns.len(),
            other => panic!("expected node-set, got {other:?}"),
        }
    }

    #[test]
    fn descendant_queries() {
        assert_eq!(count_nodes(DOC, "//rev"), 3);
        assert_eq!(count_nodes(DOC, "//sub"), 4);
        assert_eq!(count_nodes(DOC, "//rev/name/text()"), 3);
        assert_eq!(count_nodes(DOC, "/review/track"), 2);
        assert_eq!(count_nodes(DOC, "/review/track/rev/sub/auts/name"), 5);
    }

    #[test]
    fn positional_predicates() {
        let (doc, _) = parse_document(DOC).unwrap();
        let e = parse("/review/track[2]/rev[1]/name/text()").unwrap();
        let v = evaluate(&e, &Context::root(&doc)).unwrap();
        assert_eq!(v.to_str(&doc), "Ann");
        assert_eq!(count_nodes(DOC, "//sub[1]"), 3, "first sub of each rev");
        assert_eq!(count_nodes(DOC, "//sub[position() = last()]"), 3);
        assert_eq!(count_nodes(DOC, "(//sub)[1]"), 1);
    }

    #[test]
    fn value_predicates() {
        assert_eq!(count_nodes(DOC, "//rev[name/text() = 'Ann']"), 2);
        assert_eq!(count_nodes(DOC, "//rev[name = 'Ann']/sub"), 3);
        assert_eq!(
            count_nodes(DOC, "//sub[auts/name/text() = 'Ann']"),
            1,
            "existential over multiple auts names"
        );
    }

    #[test]
    fn parent_and_ancestor() {
        assert_eq!(count_nodes(DOC, "//name/.."), 9, "every named element");
        assert_eq!(count_nodes(DOC, "//auts/ancestor::track"), 2);
        // 4 auts + 4 subs + 3 revs + 2 tracks + review = 14 distinct.
        assert_eq!(count_nodes(DOC, "//auts/ancestor-or-self::*"), 14);
        // aut/../aut style used by the paper's translation.
        assert_eq!(count_nodes(DOC, "//auts/name/../name"), 5);
    }

    #[test]
    fn siblings() {
        assert_eq!(count_nodes(DOC, "//sub[2]/preceding-sibling::sub"), 1);
        assert_eq!(count_nodes(DOC, "//name/following-sibling::rev"), 3);
        // Reverse-axis positions count from the nearest.
        assert_eq!(
            count_nodes(DOC, "//sub[2]/preceding-sibling::*[1]"),
            1
        );
    }

    #[test]
    fn attributes() {
        let src = "<r><a id=\"1\" lang=\"en\"/><a id=\"2\"/></r>";
        assert_eq!(count_nodes(src, "//a/@id"), 2);
        assert_eq!(count_nodes(src, "//a[@id = '2']"), 1);
        assert_eq!(count_nodes(src, "//a[@lang]"), 1);
        assert_eq!(count_nodes(src, "//a/@*"), 3);
        let v = eval_str(src, "string(//a/@id)");
        assert_eq!(v, XValue::Str("1".into()));
    }

    #[test]
    fn functions() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ctx = Context::root(&doc);
        let v = evaluate(&parse("count(//sub)").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Num(4.0));
        let v = evaluate(&parse("not(//zzz)").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Bool(true));
        let v = evaluate(&parse("concat('a', 'b', 'c')").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Str("abc".into()));
        let v = evaluate(&parse("contains(//rev[1]/name, 'nn')").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Bool(true));
        let v = evaluate(&parse("string-length('héllo')").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Num(5.0));
        let v = evaluate(&parse("normalize-space('  a   b ')").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Str("a b".into()));
        let v = evaluate(&parse("name(//track[1])").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Str("track".into()));
    }

    #[test]
    fn arithmetic_and_comparison() {
        let (doc, _) = parse_document("<r/>").unwrap();
        let ctx = Context::root(&doc);
        let n = |s: &str| evaluate(&parse(s).unwrap(), &ctx).unwrap();
        assert_eq!(n("1 + 2 * 3"), XValue::Num(7.0));
        assert_eq!(n("7 mod 3"), XValue::Num(1.0));
        assert_eq!(n("7 div 2"), XValue::Num(3.5));
        assert_eq!(n("-(3)"), XValue::Num(-3.0));
        assert_eq!(n("1 < 2"), XValue::Bool(true));
        assert_eq!(n("'2' = 2"), XValue::Bool(true));
        assert_eq!(n("true() = '1'"), XValue::Bool(true), "bool wins coercion");
        assert_eq!(n("2 >= 3 or 1 = 1"), XValue::Bool(true));
        assert_eq!(n("2 >= 3 and 1 = 1"), XValue::Bool(false));
    }

    #[test]
    fn node_set_comparisons_are_existential() {
        // Two different subs share no author, but the name sets overlap on
        // "Ann" between rev names and auts names.
        let v = eval_str(DOC, "//rev/name/text() = //auts/name/text()");
        assert_eq!(v, XValue::Bool(true));
        let v2 = eval_str(DOC, "//track/name/text() = //auts/name/text()");
        assert_eq!(v2, XValue::Bool(false));
        // Elements compare by their concatenated text, attributes by value,
        // and the relational operators through numbers, pair by pair.
        let src = "<r><a k=\"3\"><n>1</n><n>x</n></a><b k=\"3\"><n>2</n></b><c><n>1</n>0</c></r>";
        for (query, expected) in [
            ("//a/n = //c/n", true),
            ("//a/n = //b/n", false),
            ("//a/n != //a/n", true),
            ("//b/n != //b/n", false),
            ("//a/n < //b/n", true),
            ("//b/n < //a/n", false),
            ("//a/@k = //b/@k", true),
            ("//c = //a/n", false),
            ("//c = 10", true),
            ("//a/n = //zzz", false),
        ] {
            assert_eq!(eval_str(src, query), XValue::Bool(expected), "{query}");
        }
    }

    #[test]
    fn variables() {
        let (doc, _) = parse_document(DOC).unwrap();
        let revs = evaluate_nodes(&parse("//rev").unwrap(), &Context::root(&doc)).unwrap();
        let ctx = Context::root(&doc).bind("lr", XValue::Nodes(vec![revs[0].clone()]));
        let v = evaluate(&parse("$lr/sub").unwrap(), &ctx).unwrap();
        assert_eq!(v.as_nodes().unwrap().len(), 2);
        let v = evaluate(&parse("$lr/name/text() = 'Ann'").unwrap(), &ctx).unwrap();
        assert_eq!(v, XValue::Bool(true));
        assert!(matches!(
            evaluate(&parse("$nope").unwrap(), &ctx),
            Err(EvalError::UndefinedVariable(_))
        ));
    }

    #[test]
    fn union() {
        assert_eq!(count_nodes(DOC, "//track/name | //rev/name"), 5);
        // Dedup across operands.
        assert_eq!(count_nodes(DOC, "//rev | //rev"), 3);
    }

    #[test]
    fn document_order_and_dedup() {
        let (doc, _) = parse_document(DOC).unwrap();
        // `//name/..` visits parents multiple times but yields unique nodes
        // in document order.
        let ns = evaluate_nodes(&parse("//auts/name/..").unwrap(), &Context::root(&doc)).unwrap();
        assert_eq!(ns.len(), 4);
        let mut sorted = ns.clone();
        let mut ids: Vec<_> = sorted
            .iter()
            .map(|n| match n {
                NodeRef::Node(i) => *i,
                NodeRef::Attr { .. } => panic!(),
            })
            .collect();
        doc.sort_document_order(&mut ids);
        let resorted: Vec<_> = ids.into_iter().map(NodeRef::Node).collect();
        sorted.clone_from(&resorted);
        assert_eq!(ns, resorted);
    }

    #[test]
    fn evaluate_exists_agrees_with_effective_boolean() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ctx = Context::root(&doc);
        for src in [
            "//rev",
            "//zzz",
            "//rev/name/text()",
            "//sub[auts/name/text() = 'Ann']",
            "//sub[2]",
            "//sub[position() = last()]",
            "(//sub)[1]",
            "//auts/name/..",
            "//rev | //zzz",
            "not(//zzz)",
            "boolean(//track)",
            "//rev/name/text() = //auts/name/text()",
            "count(//sub) > 3",
            "//track and //rev",
            "//zzz or //track",
            "'x'",
            "''",
            "0",
            "3",
            "//sub/preceding-sibling::name",
            "//auts/ancestor::track",
            "//name/@missing",
        ] {
            let e = parse(src).unwrap();
            let full = evaluate(&e, &ctx).unwrap().to_bool();
            let lazy = evaluate_exists(&e, &ctx).unwrap();
            assert_eq!(lazy, full, "evaluate_exists disagrees on {src}");
        }
    }

    #[test]
    fn evaluate_nonempty_agrees_with_node_count() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ctx = Context::root(&doc);
        for src in ["//rev", "//zzz", "//sub[7]", "//name/text()", "//a/@id"] {
            let e = parse(src).unwrap();
            let full = !evaluate_nodes(&e, &ctx).unwrap().is_empty();
            let lazy = evaluate_nonempty(&e, &ctx).unwrap();
            assert_eq!(lazy, full, "evaluate_nonempty disagrees on {src}");
        }
        // An atomic value is a one-item sequence even when its EBV is
        // false — the distinction between exists() and boolean().
        let e = parse("''").unwrap();
        assert!(evaluate_nonempty(&e, &ctx).unwrap());
        assert!(!evaluate_exists(&e, &ctx).unwrap());
    }

    #[test]
    fn evaluate_exists_short_circuits_node_visits() {
        let (doc, _) = parse_document(DOC).unwrap();
        let ctx = Context::root(&doc);
        let e = parse("//sub").unwrap();
        xic_obs::reset();
        assert!(evaluate_exists(&e, &ctx).unwrap());
        let lazy = xic_obs::counter(xic_obs::Counter::XpathNodesVisited);
        xic_obs::reset();
        assert!(!evaluate_nodes(&e, &ctx).unwrap().is_empty());
        let full = xic_obs::counter(xic_obs::Counter::XpathNodesVisited);
        assert!(
            lazy < full,
            "existential walk visited {lazy} nodes, full walk {full}"
        );
    }

    #[test]
    fn dedupe_drops_duplicates_without_cache_too() {
        let (doc, _) = parse_document(DOC).unwrap();
        let mut with_cache =
            evaluate_nodes(&parse("//name").unwrap(), &Context::root(&doc)).unwrap();
        let dup = with_cache.clone();
        with_cache.extend(dup);
        let mut no_cache = with_cache.clone();
        dedupe_doc_order(&doc, &mut with_cache);
        let mut plain = doc.clone();
        plain.disable_order_cache();
        dedupe_doc_order(&plain, &mut no_cache);
        assert_eq!(with_cache, no_cache);
        assert_eq!(with_cache.len(), 10);
    }

    #[test]
    fn type_errors() {
        let (doc, _) = parse_document("<r/>").unwrap();
        let ctx = Context::root(&doc);
        assert!(matches!(
            evaluate(&parse("count(1)").unwrap(), &ctx),
            Err(EvalError::Type(_))
        ));
        assert!(matches!(
            evaluate(&parse("1 | 2").unwrap(), &ctx),
            Err(EvalError::Type(_))
        ));
        assert!(matches!(
            evaluate(&parse("frob()").unwrap(), &ctx),
            Err(EvalError::BadCall(_))
        ));
        assert!(matches!(
            evaluate(&parse("position(1)").unwrap(), &ctx),
            Err(EvalError::BadCall(_))
        ));
    }
}
