//! XQuery evaluation: the one-shot entry points (query in, value out)
//! and the AST- and item-level pieces the evaluator in [`crate::ir`]
//! shares.

use crate::ast::XQuery;
use crate::ir::XProgram;
use crate::item::{Constructed, ConstructedChild, Sequence};
use std::fmt;
use xic_xml::{Document, NodeKind};
use xic_xpath::NodeRef;

/// XQuery evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum XQueryError {
    /// Error from an embedded XPath expression.
    XPath(xic_xpath::EvalError),
    /// A value crossed a boundary it cannot cross (e.g. a multi-atomic
    /// sequence used as an XPath variable).
    Type(String),
}

impl fmt::Display for XQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XQueryError::XPath(e) => write!(f, "{e}"),
            XQueryError::Type(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for XQueryError {}

impl From<xic_xpath::EvalError> for XQueryError {
    fn from(e: xic_xpath::EvalError) -> Self {
        XQueryError::XPath(e)
    }
}

impl XQueryError {
    /// True if this failure is step-budget exhaustion (see
    /// `xic_xpath::budget`), i.e. the evaluation was cut short rather
    /// than wrong — callers may retry unbudgeted.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(self, XQueryError::XPath(xic_xpath::EvalError::BudgetExhausted))
    }
}

/// Evaluates a query against a document with no initial bindings: the
/// one-shot entry point (compile, then run on [`XProgram`]). Callers that
/// evaluate one query many times compile it once instead.
pub fn eval_query(q: &XQuery, doc: &Document) -> Result<Sequence, XQueryError> {
    XProgram::compile(q).eval_seq(doc, &[])
}

/// Evaluates a query and reduces the result to its effective boolean
/// value (the form the integrity checker consumes: `true` = violation).
///
/// This is the *materializing* evaluation: it builds the full result
/// sequence first. The checker uses [`eval_query_exists`] instead; this
/// entry point remains as the baseline the benches and the difftest
/// oracle compare against.
pub fn eval_query_bool(q: &XQuery, doc: &Document) -> Result<bool, XQueryError> {
    XProgram::compile(q).eval_bool(doc, &[])
}

/// Existential evaluation: the query's effective boolean value, computed
/// with first-witness short-circuit. Returns exactly what
/// [`eval_query_bool`] returns (the difftest oracle enforces this), but:
///
/// * embedded XPath is evaluated existentially, which stops a path walk
///   at the first node it reaches;
/// * `exists(FLWOR)` stops at the first binding whose `where` clause
///   passes instead of materializing every violation witness;
/// * quantifier `satisfies` conditions are themselves consumed lazily.
///
/// Constraint templates only ever ask "is there a violation witness?",
/// so this is the evaluation mode the [`Checker`] runs on.
///
/// [`Checker`]: ../xicheck/struct.Checker.html
pub fn eval_query_exists(q: &XQuery, doc: &Document) -> Result<bool, XQueryError> {
    XProgram::compile(q).eval_exists(doc, &[])
}

pub(crate) fn node_to_constructed(doc: &Document, n: &NodeRef) -> ConstructedChild {
    match n {
        NodeRef::Attr { .. } => ConstructedChild::Text(n.string_value(doc)),
        NodeRef::Node(id) => match &doc.node(*id).kind {
            NodeKind::Element { name, attrs } => {
                let children = doc
                    .node(*id)
                    .children
                    .iter()
                    .map(|&c| node_to_constructed(doc, &NodeRef::Node(c)))
                    .collect();
                ConstructedChild::Elem(Constructed {
                    name: name.clone(),
                    attrs: attrs.clone(),
                    children,
                })
            }
            _ => ConstructedChild::Text(n.string_value(doc)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::parser::parse_query;
    use xic_xml::parse_document;

    const DOC: &str = "<review>\
        <track><name>DB</name>\
          <rev><name>Ann</name>\
            <sub><title>S1</title><auts><name>Bob</name></auts></sub>\
            <sub><title>S2</title><auts><name>Ann</name></auts></sub>\
          </rev>\
          <rev><name>Dan</name>\
            <sub><title>S3</title><auts><name>Eve</name></auts></sub>\
            <sub><title>S4</title><auts><name>Flo</name></auts></sub>\
            <sub><title>S5</title><auts><name>Gus</name></auts></sub>\
            <sub><title>S6</title><auts><name>Hal</name></auts></sub>\
            <sub><title>S7</title><auts><name>Ivy</name></auts></sub>\
          </rev>\
        </track>\
      </review>";

    fn run_bool(doc_src: &str, query: &str) -> bool {
        let (doc, _) = parse_document(doc_src).unwrap();
        let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
        eval_query_bool(&q, &doc).unwrap_or_else(|e| panic!("{query}: {e}"))
    }

    fn run_seq(doc_src: &str, query: &str) -> Sequence {
        let (doc, _) = parse_document(doc_src).unwrap();
        let q = parse_query(query).unwrap();
        eval_query(&q, &doc).unwrap()
    }

    #[test]
    fn some_satisfies_self_review() {
        // Ann reviews a submission she authored (S2): conflict.
        assert!(run_bool(
            DOC,
            "some $lr in //rev satisfies \
             $lr/sub/auts/name/text() = $lr/name/text()"
        ));
        // Dan does not.
        assert!(!run_bool(
            DOC,
            "some $lr in //rev[name/text() = 'Dan'] satisfies \
             $lr/sub/auts/name/text() = $lr/name/text()"
        ));
    }

    #[test]
    fn flwor_aggregate_threshold() {
        // Dan has 5 subs: violated for > 4.
        assert!(run_bool(
            DOC,
            "exists(for $lr in //rev let $d := $lr/sub where count($d) > 4 return <idle/>)"
        ));
        assert!(!run_bool(
            DOC,
            "exists(for $lr in //rev let $d := $lr/sub where count($d) > 5 return <idle/>)"
        ));
    }

    #[test]
    fn flwor_returns_items_per_binding() {
        let seq = run_seq(DOC, "for $s in //sub return $s/title/text()");
        assert_eq!(seq.len(), 7);
        let seq2 = run_seq(DOC, "for $s in //sub where $s/auts/name = 'Eve' return $s");
        assert_eq!(seq2.len(), 1);
    }

    #[test]
    fn every_quantifier() {
        assert!(run_bool(DOC, "every $s in //sub satisfies count($s/auts) = 1"));
        assert!(!run_bool(DOC, "every $r in //rev satisfies count($r/sub) > 3"));
    }

    #[test]
    fn nested_for_cross_product() {
        let seq = run_seq(DOC, "for $a in //rev, $b in //rev return <idle/>");
        assert_eq!(seq.len(), 4);
    }

    #[test]
    fn if_then_else() {
        let seq = run_seq(DOC, "if (count(//rev) = 2) then 'yes' else 'no'");
        assert_eq!(seq, vec![Item::Str("yes".into())]);
    }

    #[test]
    fn construction_copies_content() {
        let seq = run_seq(DOC, "element wrap { //track/name }");
        assert_eq!(seq.len(), 1);
        match &seq[0] {
            Item::Elem(e) => assert_eq!(e.to_xml(), "<wrap><name>DB</name></wrap>"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequences_and_arithmetic() {
        let seq = run_seq(DOC, "(1, 2, 3)");
        assert_eq!(seq.len(), 3);
        let seq = run_seq(DOC, "count((1, 2, 3)) + 1");
        assert_eq!(seq, vec![Item::Num(4.0)]);
        assert!(run_bool(DOC, "2 * 3 = 6"));
        assert!(run_bool(DOC, "empty(())"));
        assert!(!run_bool(DOC, "exists(())"));
    }

    #[test]
    fn let_binds_full_sequence() {
        let seq = run_seq(
            DOC,
            "for $r in //rev let $titles := $r/sub/title return count($titles)",
        );
        assert_eq!(seq, vec![Item::Num(2.0), Item::Num(5.0)]);
    }

    #[test]
    fn general_comparison_through_variables() {
        assert!(run_bool(
            DOC,
            "some $h in //auts, $r in //rev satisfies \
             $h/name/text() = $r/name/text()"
        ));
    }

    #[test]
    fn union_at_query_level() {
        let seq = run_seq(DOC, "(for $x in //track return $x/name) | //rev/name");
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn paper_full_translation_runs() {
        // Section 6's translated second denial of Example 3 (conflict of
        // interests via coauthorship). DOC has no aut elements, so no
        // violation.
        assert!(!run_bool(
            DOC,
            "some $Ir in //rev, $H in //aut \
             satisfies $H/name/text() = $Ir/name/text() \
             and $H/../aut/name/text() = $Ir/sub/auts/name/text()"
        ));
        // With a pub catalog where Ann coauthored with Bob — and Ann
        // reviews Bob's submission S1 — it fires.
        let both = format!(
            "<all>{}<dblp><pub><title>P</title><aut><name>Ann</name></aut>\
             <aut><name>Bob</name></aut></pub></dblp></all>",
            &DOC
        );
        assert!(run_bool(
            &both,
            "some $Ir in //rev, $H in //aut \
             satisfies $H/name/text() = $Ir/name/text() \
             and $H/../aut/name/text() = $Ir/sub/auts/name/text()"
        ));
    }

    #[test]
    fn eval_query_exists_agrees_with_materializing_bool() {
        let (doc, _) = parse_document(DOC).unwrap();
        for query in [
            "some $lr in //rev satisfies $lr/sub/auts/name/text() = $lr/name/text()",
            "some $lr in //rev[name/text() = 'Dan'] satisfies \
             $lr/sub/auts/name/text() = $lr/name/text()",
            "exists(for $lr in //rev let $d := $lr/sub where count($d) > 4 return <idle/>)",
            "exists(for $lr in //rev let $d := $lr/sub where count($d) > 5 return <idle/>)",
            "every $s in //sub satisfies count($s/auts) = 1",
            "every $r in //rev satisfies count($r/sub) > 3",
            "not(exists(for $z in //zzz return $z))",
            "empty(//zzz)",
            "exists(//rev | //track)",
            "if (count(//rev) = 2) then 'yes' else ''",
            "boolean((for $x in //track return $x/name))",
            "exists(('', ''))",
            "boolean('')",
            "count((1, 2, 3)) + 1",
            "2 >= 3 or count(//sub) = 7",
        ] {
            let q = parse_query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
            let full = eval_query_bool(&q, &doc).unwrap_or_else(|e| panic!("{query}: {e}"));
            let lazy = eval_query_exists(&q, &doc).unwrap_or_else(|e| panic!("{query}: {e}"));
            assert_eq!(lazy, full, "eval_query_exists disagrees on {query}");
        }
    }

    #[test]
    fn existential_flwor_stops_at_first_witness() {
        let (doc, _) = parse_document(DOC).unwrap();
        // Every rev violates the threshold, so the existential mode must
        // stop after binding the first one.
        let q = parse_query(
            "exists(for $lr in //rev let $d := $lr/sub where count($d) > 1 return <idle/>)",
        )
        .unwrap();
        xic_obs::reset();
        assert!(eval_query_exists(&q, &doc).unwrap());
        let lazy = xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited);
        xic_obs::reset();
        assert!(eval_query_bool(&q, &doc).unwrap());
        let full = xic_obs::counter(xic_obs::Counter::XqueryBindingsVisited);
        assert_eq!(lazy, 1, "short-circuit after the first violating rev");
        assert_eq!(full, 2, "materializer enumerates every rev");
    }

    #[test]
    fn type_errors_surface() {
        let (doc, _) = parse_document("<r/>").unwrap();
        let q = parse_query("('a', 'b') = 'a'").unwrap();
        assert!(matches!(
            eval_query(&q, &doc),
            Err(XQueryError::Type(_))
        ));
        let q2 = parse_query("1 | 2").unwrap();
        assert!(eval_query(&q2, &doc).is_err());
    }
}
