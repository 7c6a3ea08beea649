//! `Checker` error paths: malformed inputs must surface as the right
//! [`CheckerError`] variant, and — crucially — must leave the document
//! byte-identical and the name index intact.

use xic_xml::serialize;
use xicheck::{Checker, CheckerError, Strategy};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

const CORPUS: &str = "<collection><dblp>\
    <pub><title>P1</title><aut><name>ann</name></aut></pub>\
    </dblp><review><track><name>T</name>\
    <rev><name>dan</name><sub><title>S</title><auts><name>eve</name></auts></sub></rev>\
    </track></review></collection>";

const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A & A = R";

fn checker() -> Checker {
    Checker::new(CORPUS, DTD, CONFLICT).unwrap()
}

#[test]
fn malformed_xupdate_is_statement_error_and_leaves_doc_untouched() {
    let mut c = checker();
    let before = serialize(c.doc());
    for bad in [
        "<not-xupdate/>",
        "<xupdate:modifications xmlns:xupdate=\"x\"><xupdate:frobnicate select=\"/a\"/></xupdate:modifications>",
        "<xupdate:modifications xmlns:xupdate=\"x\"><xupdate:append><sub/></xupdate:append></xupdate:modifications>",
        "not even xml <<<",
    ] {
        let err = c.try_update_str(bad).unwrap_err();
        assert!(matches!(err, CheckerError::Statement(_)), "{bad}: {err}");
        assert_eq!(serialize(c.doc()), before, "document mutated by {bad}");
        c.doc().audit_symbols().expect("symbols intact");
    }
}

/// Seed 100287, minimized. The second `select` names the `e2` the first
/// operation inserts in front of the only one, so once the first has run
/// it finds a different `e2[1]`, one with no `e4`, and `apply` fails.
/// Resolved against the state before both, it found the old `e2`, and the
/// optimized check decided a statement that never applies.
#[test]
fn a_later_select_that_could_observe_an_earlier_op_takes_the_baseline() {
    let dtd = "<!ELEMENT e0 (e1?, e2, e4?)> <!ELEMENT e1 (e4?)> <!ELEMENT e2 (e3, e4?)> \
               <!ELEMENT e3 (#PCDATA)> <!ELEMENT e4 (#PCDATA)>";
    let doc = "<e0><e2><e3>beta</e3><e4>forbidden</e4></e2></e0>";
    let gamma = "<- //e2/e3/text() -> V & V = \"forbidden\" . \
                 <- cntd{[V]; //e2[e3/text() -> V]} > 1 & cntd{[V]; //e2[e3/text() -> V]} >= 1";
    let stmt = xic_xml::XUpdateDoc::parse(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:insert-before select=\"/e0/e2[1]\"><e2><e3>beta</e3></e2></xupdate:insert-before>\
         <xupdate:insert-before select=\"/e0/e2[1]/e4[1]\"><e4>gamma</e4></xupdate:insert-before>\
         </xupdate:modifications>",
    )
    .unwrap();
    let mut c = Checker::new(doc, dtd, gamma).unwrap();
    let reason = c.decide_only(&stmt, Strategy::Optimized).unwrap_err();
    assert!(reason.to_string().contains("operation 2 could observe"), "{reason}");
    let baseline = c.decide_only(&stmt, Strategy::FullWithRollback);
    let Err(CheckerError::Statement(failed)) = &baseline else {
        panic!("the second select matches nothing after the first op: {baseline:?}");
    };
    assert!(failed.contains("matched no nodes"), "{failed}");
    let outcome = c.try_update(&stmt);
    assert_eq!(format!("{outcome:?}"), format!("{baseline:?}"));
    assert_eq!(serialize(c.doc()), doc);
}

#[test]
fn unmatched_select_is_statement_error_and_rolls_back_partial_state() {
    let mut c = checker();
    let before = serialize(c.doc());
    // Op 1 applies, op 2's select matches nothing: the checker must undo
    // the partial batch before reporting the error.
    let err = c
        .try_update_str(
            r#"<xupdate:modifications xmlns:xupdate="x">
                 <xupdate:update select="//rev/name">mallory</xupdate:update>
                 <xupdate:remove select="//no-such-element"/>
               </xupdate:modifications>"#,
        )
        .unwrap_err();
    assert!(matches!(err, CheckerError::Statement(_)), "{err}");
    assert_eq!(serialize(c.doc()), before, "partial batch not rolled back");
    c.doc().audit_symbols().expect("symbols intact");
}

#[test]
fn bad_constraint_is_setup_error() {
    for bad in [
        "<- //rev ->",                 // dangling binding
        "this is not xpathlog",        // no denial at all
        "<- cntd{[R]; //rev}",         // aggregate without comparison
    ] {
        match Checker::new(CORPUS, DTD, bad) {
            Err(CheckerError::Setup(_)) => {}
            Err(other) => panic!("{bad}: wrong error {other}"),
            Ok(_) => panic!("{bad}: constraint accepted"),
        }
    }
}

#[test]
fn invalid_document_or_dtd_is_setup_error() {
    // Document violating the DTD.
    let invalid = "<collection><dblp/><review><track><name>T</name></track></review></collection>";
    assert!(matches!(
        Checker::new(invalid, DTD, CONFLICT),
        Err(CheckerError::Setup(_))
    ));
    // Unparseable DTD.
    assert!(matches!(
        Checker::new(CORPUS, "<!GARBAGE>", CONFLICT),
        Err(CheckerError::Setup(_))
    ));
    // Unparseable document.
    assert!(matches!(
        Checker::new("<collection>", DTD, CONFLICT),
        Err(CheckerError::Setup(_))
    ));
}

#[test]
fn decide_only_never_mutates() {
    let c = checker();
    let before = serialize(c.doc());
    // A legal insertion: accepted by both strategies, document untouched.
    let legal = xic_xml::XUpdateDoc::parse(
        r#"<xupdate:modifications xmlns:xupdate="x">
             <xupdate:append select="//rev[name/text() = 'dan']">
               <sub><title>N</title><auts><name>zoe</name></auts></sub>
             </xupdate:append>
           </xupdate:modifications>"#,
    )
    .unwrap();
    let opt = c.decide_only(&legal, Strategy::Optimized).unwrap();
    let full = c.decide_only(&legal, Strategy::FullWithRollback).unwrap();
    assert!(opt.is_none() && full.is_none());
    assert_eq!(serialize(c.doc()), before);
    // An illegal insertion: rejected by both strategies, document untouched.
    let illegal = xic_xml::XUpdateDoc::parse(
        r#"<xupdate:modifications xmlns:xupdate="x">
             <xupdate:append select="//rev[name/text() = 'dan']">
               <sub><title>N</title><auts><name>dan</name></auts></sub>
             </xupdate:append>
           </xupdate:modifications>"#,
    )
    .unwrap();
    let opt = c.decide_only(&illegal, Strategy::Optimized).unwrap();
    let full = c.decide_only(&illegal, Strategy::FullWithRollback).unwrap();
    assert!(opt.is_some() && full.is_some());
    assert_eq!(serialize(c.doc()), before);
    // A statement that fails mid-application: error, still untouched.
    let broken = xic_xml::XUpdateDoc::parse(
        r#"<xupdate:modifications xmlns:xupdate="x">
             <xupdate:rename select="//rev/name">alias</xupdate:rename>
             <xupdate:remove select="//vanished"/>
           </xupdate:modifications>"#,
    )
    .unwrap();
    let err = c.decide_only(&broken, Strategy::FullWithRollback).unwrap_err();
    assert!(matches!(err, CheckerError::Statement(_)), "{err}");
    assert_eq!(serialize(c.doc()), before);
    c.doc().audit_symbols().expect("symbols intact");
}

/// A statement nested 100 000 levels deep is parsed, mapped, applied,
/// written back out and dropped on a 256 KiB stack: every walk over what
/// it inserts is a loop over a flat list. It gets the answer any other
/// statement gets, and the server stays healthy.
#[test]
fn a_hundred_thousand_level_statement_is_answered_on_a_small_stack() {
    use xicheck::protocol::{execute, parse_command};
    use xicheck::{CheckerService, Executor};
    const DEPTH: usize = 100_000;
    let chain = |leaf: &str| format!("{}{leaf}{}", "<x>".repeat(DEPTH), "</x>".repeat(DEPTH));
    let append = |content: String| {
        format!(
            "<xupdate:modifications xmlns:xupdate=\"x\"><xupdate:append \
             select=\"/collection/review/track[1]/rev[1]\">{content}</xupdate:append>\
             </xupdate:modifications>"
        )
    };
    // A chain no relation maps, which the baseline decides, and one inside
    // a column's value, which the pre-update check decides.
    let unmapped = append(chain("leaf"));
    let in_a_column =
        append(format!("<sub><title>{}</title><auts><name>zed</name></auts></sub>", chain("t")));
    let replies = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let service = CheckerService::new(checker(), Executor::Sync);
            let mut replies = Vec::new();
            for stmt in [unmapped, in_a_column] {
                let parsed = xic_xml::XUpdateDoc::parse(&stmt).expect("the statement parses");
                let written = xic_xml::XUpdateDoc::parse(&parsed.to_xml()).expect("and re-parses");
                assert!(written == parsed, "the statement round-trips");
                let request = parse_command(&format!("UPDATE {stmt}")).expect("a request");
                replies.push(execute(&service, &request).render());
            }
            for request in ["CHECK", "HEALTH"] {
                let request = parse_command(request).expect("a request");
                replies.push(execute(&service, &request).render());
            }
            replies
        })
        .expect("thread spawns")
        .join()
        .expect("no walk overflows the stack");
    assert_eq!(
        replies,
        ["OK 1 APPLIED full-with-rollback", "OK 2 APPLIED optimized", "OK 2 CONSISTENT", "OK 2 ok"]
    );
}

/// Difftest seed 84, minimized: an insertion aimed at the root element,
/// which would make a second root. `apply` refuses it, but the pre-update
/// check decided it without applying it — and rejected it, since the new
/// `e2` has two `e5`s — so one strategy answered REJECTED and the other
/// ERR. The mapping now refuses what `apply` refuses, and the baseline
/// gives the answer.
#[test]
fn an_insertion_aimed_where_it_is_undefined_is_refused_by_both_strategies() {
    let dtd = "<!ELEMENT e0 (e1, e4)> <!ELEMENT e1 (e2, e5*)> <!ELEMENT e2 (e3?, e4, e5+)> \
               <!ELEMENT e3 (#PCDATA)> <!ELEMENT e4 (#PCDATA)> <!ELEMENT e5 (#PCDATA)>";
    let doc = "<e0><e1><e2><e4>forbidden</e4><e5>gamma</e5></e2></e1><e4>k2</e4></e0>";
    let gamma = "<- //e2 -> X & cnt{X/e5} > 1";
    let stmt = xic_xml::XUpdateDoc::parse(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:insert-before select=\"/e0\"><e1><e2><e4>delta</e4><e5>beta</e5>\
         <e5>forbidden</e5></e2></e1></xupdate:insert-before></xupdate:modifications>",
    )
    .unwrap();
    let refused = "XUpdate error: cannot insert before the root element (select \"/e0\")";
    for strategy in [Strategy::Optimized, Strategy::FullWithRollback] {
        let c = Checker::new(doc, dtd, gamma).unwrap();
        let err = c.decide_only(&stmt, strategy).unwrap_err();
        let refused_here = matches!(&err, CheckerError::Statement(m) if m.contains(refused));
        assert!(refused_here, "{strategy:?}: {err}");
    }
    let mut c = Checker::new(doc, dtd, gamma).unwrap();
    let err = c.try_update(&stmt).unwrap_err();
    assert!(matches!(&err, CheckerError::Statement(m) if m.contains(refused)), "{err}");
    assert_eq!(serialize(c.doc()), doc);
}
