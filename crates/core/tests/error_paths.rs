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
    let mut c = checker();
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
