//! Compiled checks belong to the compiled Γ ([`SharedGamma`]): checkers
//! over one Γ share its pattern store, and checkers over two Γs never
//! share one, even where the two schemas give a statement the same
//! pattern key.

use xic_workload::{conflict_constraint, review_load_constraint};
use xicheck::{Checker, SharedGamma, Strategy, UpdateOutcome};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

const CORPUS: &str = "<collection><dblp>\
    <pub><title>P1</title><aut><name>ann</name></aut><aut><name>bob</name></aut></pub>\
    </dblp><review><track><name>T</name>\
    <rev><name>ann</name><sub><title>S1</title><auts><name>cat</name></auts></sub></rev>\
    <rev><name>dan</name><sub><title>S2</title><auts><name>eve</name></auts></sub></rev>\
    </track></review></collection>";

/// A submission by `author` appended under `reviewer`'s `rev`.
fn insert_sub(reviewer: &str, author: &str) -> String {
    format!(
        r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="//rev[name/text() = '{reviewer}']">
            <sub><title>New</title><auts><name>{author}</name></auts></sub>
          </xupdate:append>
        </xupdate:modifications>"#
    )
}

/// Update patterns this thread compiled (`Simp`'s `After` pass, once a
/// compile).
fn compiles() -> u64 {
    xicheck::obs::snapshot().phase("compile/after").map_or(0, |p| p.calls)
}

/// The second checker over a Γ finds the pattern the first compiled, and
/// decides with it without compiling it again.
#[test]
fn checkers_over_one_gamma_share_compiled_patterns() {
    let gamma = SharedGamma::compile(DTD, conflict_constraint()).expect("Γ compiles");
    let mut first = Checker::from_shared(CORPUS, &gamma).expect("corpus loads");
    let mut second = Checker::from_shared(CORPUS, &gamma).expect("corpus loads");
    let out = first.try_update_str(&insert_sub("dan", "zoe")).expect("decides");
    assert!(out.applied() && out.strategy() == Strategy::Optimized, "{out:?}");
    assert_eq!(second.patterns().count(), 1, "the second checker sees the first's pattern");

    let compiles_before = compiles();
    let out = second.try_update_str(&insert_sub("dan", "yan")).expect("decides");
    assert!(out.applied() && out.strategy() == Strategy::Optimized, "{out:?}");
    assert_eq!(compiles(), compiles_before, "the second checker compiled the pattern again");
    assert_eq!(gamma.patterns().len(), 1, "one pattern, compiled once");
}

/// A review-load bound and the conflict constraint, over one DTD, give
/// Ann's self-review the same pattern key. The load checker compiling that
/// shape must not hand its checks — which let the insert through — to the
/// conflict checker, which must still reject it before executing it.
#[test]
fn checkers_over_two_gammas_never_share_compiled_checks() {
    let load = SharedGamma::compile(DTD, &review_load_constraint(100)).expect("Γ compiles");
    let conflict = SharedGamma::compile(DTD, conflict_constraint()).expect("Γ compiles");
    let self_review = insert_sub("ann", "ann");
    let mut loaded = Checker::from_shared(CORPUS, &load).expect("corpus loads");
    let key = loaded.register_pattern_str(&self_review).expect("pattern compiles");
    assert_eq!(load.patterns().len(), 1);
    assert!(conflict.patterns().is_empty(), "a pattern crossed from one Γ to another");

    let mut checker = Checker::from_shared(CORPUS, &conflict).expect("corpus loads");
    let compiles_before = compiles();
    let out = checker.try_update_str(&self_review).expect("decides");
    let UpdateOutcome::Rejected { strategy: Strategy::Optimized, violation } = &out else {
        panic!("Ann may not review her own submission: {out:?}");
    };
    assert!(violation.denial.contains("rev"), "{violation}");
    assert_eq!(compiles() - compiles_before, 1, "the conflict Γ compiles its own");
    assert!(checker.patterns().all(|p| p.key == key), "the same shape, the same key");
    assert_eq!(checker.check_full().expect("checks"), None, "the document stays consistent");
    assert!(loaded.try_update_str(&self_review).expect("decides").applied());
}

/// The unmasked reference is a Γ compiled with the analysis off; nothing
/// switches it afterwards.
#[test]
fn the_independence_setting_is_fixed_when_gamma_is_compiled() {
    let masked = SharedGamma::compile(DTD, conflict_constraint()).expect("Γ compiles");
    let unmasked = SharedGamma::compile_unmasked(DTD, conflict_constraint()).expect("Γ compiles");
    assert!(Checker::from_shared(CORPUS, &masked).expect("corpus loads").independence());
    assert!(!Checker::from_shared(CORPUS, &unmasked).expect("corpus loads").independence());
    assert!(Checker::new(CORPUS, DTD, conflict_constraint()).expect("loads").independence());
}
