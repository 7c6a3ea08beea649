//! Observability-layer integration: the checker's phases and counters as
//! seen through `xic-obs` snapshots.
//!
//! The obs sink is thread-local, and the Rust test harness runs each
//! `#[test]` on its own thread, so these tests cannot bleed into each
//! other even when run in parallel.

use xicheck::obs::{self, Counter};
use xicheck::{Checker, Strategy};

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

const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
    & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])";

fn insert_sub(rev_sel: &str, author: &str) -> String {
    format!(
        r#"<xupdate:modifications xmlns:xupdate="http://www.xmldb.org/xupdate">
          <xupdate:append select="{rev_sel}">
            <sub><title>New</title><auts><name>{author}</name></auts></sub>
          </xupdate:append>
        </xupdate:modifications>"#
    )
}

#[test]
fn pattern_cache_hits_after_first_compile() {
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    obs::reset();
    // First statement of this shape: compiled on sight (miss).
    let out = c
        .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe"))
        .unwrap();
    assert!(out.applied());
    assert_eq!(c.stats().pattern_cache_misses, 1);
    assert_eq!(c.stats().pattern_cache_hits, 0);
    // Same pattern again (different parameters): cache hit, no recompile.
    let out = c
        .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "yan"))
        .unwrap();
    assert!(out.applied());
    assert_eq!(c.stats().pattern_cache_misses, 1);
    assert_eq!(c.stats().pattern_cache_hits, 1);

    let snap = obs::snapshot();
    assert_eq!(snap.counter(Counter::PatternCacheMiss), 1);
    assert_eq!(snap.counter(Counter::PatternCacheHit), 1);
    // Exactly one compile phase ran, with its nested sub-phases.
    for path in ["compile", "compile/after", "compile/optimize", "compile/translate"] {
        let p = snap.phase(path).unwrap_or_else(|| panic!("missing {path}"));
        assert_eq!(p.calls, 1, "{path}");
    }
}

#[test]
fn counters_survive_try_update_round_trip() {
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    obs::reset();
    // An illegal statement: optimized check fires, nothing is applied.
    let out = c
        .try_update_str(&insert_sub("//rev[name/text() = 'ann']", "ann"))
        .unwrap();
    assert!(!out.applied());
    assert_eq!(out.strategy(), Strategy::Optimized);

    let snap = obs::snapshot();
    // The evaluators reported work under check/optimized...
    assert!(snap.counter(Counter::XpathNodesVisited) > 0);
    assert!(snap.phase("check/optimized").is_some());
    // ...and the simplifier reported its clause accounting during compile.
    assert!(snap.counter(Counter::ClausesExpanded) > 0);
    assert!(
        snap.counter(Counter::ClausesSurviving) <= snap.counter(Counter::ClausesExpanded),
        "optimize can only shrink the clause set"
    );
    // No update was executed, so no apply/rollback spans exist.
    assert!(snap.phase("update/apply").is_none());
    assert!(snap.phase("update/rollback").is_none());

    // A legal statement through the same path does apply.
    let out = c
        .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe"))
        .unwrap();
    assert!(out.applied());
    let snap = obs::snapshot();
    assert_eq!(snap.phase("update/apply").map(|p| p.calls), Some(1));
    // Counters accumulated across both calls (monotonic).
    assert!(snap.counter(Counter::XpathNodesVisited) > 0);
}

#[test]
fn baseline_path_records_full_check_and_rollback() {
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    obs::reset();
    // A rename is not an insertion: baseline apply + full check; rewriting
    // Cat's name to Ann makes it a self-review, so it rolls back.
    let out = c
        .try_update_str(
            r#"<xupdate:modifications xmlns:xupdate="x">
              <xupdate:update select="//rev[name/text() = 'ann']/sub/auts/name">ann</xupdate:update>
            </xupdate:modifications>"#,
        )
        .unwrap();
    assert!(!out.applied());
    assert_eq!(out.strategy(), Strategy::FullWithRollback);

    let snap = obs::snapshot();
    assert_eq!(snap.phase("update/apply").map(|p| p.calls), Some(1));
    assert_eq!(snap.phase("update/rollback").map(|p| p.calls), Some(1));
    assert_eq!(snap.phase("check/full").map(|p| p.calls), Some(1));
    assert!(snap.phase("check/optimized").is_none());
}

#[test]
fn snapshot_round_trips_through_json_with_live_data() {
    let mut c = Checker::new(CORPUS, DTD, CONFLICT).unwrap();
    obs::reset();
    let _ = c
        .try_update_str(&insert_sub("//rev[name/text() = 'dan']", "zoe"))
        .unwrap();
    let snap = obs::snapshot();
    let text = snap.to_json();
    let back = obs::Snapshot::from_json(&text).expect("parse own output");
    assert_eq!(back, snap);
}

#[test]
fn exists_short_circuit_reduces_nodes_visited() {
    // One overloaded reviewer (3 subs) followed by three compliant ones:
    // the existential check must stop at the first witness, the
    // materializing baseline enumerates every reviewer binding.
    fn sub(t: &str, a: &str) -> String {
        format!("<sub><title>{t}</title><auts><name>{a}</name></auts></sub>")
    }
    let corpus = format!(
        "<collection><dblp><pub><title>P1</title><aut><name>ann</name></aut></pub></dblp>\
         <review><track><name>T</name>\
         <rev><name>r1</name>{}{}{}</rev>\
         <rev><name>r2</name>{}</rev>\
         <rev><name>r3</name>{}</rev>\
         <rev><name>r4</name>{}</rev>\
         </track></review></collection>",
        sub("a", "u1"),
        sub("b", "u2"),
        sub("c", "u3"),
        sub("d", "u4"),
        sub("e", "u5"),
        sub("f", "u6"),
    );
    let c = Checker::new(&corpus, DTD, "<- //rev -> R & cnt{R/sub} > 2").unwrap();

    obs::reset();
    assert!(c.check_full().unwrap().is_some(), "r1 is overloaded");
    let lazy = obs::snapshot();

    // The materializing evaluation of the same translated query.
    let query = xic_xquery::parse_query(&c.full_queries()[0].text).unwrap();
    obs::reset();
    assert!(xic_xquery::eval_query_bool(&query, c.doc()).unwrap());
    let eager = obs::snapshot();

    assert!(
        lazy.counter(Counter::XqueryBindingsVisited)
            < eager.counter(Counter::XqueryBindingsVisited),
        "short-circuit must visit fewer reviewer bindings ({} vs {})",
        lazy.counter(Counter::XqueryBindingsVisited),
        eager.counter(Counter::XqueryBindingsVisited),
    );
    assert!(
        lazy.counter(Counter::XpathNodesVisited) <= eager.counter(Counter::XpathNodesVisited),
        "short-circuit must not visit more nodes ({} vs {})",
        lazy.counter(Counter::XpathNodesVisited),
        eager.counter(Counter::XpathNodesVisited),
    );
    assert!(lazy.phase("check/full").is_some());
}
