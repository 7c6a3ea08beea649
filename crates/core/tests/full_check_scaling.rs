//! The full check over the suite's Γ (conflict of interests, conference
//! workload, review load) answered from keyed sequences: how its work
//! grows with the document, by counts — engine steps repeat exactly, so
//! nothing here can flake on a slow host — and that what it reports, in
//! which order, and how it runs out of budget are what the nested-loop
//! evaluation reported.

use xic_workload::{
    conflict_constraint, generate, review_load_constraint, workload_constraint, WorkloadConfig,
};
use xicheck::obs::{self, Counter};
use xicheck::{Checker, CheckerError, EvalBudget, Violation, XUpdateDoc};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

/// The suite's Γ with the two aggregate bounds at `max_subs`.
fn gamma(max_subs: usize) -> String {
    format!(
        "{}. {}. {}",
        conflict_constraint(),
        workload_constraint(2, max_subs),
        review_load_constraint(max_subs)
    )
}

/// The engine steps of one `check_full`: every node an XPath walk
/// considered and every binding a loop iterated — the events the step
/// budget charges.
fn full_check_steps(c: &Checker) -> u64 {
    obs::reset();
    assert_eq!(c.check_full().expect("check runs"), None);
    obs::counter(Counter::XpathNodesVisited) + obs::counter(Counter::XqueryBindingsVisited)
}

#[test]
fn full_check_work_grows_linearly_with_the_document() {
    let steps: Vec<(usize, u64)> = [16, 32, 64]
        .into_iter()
        .map(|kib| {
            let w = generate(WorkloadConfig::sized_kib(kib, 1));
            let c = Checker::new(&w.xml, DTD, &gamma(100_000)).expect("corpus loads");
            (c.doc().node_count(), full_check_steps(&c))
        })
        .collect();
    for pair in steps.windows(2) {
        let ((nodes, before), (doubled, after)) = (pair[0], pair[1]);
        // ×1.97 and ×2.02; the nested-loop joins read ×3.41 and ×4.08.
        assert!(
            after as f64 <= 2.3 * before as f64,
            "{nodes} → {doubled} nodes took {before} → {after} steps"
        );
    }
    // Four queries, each a fixed number of document walks plus what its
    // join adds per reviewer: ≈ 17 steps a node (the nested loops took 422).
    let (nodes, last) = steps[2];
    assert!(last < 20 * nodes as u64, "{last} steps over {nodes} nodes");
}

/// Two tracks, four reviewers; only `dan` reviews in both. Nobody reviews
/// a paper of their own or of a co-author.
const CORPUS: &str = "<collection><dblp>\
    <pub><title>P1</title><aut><name>ann</name></aut><aut><name>bob</name></aut></pub>\
    <pub><title>P2</title><aut><name>gus</name></aut></pub>\
    </dblp><review>\
    <track><name>T1</name>\
    <rev><name>ann</name><sub><title>S1</title><auts><name>cat</name></auts></sub></rev>\
    <rev><name>dan</name><sub><title>S2</title><auts><name>eve</name></auts></sub>\
    <sub><title>S3</title><auts><name>flo</name></auts></sub></rev>\
    </track><track><name>T2</name>\
    <rev><name>dan</name><sub><title>S4</title><auts><name>gus</name></auts></sub></rev>\
    <rev><name>zoe</name><sub><title>S5</title><auts><name>hal</name></auts></sub></rev>\
    </track></review></collection>";

fn append(select: &str, content: &str) -> String {
    format!(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:append select=\"{select}\">{content}</xupdate:append>\
         </xupdate:modifications>"
    )
}

fn sub_by(author: &str) -> String {
    format!("<sub><title>New</title><auts><name>{author}</name></auts></sub>")
}

fn violation(denial: &str, query: &str) -> Violation {
    Violation { denial: denial.to_string(), query: query.to_string() }
}

/// The four denials Γ maps to (the conflict constraint's disjunction
/// makes two), each with its full-check query, in constraint order.
fn reports(max_subs: usize) -> [Violation; 4] {
    [
        violation(
            "<- rev(_m1, _m2, _m0, R) & sub(_m4, _m5, _m1, _m6) & auts(_m7, _m8, _m4, R)",
            "some $_m1 in //rev satisfies $_m1/name/text() = $_m1/sub/auts/name/text()",
        ),
        violation(
            "<- rev(_m1, _m2, _m0, R) & sub(_m4, _m5, _m1, _m6) & auts(_m7, _m8, _m4, A) & \
             aut(_m14, _m15, _m11, A) & aut(_m17, _m18, _m11, R)",
            "some $_m1 in //rev, $_m14 in //aut satisfies \
             $_m1/sub/auts/name/text() = $_m14/name/text() and \
             $_m1/name/text() = $_m14/../aut/name/text()",
        ),
        violation(
            &format!(
                "<- cntd(_m1; track(_m1, _m2, _m0, _m3), rev(_m4, _m5, _m1, R)) >= 2 & \
                 cntd(_m11; rev(_m8, _m9, _m7, R), sub(_m11, _m12, _m8, _m13)) > {max_subs}"
            ),
            &format!(
                "exists(for $R in distinct-values(//rev/name/text()) \
                 let $agg0 := //track[rev[name/text() = $R]] \
                 let $agg1 := //rev[name/text() = $R]/sub \
                 where count($agg0) >= 2 and count($agg1) > {max_subs} return <idle/>)"
            ),
        ),
        violation(
            &format!("<- rev(R, _m1, _m0, _m2) & cnt(; sub(_m3, _m4, R, _m5)) > {max_subs}"),
            &format!(
                "exists(for $R in //rev let $agg0 := $R/sub where count($agg0) > {max_subs} \
                 return <idle/>)"
            ),
        ),
    ]
}

#[test]
fn violations_are_reported_as_before_and_in_constraint_order() {
    const ANN: &str = "/collection/review/track[1]/rev[1]";
    const DAN: &str = "/collection/review/track[1]/rev[2]";
    const ZOE: &str = "/collection/review/track[2]/rev[2]";
    let [self_review, coauthor, workload, load] = reports(3);
    let three_more: String = ["ida", "jon", "kim"].iter().map(|a| sub_by(a)).collect();
    for (statements, report) in [
        (vec![], None),
        // Only the second conflict query sees a co-author pair.
        (vec![append(ANN, &sub_by("bob"))], Some(&coauthor)),
        // dan reviews 3 + 1 = 4 > 3 across two tracks, no rev more than 3:
        // the grouped aggregate alone.
        (vec![append(DAN, &sub_by("ida"))], Some(&workload)),
        // zoe reviews 4 > 3 in one track: the per-rev bound alone.
        (vec![append(ZOE, &three_more)], Some(&load)),
        // Both bounds broken at once: the workload denial comes first…
        (vec![append(DAN, &sub_by("ida")), append(DAN, &sub_by("jon"))], Some(&workload)),
        // …a co-author conflict beside them before either…
        (
            vec![append(ZOE, &three_more), append(DAN, &sub_by("ida")), append(ANN, &sub_by("bob"))],
            Some(&coauthor),
        ),
        // …and a self-review before that.
        (vec![append(ANN, &sub_by("bob")), append(DAN, &sub_by("dan"))], Some(&self_review)),
    ] {
        let mut c = Checker::new(CORPUS, DTD, &gamma(3)).expect("corpus loads");
        for s in &statements {
            c.apply_unchecked(&XUpdateDoc::parse(s).expect("statement parses")).expect("applies");
        }
        assert_eq!(c.check_full().expect("check runs").as_ref(), report, "after {statements:?}");
    }
}

#[test]
fn a_budget_short_of_the_whole_check_is_reported_as_exhausted() {
    // Every allowance short of what the check takes — wherever it runs
    // out: in a document walk, while a source is keyed, between two
    // probes — is a `BudgetExhausted`, never a verdict and never another
    // error; the exact allowance passes.
    let c = Checker::new(CORPUS, DTD, &gamma(3)).expect("corpus loads");
    // The first check builds the indexes Γ's keyed steps ask the document
    // for, and is charged their members once; the sweep is over the
    // checks after it, which all take the same steps.
    assert!(full_check_steps(&c) > full_check_steps(&c));
    let steps = full_check_steps(&c);
    for allowance in 0..steps {
        let _armed = xic_xpath::budget::arm(EvalBudget::new(allowance));
        assert!(
            matches!(c.check_full(), Err(CheckerError::BudgetExhausted)),
            "allowance {allowance} of {steps}: {:?}",
            c.check_full()
        );
    }
    let _armed = xic_xpath::budget::arm(EvalBudget::new(steps));
    assert_eq!(c.check_full().expect("the exact allowance suffices"), None);
}
