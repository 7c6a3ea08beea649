//! Expected verdicts of the query engine on every checker entry point:
//! decisions, violation reports, final document states, and the
//! statements on which the optimized and the baseline strategy once
//! disagreed. The verdict and report goldens are what the tree-walking
//! interpreter (retired at PR 14) answered for the same statements.

use xicheck::{
    Checker, CheckerError, CheckerService, Executor, Strategy, UpdateOutcome, Violation,
    XUpdateDoc,
};

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

fn checker() -> Checker {
    Checker::new(CORPUS, DTD, CONFLICT).unwrap()
}

fn violation(denial: &str, query: &str) -> Violation {
    Violation {
        denial: denial.to_string(),
        query: query.to_string(),
    }
}

const REV1: &str = "/collection/review[1]/track[1]/rev[1]";

/// The simplified self-review check of an insertion under the first rev.
fn self_review_optimized() -> Violation {
    violation(
        "<- rev($t0, _m2, _m0, $v4)",
        &format!("exists({REV1}/self::rev) and {REV1}/name/text() = \"ann\""),
    )
}

/// The simplified co-author check of the same insertion.
fn coauthor_optimized() -> Violation {
    violation(
        "<- rev($t0, _m2, _m0, R) & aut(_m14, _m15, _m11, $v4) & aut(_m17, _m18, _m11, R)",
        &format!(
            "some $_m14 in //aut satisfies exists({REV1}/self::rev) and \
             $_m14/name/text() = \"bob\" and {REV1}/name/text() = $_m14/../aut/name/text()"
        ),
    )
}

fn self_review_full() -> Violation {
    violation(
        "<- rev(_m1, _m2, _m0, R) & sub(_m4, _m5, _m1, _m6) & auts(_m7, _m8, _m4, R)",
        "some $_m1 in //rev satisfies $_m1/name/text() = $_m1/sub/auts/name/text()",
    )
}

fn coauthor_full() -> Violation {
    violation(
        "<- rev(_m1, _m2, _m0, R) & sub(_m4, _m5, _m1, _m6) & auts(_m7, _m8, _m4, A) & \
         aut(_m14, _m15, _m11, A) & aut(_m17, _m18, _m11, R)",
        "some $_m1 in //rev, $_m14 in //aut satisfies \
         $_m1/sub/auts/name/text() = $_m14/name/text() and \
         $_m1/name/text() = $_m14/../aut/name/text()",
    )
}

/// The statements under test: a legal insert, a self-review conflict, a
/// co-author conflict, and a non-insertion batch that forces the baseline
/// strategy.
fn statements() -> Vec<String> {
    vec![
        insert_sub("//rev[name/text() = 'dan']", "zoe"),
        insert_sub("//rev[name/text() = 'ann']", "ann"),
        insert_sub("//rev[name/text() = 'ann']", "bob"),
        r#"<xupdate:modifications xmlns:xupdate="x">
           <xupdate:update select="//track/name">T2</xupdate:update>
           </xupdate:modifications>"#
            .to_string(),
    ]
}

#[test]
fn try_update_verdicts() {
    let zoe_sub = "<sub><title>S2</title><auts><name>eve</name></auts></sub>\
        <sub><title>New</title><auts><name>zoe</name></auts></sub>";
    let expected = [
        (Strategy::Optimized, None, CORPUS.replace(
            "<sub><title>S2</title><auts><name>eve</name></auts></sub>",
            zoe_sub,
        )),
        (Strategy::Optimized, Some(self_review_optimized()), CORPUS.to_string()),
        (Strategy::Optimized, Some(coauthor_optimized()), CORPUS.to_string()),
        (Strategy::FullWithRollback, None, CORPUS.replace("<name>T</name>", "<name>T2</name>")),
    ];
    for (stmt, (strategy, rejected, doc)) in statements().iter().zip(expected) {
        let mut c = checker();
        let out = c.try_update_str(stmt).unwrap();
        assert_eq!(out.strategy(), strategy, "stmt: {stmt}");
        match (out, rejected) {
            (UpdateOutcome::Applied { .. }, None) => {}
            (UpdateOutcome::Rejected { violation, .. }, Some(v)) => assert_eq!(violation, v),
            (out, rejected) => panic!("{out:?} but expected violation {rejected:?} for {stmt}"),
        }
        assert_eq!(xic_xml::serialize(c.doc()), doc, "final document for {stmt}");
    }
}

#[test]
fn decide_only_verdicts_per_strategy() {
    let expected: [[Result<Option<Violation>, &str>; 2]; 4] = [
        [Ok(None), Ok(None)],
        [Ok(Some(self_review_optimized())), Ok(Some(self_review_full()))],
        [Ok(Some(coauthor_optimized())), Ok(Some(coauthor_full()))],
        [
            Err("bad statement: only insertion statements can be mapped to update patterns"),
            Ok(None),
        ],
    ];
    for (stmt, per_strategy) in statements().iter().zip(expected) {
        let parsed = XUpdateDoc::parse(stmt).unwrap();
        for (strategy, want) in
            [Strategy::Optimized, Strategy::FullWithRollback].into_iter().zip(per_strategy)
        {
            let got = checker().decide_only(&parsed, strategy).map_err(|e| e.to_string());
            assert_eq!(got, want.map_err(str::to_string), "{strategy:?} on {stmt}");
        }
    }
}

#[test]
fn check_full_reports_the_first_violation() {
    // Append a violating sub unchecked, so the full check has something
    // to find.
    for violating in [false, true] {
        let mut c = checker();
        if violating {
            let stmt =
                XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'ann']", "ann"))
                    .unwrap();
            c.apply_unchecked(&stmt).unwrap();
        }
        let want = violating.then(self_review_full);
        assert_eq!(c.check_full().unwrap(), want, "violating={violating}");
    }
}

/// A non-tail insert pushes the siblings behind it one position on. The
/// update pattern holds only the added tuple, so when Γ reads the `Pos`
/// of a displaced sibling the simplified check cannot be trusted: the
/// baseline decides, and rejects what the optimized path used to commit.
#[test]
fn a_positional_insert_that_shifts_a_read_position_takes_the_baseline() {
    const DTD: &str = "<!ELEMENT db (region)*> <!ELEMENT region (item)*> \
        <!ELEMENT item (v, w)> <!ELEMENT v (#PCDATA)> <!ELEMENT w (#PCDATA)>";
    const DOC: &str = "<db><region><item><v>ok</v><w>1</w></item>\
        <item><v>bad</v><w>2</w></item></region></db>";
    const GAMMA: &str = "<- //region/item[3]/v/text() -> V & V = \"bad\"";
    let insert = |op: &str, select: &str| {
        XUpdateDoc::parse(&format!(
            r#"<xupdate:modifications xmlns:xupdate="x"><xupdate:{op} select="{select}">
               <item><v>new</v><w>0</w></item></xupdate:{op}></xupdate:modifications>"#
        ))
        .unwrap()
    };

    // In front of item[1]: "bad" would become item[3].
    let shifting = insert("insert-before", "/db/region[1]/item[1]");
    let mut c = Checker::new(DOC, DTD, GAMMA).unwrap();
    let full = c.decide_only(&shifting, Strategy::FullWithRollback).unwrap();
    assert!(full.is_some(), "the baseline rejects");
    let optimized = c.decide_only(&shifting, Strategy::Optimized).unwrap_err();
    assert!(
        matches!(&optimized, CheckerError::Statement(m) if m.contains("shifts `item` siblings")),
        "{optimized}"
    );
    let UpdateOutcome::Rejected { strategy, violation } = c.try_update(&shifting).unwrap() else {
        panic!("a committed violation");
    };
    assert_eq!(strategy, Strategy::FullWithRollback);
    assert_eq!(Some(violation), full);
    assert_eq!(xic_xml::serialize(c.doc()), DOC);
    assert_eq!(c.check_full().unwrap(), None);

    // Behind the last item nothing is displaced: still decided pre-update.
    let tails = [insert("insert-after", "/db/region[1]/item[2]"), insert("append", "/db/region[1]")];
    for tail in tails {
        let out = c.try_update(&tail).unwrap();
        assert!(out.applied());
        assert_eq!(out.strategy(), Strategy::Optimized);
    }
    assert_eq!(c.check_full().unwrap(), None);

    // Two appends under one parent in one statement: each is mapped
    // against the pre-state, so the second's position is off by the first
    // (difftest seed 5759). "bad" lands at item[3]; the baseline decides.
    let mut c = Checker::new("<db><region><item><v>ok</v><w>1</w></item></region></db>", DTD, GAMMA).unwrap();
    let append = |v: &str| {
        format!(r#"<xupdate:append select="/db/region[1]"><item><v>{v}</v><w>0</w></item></xupdate:append>"#)
    };
    let twice = XUpdateDoc::parse(&format!(
        r#"<xupdate:modifications xmlns:xupdate="x">{}{}</xupdate:modifications>"#,
        append("new"),
        append("bad")
    ))
    .unwrap();
    let out = c.try_update(&twice).unwrap();
    assert!(!out.applied(), "a committed violation");
    assert_eq!(out.strategy(), Strategy::FullWithRollback);
}

/// A value holding both quote characters cannot be written as an XQuery
/// literal, but the pre-update check binds values, it does not quote
/// them: same verdicts and same post-state as the baseline twin.
#[test]
fn a_value_with_both_quote_characters_is_decided_like_any_other() {
    const NAME: &str = "it's \"x\"";
    let corpus = CORPUS.replace("<name>dan</name>", &format!("<name>{NAME}</name>"));
    let rev2 = "/collection/review/track[1]/rev[2]";
    let mut optimized = Checker::new(&corpus, DTD, CONFLICT).unwrap();
    let mut baseline = Checker::new(&corpus, DTD, CONFLICT).unwrap();

    // Legal: the awkward author under another reviewer.
    let legal = XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'ann']", NAME)).unwrap();
    assert_eq!(baseline.decide_only(&legal, Strategy::FullWithRollback).unwrap(), None);
    baseline.apply_unchecked(&legal).unwrap();
    let out = optimized.try_update(&legal).unwrap();
    assert!(out.applied());
    assert_eq!(out.strategy(), Strategy::Optimized);
    assert_eq!(xic_xml::serialize(optimized.doc()), xic_xml::serialize(baseline.doc()));

    // Illegal: the awkward reviewer reviewing their own paper. The report
    // renders what it can; the verdict does not depend on it.
    let illegal = XUpdateDoc::parse(&insert_sub(rev2, NAME)).unwrap();
    assert!(baseline.decide_only(&illegal, Strategy::FullWithRollback).unwrap().is_some());
    let out = optimized.try_update(&illegal).unwrap();
    assert!(!out.applied());
    assert_eq!(out.strategy(), Strategy::Optimized);
    assert_eq!(xic_xml::serialize(optimized.doc()), xic_xml::serialize(baseline.doc()));
}

#[test]
fn service_snapshots_check_like_the_writer() {
    let service = CheckerService::new(checker(), Executor::group_commit());
    let snap = service.snapshot();
    assert!(snap.check_full().unwrap().is_none());
    let stmt =
        XUpdateDoc::parse(&insert_sub("//rev[name/text() = 'ann']", "ann")).unwrap();
    assert_eq!(snap.decide_full(&stmt).unwrap(), Some(self_review_full()));
    assert!(
        service.submit(&insert_sub("//rev[name/text() = 'dan']", "zoe")).unwrap().outcome.applied()
    );
    drop(snap);
    service.shutdown().expect("first shutdown succeeds");
}
