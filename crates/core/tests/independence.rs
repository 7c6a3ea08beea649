//! Checker-level tests of the static update/constraint independence
//! analysis: skip counters over the multi-tenant workload, behavioral
//! equality between masked and unmasked full checks (union selects and a
//! document that left its DTD included), and the edge cases where a
//! constraint must stay live (descendant axes, aggregates over renamed
//! paths).
//!
//! The unmasked reference is a twin checker over a Γ of its own, compiled
//! with the analysis off ([`SharedGamma::compile_unmasked`]).

use rand::rngs::StdRng;
use rand::SeedableRng;
use xic_workload::multi::{
    generate_multi, hostile_multi_statement, illegal_multi_insert, legal_multi_insert,
    random_multi_statement, MultiConfig,
};
use xicheck::obs::{self, Counter};
use xicheck::{
    serialize, Checker, CheckerService, Executor, SharedGamma, Strategy, UpdateOutcome,
    XUpdateDoc,
};

fn checker_for(w: &xic_workload::multi::MultiWorkload) -> Checker {
    Checker::new(&w.xml, &w.dtd, &w.constraints_text()).expect("multi workload must assemble")
}

/// A checker over a Γ of its own with the independence analysis off.
fn unmasked(xml: &str, dtd: &str, constraints: &str) -> Checker {
    let gamma = SharedGamma::compile_unmasked(dtd, constraints).expect("Γ compiles");
    Checker::from_shared(xml, &gamma).expect("document loads")
}

fn unmasked_for(w: &xic_workload::multi::MultiWorkload) -> Checker {
    unmasked(&w.xml, &w.dtd, &w.constraints_text())
}

#[test]
fn multi_workload_verdicts_and_skip_counters() {
    let w = generate_multi(MultiConfig::with_regions(8, 1));
    let mut c = checker_for(&w);
    assert!(c.independence());

    obs::reset();
    let ok = c.try_update_str(&legal_multi_insert(0, 1)).unwrap();
    assert!(ok.applied(), "{ok:?}");
    let dup = c.try_update_str(&illegal_multi_insert(0)).unwrap();
    assert!(!dup.applied(), "duplicate key must be rejected");
    let snap = obs::snapshot();
    assert!(
        snap.counter(Counter::ChecksSkippedStatic) > 0,
        "disjoint regions must produce skips: {snap:?}"
    );
    assert!(snap.counter(Counter::ChecksRetainedStatic) > 0);
}

#[test]
fn baseline_remove_skips_all_but_own_region() {
    // A remove takes the baseline (apply + full check) path. With 8
    // regions x 2 constraints, a region-local remove only deletes tuples
    // of its own region, and neither of that region's constraints can be
    // violated by fewer tuples: the key join is positive and the capacity
    // aggregate bounds its count from below. So all 16 are skipped.
    let w = generate_multi(MultiConfig::with_regions(8, 2));
    let mut c = checker_for(&w);
    obs::reset();
    let stmt = "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:remove select=\"/db/region3/item3[1]\"/>\
         </xupdate:modifications>";
    let out = c.try_update_str(stmt).unwrap();
    assert_eq!(out.strategy(), Strategy::FullWithRollback);
    assert!(out.applied(), "{out:?}");
    let snap = obs::snapshot();
    assert_eq!(snap.counter(Counter::ChecksRetainedStatic), 0);
    assert_eq!(snap.counter(Counter::ChecksSkippedStatic), 16);
}

/// One op whose select joins two region-local targets from different
/// regions with ` | `, cycling through update, remove and rename. The
/// update writes `k-{a}-0` into a key of each region, so it is the
/// *first* operand that can duplicate a key.
fn union_statement(n: usize, regions: usize, items: usize) -> String {
    let (a, b) = (n % regions + 1, (n + 1) % regions + 1);
    let j = (n + 1) % items + 1;
    let item = |i: usize| format!("/db/region{i}/item{i}[{j}]");
    let op = match n % 3 {
        0 => format!(
            "<xupdate:update select=\"{}/key{a} | {}/key{b}\">k-{a}-0</xupdate:update>",
            item(a),
            item(b)
        ),
        1 => format!("<xupdate:remove select=\"{} | {}\"/>", item(a), item(b)),
        _ => format!(
            "<xupdate:rename select=\"{}/val{a} | {}/val{b}\">key{a}</xupdate:rename>",
            item(a),
            item(b)
        ),
    };
    format!(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{op}</xupdate:modifications>"
    )
}

/// The independence oracle in miniature: the same random stream through
/// a masked and an unmasked checker must produce identical verdicts,
/// violation reports, and post-states.
#[test]
fn masked_and_unmasked_checkers_agree_on_random_stream() {
    let w = generate_multi(MultiConfig::with_regions(6, 3));
    let mut on = checker_for(&w);
    let mut off = unmasked_for(&w);
    assert!(!off.independence());

    let mut rng = StdRng::seed_from_u64(77);
    let mut rejected = 0usize;
    for step in 0..60 {
        let text = if step % 17 == 16 {
            // Occasionally break DTD conformance so the stream also
            // compares masks on a document that left its DTD.
            hostile_multi_statement(&mut rng, &w)
        } else if step % 5 == 4 {
            union_statement(step / 5, w.config.regions, w.config.items_per_region)
        } else {
            random_multi_statement(&mut rng, &w)
        };
        let stmt = XUpdateDoc::parse(&text).unwrap();
        // Statements may legitimately fail outright (e.g. a select that no
        // longer matches after earlier removes); both checkers must fail
        // the same way, so compare the whole `Result`.
        let a = on.try_update(&stmt);
        let b = off.try_update(&stmt);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "verdict divergence at step {step}: {text}"
        );
        if matches!(&a, Ok(out) if !out.applied()) {
            rejected += 1;
        }
        assert_eq!(
            serialize(on.doc()),
            serialize(off.doc()),
            "post-state divergence at step {step}: {text}"
        );
    }
    // The stream must exercise both verdicts to mean anything.
    assert!(rejected > 0, "no statement was ever rejected");
}

#[test]
fn descendant_axis_constraint_still_catches_deep_violation() {
    // `//name` reads every element that can own a name anywhere in the
    // tree; the analysis must over-approximate the descendant axis and
    // keep the constraint live for a deep update.
    let dtd = "<!ELEMENT db (box)*>\n<!ELEMENT box (label, box*)>\n\
               <!ELEMENT label (#PCDATA)>";
    let doc = "<db><box><label>a</label><box><label>b</label></box></box></db>";
    let constraint = "<- //box[label/text() -> N] -> P \
                      & //box[label/text() -> M] -> Q & N = M & not P = Q";
    let mut c = Checker::new(doc, dtd, constraint).unwrap();
    assert!(c.independence());
    // Rewriting the *nested* label to duplicate the outer one violates
    // the uniqueness join; a sound mask must retain the constraint.
    let out = c
        .try_update_str(
            "<xupdate:modifications version=\"1.0\" \
             xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
             <xupdate:update select=\"/db/box[1]/box[1]/label\">a</xupdate:update>\
             </xupdate:modifications>",
        )
        .unwrap();
    assert!(!out.applied(), "{out:?}");
}

#[test]
fn aggregate_constraint_retained_under_rename() {
    // cnt{R/itemA} reads itemA existence; renaming an itemB *into* the
    // counted name can push the aggregate over its bound, so the rename's
    // write footprint must keep the aggregate constraint live. (`region`
    // sits under a `db` root so it keeps a relational representation —
    // a container-only root is dropped from the image.)
    let dtd = "<!ELEMENT db (region)*>\n<!ELEMENT region (itemA | itemB)*>\n\
               <!ELEMENT itemA (#PCDATA)>\n<!ELEMENT itemB (#PCDATA)>";
    let doc =
        "<db><region><itemA>1</itemA><itemA>2</itemA><itemB>3</itemB></region></db>";
    let constraint = "<- //region -> R & cnt{R/itemA} > 2";
    let mut c = Checker::new(doc, dtd, constraint).unwrap();
    let out = c
        .try_update_str(
            "<xupdate:modifications version=\"1.0\" \
             xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
             <xupdate:rename select=\"/db/region[1]/itemB[1]\">itemA</xupdate:rename>\
             </xupdate:modifications>",
        )
        .unwrap();
    let UpdateOutcome::Rejected { violation, .. } = out else {
        panic!("third itemA must violate the capacity aggregate: {out:?}");
    };
    assert!(violation.to_string().contains("cnt"), "{violation}");
}

#[test]
fn masks_stay_exact_on_a_non_conforming_document() {
    let w = generate_multi(MultiConfig::with_regions(8, 5));
    let mut on = checker_for(&w);
    let mut off = unmasked_for(&w);

    // Rename region1's first item into region2's vocabulary: no parent
    // licenses item2 under region1, so once this commits the document no
    // longer conforms to its DTD.
    let hostile = "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:rename select=\"/db/region1/item1[1]\">item2</xupdate:rename>\
         </xupdate:modifications>";
    assert!(on.try_update_str(hostile).unwrap().applied());
    assert!(off.try_update_str(hostile).unwrap().applied());

    // The write set is read off the applied delta, not derived from the
    // DTD, so a region-local remove still writes only its own region, and
    // deletes there what no constraint of the workload needs: it retains
    // none of the 16.
    let remove = "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:remove select=\"/db/region3/item3[1]\"/>\
         </xupdate:modifications>";
    obs::reset();
    let masked = on.try_update_str(remove).unwrap();
    let snap = obs::snapshot();
    assert_eq!(snap.counter(Counter::ChecksRetainedStatic), 0);
    assert_eq!(snap.counter(Counter::ChecksSkippedStatic), 16);
    let unmasked = off.try_update_str(remove).unwrap();
    assert!(masked.applied(), "{masked:?}");
    assert_eq!(format!("{masked:?}"), format!("{unmasked:?}"));
    assert_eq!(serialize(on.doc()), serialize(off.doc()));
}

/// A union select writes every operand's names, not the last one's: the
/// `remove` below takes the region under the `itemA` floor while also
/// touching `itemB`, and a mask built from `itemB` alone would commit
/// the violation.
#[test]
fn union_select_remove_is_rejected_masked_and_unmasked() {
    let dtd = "<!ELEMENT db (region)*>\n<!ELEMENT region (itemA | itemB)*>\n\
               <!ELEMENT itemA (#PCDATA)>\n<!ELEMENT itemB (#PCDATA)>";
    let doc =
        "<db><region><itemA>1</itemA><itemA>2</itemA><itemB>3</itemB></region></db>";
    let constraints = "<- //region -> R & cnt{R/itemA} < 2 . <- //region -> R & cnt{R/itemB} > 5";
    let stmt = XUpdateDoc::parse(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:remove select=\"/db/region[1]/itemA[1] | /db/region[1]/itemB[1]\"/>\
         </xupdate:modifications>",
    )
    .unwrap();
    let mut on = Checker::new(doc, dtd, constraints).unwrap();
    let mut off = unmasked(doc, dtd, constraints);
    let before = serialize(on.doc());

    let masked = on.try_update(&stmt).unwrap();
    let unmasked = off.try_update(&stmt).unwrap();
    let UpdateOutcome::Rejected { strategy: Strategy::FullWithRollback, violation } = &masked
    else {
        panic!("one itemA left is below the floor: {masked:?}");
    };
    assert_eq!(format!("{masked:?}"), format!("{unmasked:?}"));
    assert_eq!(serialize(on.doc()), before, "a rejected statement leaves no trace");

    // Snapshot readers share the mask.
    let service = CheckerService::new(on, Executor::Sync);
    let decided = service.snapshot().decide(&stmt).unwrap();
    assert_eq!(decided.as_ref(), Some(violation));
}

/// A floor is the one kind of constraint a removal can violate: the same
/// region-local remove that skips all of the workload's constraints
/// retains exactly a floor on its region's items, and the verdict is the
/// unmasked twin's.
#[test]
fn remove_under_a_floor_retains_exactly_the_floor() {
    let w = generate_multi(MultiConfig::with_regions(4, 1));
    let floor = format!("<- //region3 -> R & cnt{{R/item3}} < {}", w.config.items_per_region);
    let constraints = format!("{} . {floor}", w.constraints_text());
    let mut on = Checker::new(&w.xml, &w.dtd, &constraints).unwrap();
    let mut off = unmasked(&w.xml, &w.dtd, &constraints);
    let remove = "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:remove select=\"/db/region3/item3[1]\"/>\
         </xupdate:modifications>";
    obs::reset();
    let masked = on.try_update_str(remove).unwrap();
    let snap = obs::snapshot();
    assert_eq!(snap.counter(Counter::ChecksRetainedStatic), 1);
    assert_eq!(snap.counter(Counter::ChecksSkippedStatic), 8);
    let UpdateOutcome::Rejected { strategy: Strategy::FullWithRollback, violation } = &masked
    else {
        panic!("one item fewer is below the floor: {masked:?}");
    };
    assert!(violation.to_string().contains("cnt"), "{violation}");
    let unmasked = off.try_update_str(remove).unwrap();
    assert_eq!(format!("{masked:?}"), format!("{unmasked:?}"));
    assert_eq!(serialize(on.doc()), serialize(off.doc()));
}

/// A text update of an author's name writes one cell, the name column of
/// that `auts` tuple: under the benchmark's Γ it keeps live the two
/// co-author checks, which read it, and neither reviewer aggregate — on
/// the baseline's mask, read off the applied delta, and on the optimized
/// path, read off the pattern. Every column that compacts a `name` (rev,
/// track, aut and auts) would keep the workload aggregate live too.
#[test]
fn an_author_name_update_keeps_the_two_co_author_checks_live() {
    use xic_workload::{conflict_constraint, generate, review_load_constraint, workload_constraint};
    let w = generate(xic_workload::WorkloadConfig::sized_kib(8, 1));
    let gamma = format!(
        "{}. {}. {}",
        conflict_constraint(),
        workload_constraint(3, 1_000),
        review_load_constraint(1_000)
    );
    let c = Checker::new(&w.xml, paper_dtd(), &gamma).expect("corpus loads");
    let stmt = XUpdateDoc::parse(
        "<xupdate:modifications xmlns:xupdate=\"x\"><xupdate:update \
         select=\"/collection/review/track[1]/rev[1]/sub[1]/auts[1]/name\">newcomer00001\
         </xupdate:update></xupdate:modifications>",
    )
    .expect("statement parses");
    for strategy in [Strategy::FullWithRollback, Strategy::Optimized] {
        obs::reset();
        assert_eq!(c.decide_only(&stmt, strategy).expect("decides"), None);
        assert_eq!(obs::counter(Counter::ChecksRetainedStatic), 2, "{strategy:?}");
        assert_eq!(obs::counter(Counter::ChecksSkippedStatic), 2, "{strategy:?}");
    }
}

/// The paper's conference DTD.
fn paper_dtd() -> &'static str {
    "<!ELEMENT collection (dblp, review)> <!ELEMENT dblp (pub)*> \
     <!ELEMENT pub (title, aut+)> <!ELEMENT aut (name)> <!ELEMENT review (track)+> \
     <!ELEMENT track (name,rev+)> <!ELEMENT rev (name, sub+)> <!ELEMENT sub (title, auts+)> \
     <!ELEMENT title (#PCDATA)> <!ELEMENT auts (name)> <!ELEMENT name (#PCDATA)>"
}
