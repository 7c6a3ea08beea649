//! Quickstart: declare a constraint, register an update pattern, and watch
//! the checker reject an illegal statement *before* executing it.
//!
//! Run with `cargo run --example quickstart`.

use xicheck::{Checker, Strategy, UpdateOutcome};

const DTD: &str = "<!ELEMENT library (book)*>\n\
    <!ELEMENT book (isbn, title)>\n\
    <!ELEMENT isbn (#PCDATA)>\n\
    <!ELEMENT title (#PCDATA)>";

const DOC: &str = "<library>\
    <book><isbn>1-111</isbn><title>Duckburg tales</title></book>\
    <book><isbn>2-222</isbn><title>Taming Web Services</title></book>\
  </library>";

/// Example 4 of the paper, in XML form: no two books may share an ISBN.
const UNIQUE_ISBN: &str = "<- //book[isbn/text() -> I] -> B \
    & //book[isbn/text() -> J] -> C & I = J & not B = C";

fn insert_book(isbn: &str, title: &str) -> String {
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/library">
    <book><isbn>{isbn}</isbn><title>{title}</title></book>
  </xupdate:append>
</xupdate:modifications>"#
    )
}

fn main() {
    let mut checker = Checker::new(DOC, DTD, UNIQUE_ISBN).expect("setup");

    println!("Constraint (Datalog form):");
    for d in checker.constraints() {
        println!("  {d}");
    }

    // Schema design time: register the insertion pattern. The checker
    // runs After/Optimize (Examples 4 and 5 of the paper) and compiles the
    // simplified check into a parameterized XQuery.
    let key = checker
        .register_pattern_str(&insert_book("0-000", "placeholder"))
        .expect("pattern");
    let pattern = checker
        .patterns()
        .find(|p| p.key == key)
        .expect("just registered");
    println!("\nSimplified check for the insert-book pattern:");
    for (d, q) in pattern.simplified.iter().zip(&pattern.queries) {
        println!("  {d}\n    as XQuery: {q}");
    }

    // Runtime: a fresh ISBN sails through the optimized path.
    let ok = checker
        .try_update_str(&insert_book("3-333", "New arrival"))
        .expect("update");
    assert!(ok.applied() && ok.strategy() == Strategy::Optimized);
    println!("\ninsert 3-333: applied via {:?}", ok.strategy());

    // A duplicate ISBN is rejected *before* the update executes: the
    // document is never inconsistent, and no rollback is needed.
    let dup = checker
        .try_update_str(&insert_book("1-111", "Pirated copy"))
        .expect("update");
    match dup {
        UpdateOutcome::Rejected { strategy, violation } => {
            assert_eq!(strategy, Strategy::Optimized, "early detection: no rollback");
            println!("insert 1-111: rejected early via {strategy:?}");
            println!("  fired: {}", violation.denial);
        }
        UpdateOutcome::Applied { .. } => unreachable!("duplicate must be rejected"),
    }
    assert_eq!(xicheck::xpath_resolver(checker.doc(), "//book").unwrap().len(), 3);
    let obs = xicheck::obs::snapshot();
    println!(
        "\nthis thread: {} patterns compiled, {} selects resolved, {} index probes",
        obs.phase("compile/after").map_or(0, |p| p.calls),
        obs.counter(xicheck::obs::Counter::SelectResolve),
        obs.counter(xicheck::obs::Counter::IndexProbe)
    );
}
