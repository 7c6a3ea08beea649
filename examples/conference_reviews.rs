//! The paper's running example, end to end: the conflict-of-interest
//! constraint (Examples 1/3/6) and the review-load aggregate (Example 7)
//! over the pub.xml + rev.xml corpus, with legal and illegal XUpdate
//! statements handled through both strategies.
//!
//! Run with `cargo run --example conference_reviews`.

use xicheck::{Checker, Strategy};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

const CORPUS: &str = "<collection>\
  <dblp>\
    <pub><title>Deductive Databases</title>\
      <aut><name>Alice</name></aut><aut><name>Bruno</name></aut></pub>\
    <pub><title>Streaming XML</title><aut><name>Carla</name></aut></pub>\
  </dblp>\
  <review>\
    <track><name>Core DB</name>\
      <rev><name>Alice</name>\
        <sub><title>Query containment</title><auts><name>Dora</name></auts></sub>\
        <sub><title>View maintenance</title><auts><name>Emil</name></auts></sub>\
      </rev>\
      <rev><name>Carla</name>\
        <sub><title>Active rules</title><auts><name>Fritz</name></auts></sub>\
      </rev>\
    </track>\
  </review>\
</collection>";

/// Example 1: nobody reviews their own or a coauthor's submission.
const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
    & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])";

/// Example 7 flavour: at most 3 submissions per reviewer per track.
const LOAD: &str = "<- //rev -> R & cnt{R/sub} > 3";

fn assign(reviewer_pos: usize, author: &str, title: &str) -> String {
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[1]/rev[{reviewer_pos}]">
    <sub><title>{title}</title><auts><name>{author}</name></auts></sub>
  </xupdate:append>
</xupdate:modifications>"#
    )
}

fn main() {
    let constraints = format!("{CONFLICT}. {LOAD}");
    let mut checker = Checker::new(CORPUS, DTD, &constraints).expect("setup");

    println!("=== Compile time (schema design) ===");
    println!("Datalog image of the constraints:");
    for d in checker.constraints() {
        println!("  {d}");
    }
    let key = checker
        .register_pattern_str(&assign(1, "placeholder", "placeholder"))
        .expect("pattern");
    let pat = checker.patterns().find(|p| p.key == key).unwrap();
    println!("\nUpdate pattern (Example 6's U): {}", pat.update);
    println!("Simp_Δ^U(Γ):");
    for d in &pat.simplified {
        println!("  {d}");
    }

    println!("\n=== Runtime ===");
    // Legal: Gregor is nobody's coauthor.
    let out = checker
        .try_update_str(&assign(2, "Gregor", "Fresh ideas"))
        .expect("update");
    println!("assign Gregor -> Carla: applied={}, {:?}", out.applied(), out.strategy());
    assert!(out.applied());

    // Illegal (first disjunct): Alice cannot review Alice.
    let out = checker
        .try_update_str(&assign(1, "Alice", "Self service"))
        .expect("update");
    println!("assign Alice -> Alice:  applied={}", out.applied());
    assert!(!out.applied() && out.strategy() == Strategy::Optimized);

    // Illegal (second disjunct): Bruno coauthored with reviewer Alice.
    let out = checker
        .try_update_str(&assign(1, "Bruno", "Conflicted"))
        .expect("update");
    println!("assign Bruno -> Alice:  applied={}", out.applied());
    assert!(!out.applied());

    // The aggregate: Alice has 2 submissions; two more hit the cap.
    let out = checker
        .try_update_str(&assign(1, "Hanna", "Third"))
        .expect("update");
    assert!(out.applied());
    let out = checker
        .try_update_str(&assign(1, "Ivan", "Fourth — one too many"))
        .expect("update");
    println!("4th submission to Alice: applied={}", out.applied());
    assert!(!out.applied());

    println!("\ncompiled patterns: {}", checker.patterns().count());
    println!(
        "document still consistent: {}",
        checker.check_full().unwrap().is_none()
    );
}
