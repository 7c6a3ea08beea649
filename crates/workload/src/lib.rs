//! Seeded DBLP-style workload generator (Section 7).
//!
//! The paper's datasets were "generated remapping data from the DBLP
//! repository into the schema of our running examples", at sizes from 32
//! to 256 MB. This generator produces the same *shape* synthetically:
//!
//! * a `dblp` publication catalog with a shared author-name pool and
//!   skewed name reuse (frequent authors publish a lot, mirroring DBLP's
//!   long tail);
//! * a `review` tree (tracks → reviewers → submissions → authors) drawing
//!   submission authors from the same pool, so the conflict-of-interest
//!   constraint has real joins to chase.
//!
//! Everything is deterministic under a seed, and documents validate
//! against the paper's combined DTD (`xic_mapping::schema::paper_dtd`).
//!
//! In the system-inventory table of `DESIGN.md` this crate is item 12 (workload generator).

pub mod multi;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Workload sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// RNG seed (all output is deterministic in it).
    pub seed: u64,
    /// Number of publications in `dblp`.
    pub pubs: usize,
    /// Number of review tracks.
    pub tracks: usize,
    /// Reviewers per track.
    pub revs_per_track: usize,
    /// Submissions per reviewer.
    pub subs_per_rev: usize,
    /// Distinct author names in the pool.
    pub name_pool: usize,
}

impl WorkloadConfig {
    /// A configuration sized to approximately `kib` KiB of serialized XML.
    /// Derived empirically: one publication ≈ 90 bytes, one submission ≈
    /// 110 bytes; the corpus splits roughly half catalog, half reviews.
    pub fn sized_kib(kib: usize, seed: u64) -> WorkloadConfig {
        let bytes = kib * 1024;
        let pubs = (bytes / 2) / 90;
        let subs_total = (bytes / 2) / 110;
        // Keep the review tree shallow and wide like a real conference.
        let tracks = (subs_total / 200).clamp(1, 40);
        let revs_per_track = ((subs_total / tracks) / 8).clamp(1, 50);
        let subs_per_rev = (subs_total / (tracks * revs_per_track)).max(1);
        WorkloadConfig {
            seed,
            pubs,
            tracks,
            revs_per_track,
            subs_per_rev,
            name_pool: (pubs / 3).clamp(50, 20_000),
        }
    }

    /// A configuration of approximately `kib` KiB in which a reviewer's
    /// neighbourhood does not grow with the document: every reviewer has 8
    /// submissions at every size, and the name pool grows with the catalog,
    /// so the expected pubs naming any one name stay as they are (the
    /// power-law head still gives a few names many). The review tree is as
    /// wide as [`WorkloadConfig::sized_kib`]'s — 25 reviewers a track —
    /// until it has as many tracks; from there both widths grow as the
    /// square root of the reviewers, the least a positional select reads.
    pub fn fixed_neighbourhood_kib(kib: usize, seed: u64) -> WorkloadConfig {
        const SUBS_PER_REV: usize = 8;
        let bytes = kib * 1024;
        let pubs = (bytes / 2) / 90;
        let revs = ((bytes / 2) / 110 / SUBS_PER_REV).max(1);
        let revs_per_track = revs.min(((revs as f64).sqrt() as usize).max(25));
        WorkloadConfig {
            seed,
            pubs,
            tracks: revs / revs_per_track,
            revs_per_track,
            subs_per_rev: SUBS_PER_REV,
            name_pool: (pubs / 3).max(50),
        }
    }

    /// Total submissions implied by the configuration.
    pub fn total_subs(&self) -> usize {
        self.tracks * self.revs_per_track * self.subs_per_rev
    }
}

/// A generated workload: the corpus plus handles for building updates.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The serialized `<collection>` document.
    pub xml: String,
    /// The configuration that produced it.
    pub config: WorkloadConfig,
    /// Names of reviewers, indexed `[track][rev]`.
    pub reviewers: Vec<Vec<String>>,
}

/// Draws a pool index with a power-law skew (index 0 is the most frequent
/// name — the "Ley effect" of DBLP).
pub(crate) fn skewed(rng: &mut StdRng, pool: usize) -> usize {
    let r: f64 = rng.gen::<f64>();
    ((r * r) * pool as f64) as usize % pool.max(1)
}

fn name(i: usize) -> String {
    format!("author{i:05}")
}

/// Generates a workload.
pub fn generate(config: WorkloadConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut xml = String::with_capacity(config.pubs * 96 + config.total_subs() * 120 + 1024);
    // Coauthorship pairs, used below to keep the corpus consistent with
    // the conflict-of-interest constraint's second disjunct.
    let mut coauthors: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    xml.push_str("<collection><dblp>");
    for p in 0..config.pubs {
        let _ = write!(xml, "<pub><title>Publication {p}</title>");
        let n_auts = 1 + rng.gen_range(0..3);
        let mut seen: Vec<usize> = Vec::new();
        for _ in 0..n_auts {
            let a = skewed(&mut rng, config.name_pool);
            if seen.contains(&a) {
                continue;
            }
            for &b in &seen {
                coauthors.insert((a.min(b), a.max(b)));
            }
            seen.push(a);
            let _ = write!(xml, "<aut><name>{}</name></aut>", name(a));
        }
        xml.push_str("</pub>");
    }
    xml.push_str("</dblp><review>");
    let mut reviewers = Vec::with_capacity(config.tracks);
    for t in 0..config.tracks {
        let _ = write!(xml, "<track><name>Track {t}</name>");
        let mut track_revs = Vec::with_capacity(config.revs_per_track);
        for _ in 0..config.revs_per_track {
            let r = skewed(&mut rng, config.name_pool);
            let rname = name(r);
            let _ = write!(xml, "<rev><name>{rname}</name>");
            for s in 0..config.subs_per_rev {
                let _ = write!(xml, "<sub><title>Submission {t}-{s}</title>");
                let n_auts = 1 + rng.gen_range(0..2);
                for fallback in 0..n_auts {
                    // Submission authors must neither be the reviewer nor a
                    // coauthor of the reviewer, so the generated corpus
                    // starts consistent with the conflict-of-interest
                    // constraint; redraw on conflict, with a guaranteed-
                    // safe out-of-pool name as a last resort.
                    let mut picked = None;
                    for _ in 0..12 {
                        let a = skewed(&mut rng, config.name_pool);
                        let conflicted =
                            a == r || coauthors.contains(&(a.min(r), a.max(r)));
                        if !conflicted {
                            picked = Some(a);
                            break;
                        }
                    }
                    let a = picked.unwrap_or(config.name_pool + fallback);
                    let _ = write!(xml, "<auts><name>{}</name></auts>", name(a));
                }
                xml.push_str("</sub>");
            }
            xml.push_str("</rev>");
            track_revs.push(rname);
        }
        xml.push_str("</track>");
        reviewers.push(track_revs);
    }
    xml.push_str("</review></collection>");
    Workload {
        xml,
        config,
        reviewers,
    }
}

/// A *legal* insertion for the conflict-of-interest constraint: a new
/// submission by a brand-new author (present in no publication), appended
/// to the given reviewer.
pub fn legal_insert(track: usize, rev: usize, serial: usize) -> String {
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[{}]/rev[{}]">
    <sub><title>Fresh submission {serial}</title><auts><name>newcomer{serial:05}</name></auts></sub>
  </xupdate:append>
</xupdate:modifications>"#,
        track + 1,
        rev + 1
    )
}

/// An *illegal* insertion: the submission's author is the reviewer
/// him/herself (violates the first disjunct of Example 1).
pub fn illegal_insert(track: usize, rev: usize, reviewer_name: &str) -> String {
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/collection/review/track[{}]/rev[{}]">
    <sub><title>Conflicted submission</title><auts><name>{reviewer_name}</name></auts></sub>
  </xupdate:append>
</xupdate:modifications>"#,
        track + 1,
        rev + 1
    )
}

// ---------------------------------------------------------------------
// Random statement generation (all six XUpdate operation kinds)
// ---------------------------------------------------------------------

/// Draws a single random XUpdate statement (a 1–3 operation batch) over
/// the workload's review tree. The mix covers **all six** `XUpdateOp`
/// kinds — insert-before, insert-after, append, remove, update, rename —
/// so differential tests exercise the baseline (apply + full check +
/// rollback) paths as well as the optimized insertion path. Deterministic
/// under the caller's RNG.
pub fn random_statement(rng: &mut StdRng, w: &Workload) -> String {
    let ops = 1 + rng.gen_range(0..3);
    random_batch(rng, w, ops)
}

/// A random `<xupdate:modifications>` batch of exactly `ops` operations.
///
/// Selects use positional paths the [`WorkloadConfig`] guarantees to
/// exist in the *initial* document; within a multi-op batch, an earlier
/// `remove` can invalidate a later select, which deliberately exercises
/// the partial-failure rollback path (§7).
pub fn random_batch(rng: &mut StdRng, w: &Workload, ops: usize) -> String {
    let body: String = (0..ops).map(|_| random_op(rng, w)).collect();
    format!(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{body}</xupdate:modifications>"
    )
}

/// Picks a submission author: the reviewer (guaranteed conflict), a fresh
/// newcomer (guaranteed legal for the conflict constraint), or a pool
/// member (maybe a coauthor — the interesting join case).
fn random_author(rng: &mut StdRng, w: &Workload, track: usize, rev: usize) -> String {
    match rng.gen_range(0..4) {
        0 => w.reviewers[track][rev].clone(),
        1 => format!("newcomer{:05}", rng.gen_range(0..100)),
        _ => name(skewed(rng, w.config.name_pool)),
    }
}

fn random_op(rng: &mut StdRng, w: &Workload) -> String {
    let t = rng.gen_range(0..w.config.tracks);
    let r = rng.gen_range(0..w.config.revs_per_track);
    let s = rng.gen_range(0..w.config.subs_per_rev);
    let rev_sel = format!("/collection/review/track[{}]/rev[{}]", t + 1, r + 1);
    let sub_sel = format!("{rev_sel}/sub[{}]", s + 1);
    let author = random_author(rng, w, t, r);
    let serial = rng.gen_range(0..1000);
    let sub = format!(
        "<sub><title>Generated {serial}</title><auts><name>{author}</name></auts></sub>"
    );
    match rng.gen_range(0..6) {
        0 => format!("<xupdate:append select=\"{rev_sel}\">{sub}</xupdate:append>"),
        1 => format!(
            "<xupdate:insert-before select=\"{sub_sel}\">{sub}</xupdate:insert-before>"
        ),
        2 => format!(
            "<xupdate:insert-after select=\"{sub_sel}\">{sub}</xupdate:insert-after>"
        ),
        3 => {
            // Remove a whole submission, or just one of its author slots.
            if rng.gen_bool(0.5) {
                format!("<xupdate:remove select=\"{sub_sel}\"/>")
            } else {
                format!("<xupdate:remove select=\"{sub_sel}/auts[1]\"/>")
            }
        }
        4 => {
            // Rewriting an author (or reviewer) name can *create* a
            // conflict in place — the mutation class only the baseline
            // strategy handles.
            let (sel, text) = match rng.gen_range(0..3) {
                0 => (format!("{sub_sel}/auts[1]/name"), author),
                1 => (format!("{sub_sel}/title"), format!("Retitled {serial}")),
                _ => (format!("{rev_sel}/name"), author),
            };
            format!("<xupdate:update select=\"{sel}\">{text}</xupdate:update>")
        }
        _ => {
            let new_name = if rng.gen_bool(0.5) { "title" } else { "heading" };
            format!("<xupdate:rename select=\"{sub_sel}/title\">{new_name}</xupdate:rename>")
        }
    }
}

/// The paper's two running constraints in XPathLog, thresholds
/// parameterized so the workload can sit just under them.
pub fn conflict_constraint() -> &'static str {
    "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
     & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])"
}

/// Example 2's conference-workload constraint with configurable bounds.
pub fn workload_constraint(min_tracks: usize, max_subs: usize) -> String {
    format!(
        "<- cntd{{[R]; //track[rev/name/text() -> R]}} >= {min_tracks} \
         & cntd{{[R]; //rev[name/text() -> R]/sub}} > {max_subs}"
    )
}

/// Example 7's per-track review-load constraint.
pub fn review_load_constraint(max_subs: usize) -> String {
    format!("<- //rev -> R & cnt{{R/sub}} > {max_subs}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let cfg = WorkloadConfig::sized_kib(64, 7);
        let a = generate(cfg);
        let b = generate(cfg);
        assert_eq!(a.xml, b.xml);
        let c = generate(WorkloadConfig { seed: 8, ..cfg });
        assert_ne!(a.xml, c.xml);
    }

    #[test]
    fn sized_roughly_right() {
        for kib in [32, 128, 512] {
            let w = generate(WorkloadConfig::sized_kib(kib, 1));
            let actual = w.xml.len();
            let target = kib * 1024;
            assert!(
                actual > target / 2 && actual < target * 2,
                "{kib} KiB target produced {actual} bytes"
            );
        }
    }

    #[test]
    fn a_fixed_neighbourhood_grows_the_document_and_not_the_reviewer() {
        let configs = [32, 1024, 65_536].map(|kib| WorkloadConfig::fixed_neighbourhood_kib(kib, 1));
        for c in configs {
            assert_eq!((c.subs_per_rev, c.pubs / c.name_pool), (8, 3), "{c:?}");
        }
        let revs = configs.map(|c| c.tracks * c.revs_per_track);
        assert!(revs[0] < revs[1] && revs[1] < revs[2], "{configs:?}");
        assert!(configs[2].tracks.abs_diff(configs[2].revs_per_track) <= 1, "{configs:?}");
        let w = generate(configs[0]);
        assert!(w.xml.len() > 16 * 1024 && w.xml.len() < 64 * 1024);
    }

    #[test]
    fn validates_against_paper_dtd() {
        let w = generate(WorkloadConfig::sized_kib(32, 3));
        let (doc, _) = xic_xml::parse_document(&w.xml).unwrap();
        let dtd = paper_dtd_local();
        dtd.validate(&doc).unwrap();
        assert_eq!(
            w.reviewers.len(),
            w.config.tracks,
            "reviewer handles per track"
        );
    }

    // The DTD lives in xic-mapping; duplicate the text here to avoid a
    // dependency cycle in the workload crate.
    fn paper_dtd_local() -> xic_xml::Dtd {
        xic_xml::Dtd::parse(
            "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
             <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
             <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
             <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
             <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
             <!ELEMENT name (#PCDATA)>",
        )
        .unwrap()
    }

    #[test]
    fn generated_corpus_is_initially_consistent() {
        // The generator avoids self-reviews, so the first disjunct of the
        // conflict constraint holds on a fresh corpus.
        let w = generate(WorkloadConfig::sized_kib(16, 5));
        let (doc, _) = xic_xml::parse_document(&w.xml).unwrap();
        let q = xic_xquery::parse_query(
            "some $lr in //rev satisfies $lr/sub/auts/name/text() = $lr/name/text()",
        )
        .unwrap();
        assert!(!xic_xquery::eval_query_bool(&q, &doc).unwrap());
    }

    #[test]
    fn update_statements_parse() {
        let legal = legal_insert(0, 0, 42);
        let stmt = xic_xml::XUpdateDoc::parse(&legal).unwrap();
        assert!(stmt.insertions_only());
        let ill = illegal_insert(1, 2, "author00001");
        let stmt2 = xic_xml::XUpdateDoc::parse(&ill).unwrap();
        assert!(stmt2.insertions_only());
    }

    #[test]
    fn random_statements_parse_and_cover_all_op_kinds() {
        use xic_xml::XUpdateOp;
        let w = generate(WorkloadConfig::sized_kib(8, 11));
        let mut rng = StdRng::seed_from_u64(99);
        let mut seen = [false; 6];
        for _ in 0..300 {
            let text = random_statement(&mut rng, &w);
            let stmt = xic_xml::XUpdateDoc::parse(&text).unwrap_or_else(|e| {
                panic!("generated statement must parse: {e}\n{text}")
            });
            assert!(!stmt.ops.is_empty() && stmt.ops.len() <= 3);
            for op in &stmt.ops {
                let k = match op {
                    XUpdateOp::InsertBefore { .. } => 0,
                    XUpdateOp::InsertAfter { .. } => 1,
                    XUpdateOp::Append { .. } => 2,
                    XUpdateOp::Remove { .. } => 3,
                    XUpdateOp::Update { .. } => 4,
                    XUpdateOp::Rename { .. } => 5,
                };
                seen[k] = true;
            }
        }
        assert_eq!(seen, [true; 6], "all six op kinds must appear in the mix");
    }

    #[test]
    fn random_statements_deterministic_under_seed() {
        let w = generate(WorkloadConfig::sized_kib(8, 11));
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..20).map(|_| random_statement(&mut rng, &w)).collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..20).map(|_| random_statement(&mut rng, &w)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn skew_prefers_low_indexes() {
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..2000).map(|_| skewed(&mut rng, 100)).collect();
        let low = draws.iter().filter(|&&d| d < 25).count();
        assert!(low > 800, "skew too weak: {low}/2000 in the low quartile");
    }
}
