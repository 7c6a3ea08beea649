//! Multi-tenant many-constraint workload for the independence analysis.
//!
//! The DBLP-style workload in the crate root has *two* constraints over
//! one shared tree — every update plausibly touches both. The
//! independence analysis (PR 8) becomes interesting when a schema hosts
//! **many** constraints over **disjoint** regions: then any single
//! update can affect only the handful of constraints whose read
//! footprint overlaps its write footprint, and the rest are provably
//! skippable.
//!
//! This module generates exactly that shape: a `db` root with `K`
//! *tenant regions*, each with its own element vocabulary
//! (`region{i}`, `item{i}`, `key{i}`, `val{i}`) so the relational image
//! puts every tenant in its own predicates. Each region carries two
//! constraints (a key-uniqueness join and a capacity aggregate), and the
//! Zipf-skewed statement mix draws updates region-locally — so a stream
//! of updates against `2·regions` constraints should retain ~2 live
//! constraints per statement and skip the rest.
//!
//! Everything is deterministic under the seed.

use crate::skewed;
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write as _;

/// Sizing knobs for the multi-tenant corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiConfig {
    /// RNG seed for the statement mix (the corpus itself is deterministic
    /// in the other fields alone).
    pub seed: u64,
    /// Number of tenant regions. The workload carries `2 * regions`
    /// constraints (one join + one aggregate per region).
    pub regions: usize,
    /// Items initially populated per region. Must stay below
    /// [`MultiConfig::cap`] for the generated corpus to be consistent.
    pub items_per_region: usize,
    /// Per-region item capacity enforced by the aggregate constraint.
    pub cap: usize,
}

impl MultiConfig {
    /// A configuration with `regions` tenants and defaults that keep the
    /// initial corpus consistent and leave appending headroom.
    pub fn with_regions(regions: usize, seed: u64) -> MultiConfig {
        MultiConfig {
            seed,
            regions: regions.max(1),
            items_per_region: 4,
            cap: 64,
        }
    }

    /// Total constraints the workload carries (two per region).
    pub fn total_constraints(&self) -> usize {
        2 * self.regions
    }
}

/// A generated multi-tenant workload: corpus, schema, and constraints.
#[derive(Debug, Clone)]
pub struct MultiWorkload {
    /// The serialized `<db>` document.
    pub xml: String,
    /// The DTD text declaring every region's vocabulary.
    pub dtd: String,
    /// XPathLog constraints, two per region in region order:
    /// key-uniqueness for region `i`, then item capacity for region `i`.
    pub constraints: Vec<String>,
    /// The configuration that produced it.
    pub config: MultiConfig,
}

impl MultiWorkload {
    /// All constraints as one `.`-separated XPathLog program, the form
    /// `Checker::new` consumes.
    pub fn constraints_text(&self) -> String {
        self.constraints.join(" . ")
    }
}

/// Generates a multi-tenant workload from the configuration.
pub fn generate_multi(config: MultiConfig) -> MultiWorkload {
    let k = config.regions.max(1);
    let mut dtd = String::from("<!ELEMENT db (");
    for i in 1..=k {
        if i > 1 {
            dtd.push_str(", ");
        }
        let _ = write!(dtd, "region{i}*");
    }
    dtd.push_str(")>\n");
    for i in 1..=k {
        let _ = write!(
            dtd,
            "<!ELEMENT region{i} (item{i})*>\n<!ELEMENT item{i} (key{i}, val{i})>\n\
             <!ELEMENT key{i} (#PCDATA)>\n<!ELEMENT val{i} (#PCDATA)>\n"
        );
    }

    let mut xml = String::with_capacity(k * config.items_per_region * 64 + 16);
    xml.push_str("<db>");
    for i in 1..=k {
        let _ = write!(xml, "<region{i}>");
        for j in 0..config.items_per_region {
            let _ = write!(
                xml,
                "<item{i}><key{i}>k-{i}-{j}</key{i}><val{i}>v-{i}-{j}</val{i}></item{i}>"
            );
        }
        let _ = write!(xml, "</region{i}>");
    }
    xml.push_str("</db>");

    let mut constraints = Vec::with_capacity(2 * k);
    for i in 1..=k {
        // No two items in region i may share a key (the quickstart's
        // duplicate-name join, restated per tenant).
        constraints.push(format!(
            "<- //item{i}[key{i}/text() -> N] -> P \
             & //item{i}[key{i}/text() -> M] -> Q & N = M & not P = Q"
        ));
        // Region i may hold at most `cap` items (Example 7's review-load
        // aggregate, restated per tenant).
        constraints.push(format!(
            "<- //region{i} -> R & cnt{{R/item{i}}} > {}",
            config.cap
        ));
    }

    MultiWorkload {
        xml,
        dtd,
        constraints,
        config,
    }
}

/// A fresh item fragment for region `i` whose key cannot collide with
/// the generated corpus or any other serial.
fn fresh_item(i: usize, serial: usize) -> String {
    format!(
        "<item{i}><key{i}>fresh-{i}-{serial}</key{i}><val{i}>v-{serial}</val{i}></item{i}>"
    )
}

/// A *legal* append for region `i` (0-based): a new item with a unique
/// key, fine for both of the region's constraints while under capacity.
pub fn legal_multi_insert(region: usize, serial: usize) -> String {
    let i = region + 1;
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/db/region{i}">{}</xupdate:append>
</xupdate:modifications>"#,
        fresh_item(i, serial)
    )
}

/// An *illegal* append for region `i` (0-based): duplicates the key of
/// the region's first generated item, violating its uniqueness join.
pub fn illegal_multi_insert(region: usize) -> String {
    let i = region + 1;
    format!(
        r#"<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:append select="/db/region{i}"><item{i}><key{i}>k-{i}-0</key{i}><val{i}>dup</val{i}></item{i}></xupdate:append>
</xupdate:modifications>"#
    )
}

/// Draws one random single-op statement against a Zipf-skewed region:
/// low-numbered regions are hot, the tail is cold, mirroring real
/// multi-tenant traffic. The mix covers all six `XUpdateOp` kinds and
/// every operation stays inside its region's vocabulary, so each writes
/// the cells of one region's two constraints only (see
/// `xicheck::IndependenceIndex`).
pub fn random_multi_statement(rng: &mut StdRng, w: &MultiWorkload) -> String {
    let i = skewed(rng, w.config.regions) + 1;
    let j = rng.gen_range(0..w.config.items_per_region.max(1)) + 1;
    let region_sel = format!("/db/region{i}");
    let item_sel = format!("{region_sel}/item{i}[{j}]");
    let serial = rng.gen_range(0..1_000_000);
    let item = fresh_item(i, serial);
    let op = match rng.gen_range(0..6) {
        0 => format!("<xupdate:append select=\"{region_sel}\">{item}</xupdate:append>"),
        1 => format!("<xupdate:insert-before select=\"{item_sel}\">{item}</xupdate:insert-before>"),
        2 => format!("<xupdate:insert-after select=\"{item_sel}\">{item}</xupdate:insert-after>"),
        3 => format!("<xupdate:remove select=\"{item_sel}\"/>"),
        4 => {
            // Rewrite a key (can create a duplicate in place) or a value
            // (relationally visible but never violating).
            let (sel, text) = if rng.gen_bool(0.5) {
                let dup = rng.gen_range(0..w.config.items_per_region.max(1));
                (format!("{item_sel}/key{i}"), format!("k-{i}-{dup}"))
            } else {
                (format!("{item_sel}/val{i}"), format!("v-{serial}"))
            };
            format!("<xupdate:update select=\"{sel}\">{text}</xupdate:update>")
        }
        _ => {
            // `val → key` stays inside item{i}'s vocabulary and may
            // create a duplicate key the join constraint must catch.
            format!("<xupdate:rename select=\"{item_sel}/val{i}\">key{i}</xupdate:rename>")
        }
    };
    format!(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{op}</xupdate:modifications>"
    )
}

/// A statement that *breaks* DTD nesting conformance: it renames an item
/// of one region into another region's vocabulary, which no parent
/// licenses. Once it commits the document no longer conforms to its
/// DTD; differential tests use it to check that write footprints, read
/// off the applied delta, stay exact on such a document.
pub fn hostile_multi_statement(rng: &mut StdRng, w: &MultiWorkload) -> String {
    let i = skewed(rng, w.config.regions) + 1;
    let other = (i % w.config.regions.max(1)) + 1;
    let j = rng.gen_range(0..w.config.items_per_region.max(1)) + 1;
    format!(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         <xupdate:rename select=\"/db/region{i}/item{i}[{j}]\">item{other}</xupdate:rename>\
         </xupdate:modifications>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn corpus_validates_and_is_deterministic() {
        let cfg = MultiConfig::with_regions(8, 42);
        let a = generate_multi(cfg);
        let b = generate_multi(cfg);
        assert_eq!(a.xml, b.xml);
        assert_eq!(a.constraints, b.constraints);
        assert_eq!(a.constraints.len(), cfg.total_constraints());
        let dtd = xic_xml::Dtd::parse(&a.dtd).unwrap();
        let (doc, _) = xic_xml::parse_document(&a.xml).unwrap();
        dtd.validate(&doc).unwrap();
    }

    #[test]
    fn statements_parse_and_cover_all_op_kinds() {
        use xic_xml::XUpdateOp;
        let w = generate_multi(MultiConfig::with_regions(16, 3));
        let mut rng = StdRng::seed_from_u64(17);
        let mut seen = [false; 6];
        for _ in 0..200 {
            let text = random_multi_statement(&mut rng, &w);
            let stmt = xic_xml::XUpdateDoc::parse(&text)
                .unwrap_or_else(|e| panic!("generated statement must parse: {e}\n{text}"));
            assert_eq!(stmt.ops.len(), 1);
            let k = match &stmt.ops[0] {
                XUpdateOp::InsertBefore { .. } => 0,
                XUpdateOp::InsertAfter { .. } => 1,
                XUpdateOp::Append { .. } => 2,
                XUpdateOp::Remove { .. } => 3,
                XUpdateOp::Update { .. } => 4,
                XUpdateOp::Rename { .. } => 5,
            };
            seen[k] = true;
        }
        assert_eq!(seen, [true; 6], "all six op kinds must appear in the mix");
        let hostile = hostile_multi_statement(&mut rng, &w);
        xic_xml::XUpdateDoc::parse(&hostile).unwrap();
    }

    #[test]
    fn statement_stream_is_region_skewed() {
        let w = generate_multi(MultiConfig::with_regions(64, 9));
        let mut rng = StdRng::seed_from_u64(5);
        let mut hot = 0usize;
        let n = 1000;
        for _ in 0..n {
            let s = random_multi_statement(&mut rng, &w);
            // Region index appears in the select path.
            if (1..=16).any(|i| s.contains(&format!("/db/region{i}/"))
                || s.contains(&format!("/db/region{i}\"")))
            {
                hot += 1;
            }
        }
        assert!(
            hot > n / 2,
            "hot quartile of regions drew only {hot}/{n} statements"
        );
    }

    #[test]
    fn insert_helpers_parse() {
        let legal = legal_multi_insert(0, 7);
        assert!(xic_xml::XUpdateDoc::parse(&legal).unwrap().insertions_only());
        let ill = illegal_multi_insert(3);
        assert!(xic_xml::XUpdateDoc::parse(&ill).unwrap().insertions_only());
    }
}
