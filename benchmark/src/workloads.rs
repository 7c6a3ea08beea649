//! The four fixed workloads: corpus, Γ and request streams from a seed.
//!
//! Every workload is a DBLP-style corpus from `xic_workload::generate`,
//! the paper's three constraints (conflict of interests, conference
//! workload, review load) with thresholds high enough that every
//! "legal" statement is legal wherever it lands in the stream, and two
//! *lanes* of requests. A lane is one closed-loop client's stream. Where
//! a verdict depends on what came before (`mixed-ops`, `shard-zipf`) a
//! shard is only ever addressed from one lane, so each shard sees its
//! requests in a fixed order however the lanes interleave; the two
//! single-shard workloads send only requests whose verdict holds in any
//! order.
//!
//! Requests are counted, not timed: inserts grow the document, so only
//! a fixed stream walks the same document trajectory on both sides of a
//! comparison. `--seconds` scales the count by a per-workload rate
//! measured once on the reference host (see the README).
//!
//! The seed picks the corpus, the targets and the order of requests,
//! never the mix: how many requests of each cost class a stream holds
//! is fixed, because one full-check statement costs as much as fifty
//! optimized ones and a binomial draw of their number would swamp
//! every timing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_workload::{
    conflict_constraint, generate, illegal_insert, legal_insert, random_batch,
    review_load_constraint, workload_constraint, Workload, WorkloadConfig,
};

/// Client streams per workload, whatever the host's core count.
pub const LANES: usize = 2;

/// Identical rounds a full pass repeats its stream for; `--smoke` runs
/// one, a twentieth of the requests.
pub const ROUNDS: usize = 20;

/// The paper's combined DTD (`xic_mapping::schema::paper_dtd` as text).
pub const DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
    <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
    <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
    <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
    <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
    <!ELEMENT name (#PCDATA)>";

/// A workload's fixed shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// The workload's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Documents the server hosts (`--shards`).
    pub shards: usize,
    /// Size of each base document.
    pub base_kib: usize,
    /// Closed-loop clients at most (fewer on a single-core host).
    pub clients: usize,
    /// Requests per lane per second of `--seconds`, chosen so that the
    /// rounds' windows add up to about `--seconds` on the reference host.
    pub rate: f64,
    /// Requests per lane come in whole multiples of this: the length of
    /// the workload's mix schedule.
    pub cycle: usize,
}

/// The four workloads, in report order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "insert-stream",
        shards: 1,
        base_kib: 64,
        // Two closed-loop writers on one single-writer shard flip between
        // sharing a group commit and queueing behind each other; one
        // writer makes every commit a batch of one (see the README).
        clients: 1,
        rate: 128.0,
        cycle: 8,
    },
    Spec {
        name: "mixed-ops",
        shards: 2,
        base_kib: 32,
        clients: 2,
        rate: 72.0,
        cycle: OP_CYCLE.len(),
    },
    Spec {
        name: "read-mostly",
        shards: 1,
        base_kib: 32,
        clients: 2,
        rate: 40.0,
        cycle: 10,
    },
    Spec {
        name: "shard-zipf",
        shards: 16,
        base_kib: 8,
        clients: 2,
        rate: 560.0,
        cycle: 20,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The request verbs the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `UPDATE <stmt>`: checked, durable execution.
    Update,
    /// `DECIDE <stmt>`: hypothetical verdict on a snapshot.
    Decide,
    /// `CHECK`: full check of a snapshot.
    Check,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Target shard.
    pub shard: usize,
    /// The verb.
    pub verb: Verb,
    /// The single-line XUpdate statement (empty for `CHECK`).
    pub stmt: String,
    /// The reply detail the generator can promise whatever the
    /// interleaving (a prefix of what follows `OK <version> `); `None`
    /// where the verdict depends on the shard's history.
    pub expect: Option<&'static str>,
}

impl Request {
    /// The wire line (no terminator).
    pub fn line(&self) -> String {
        match self.verb {
            Verb::Update => format!("DOC {} UPDATE {}", self.shard, self.stmt),
            Verb::Decide => format!("DOC {} DECIDE {}", self.shard, self.stmt),
            Verb::Check => format!("DOC {} CHECK", self.shard),
        }
    }
}

/// Everything one round sends to the server, and how many rounds run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload's shape.
    pub spec: Spec,
    /// Rounds the untraced pass repeats the stream for.
    pub rounds: usize,
    /// The base document every shard starts from.
    pub xml: String,
    /// Γ, `. `-separated XPathLog denials.
    pub constraints: String,
    /// One request stream per lane.
    pub lanes: Vec<Vec<Request>>,
}

impl Plan {
    /// Requests per round, over all lanes.
    pub fn requests(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// The request at a `(lane, index)` position.
    pub fn at(&self, (lane, index): (usize, usize)) -> &Request {
        &self.lanes[lane][index]
    }

    /// The positions each of `connections` clients sends, in order: one
    /// lane per client, or — for a single client, and for the in-process
    /// replay — all lanes merged round-robin.
    pub fn streams(&self, connections: usize) -> Vec<Vec<(usize, usize)>> {
        let lane = |l: usize| (0..self.lanes[l].len()).map(move |i| (l, i));
        if connections >= self.lanes.len() {
            return (0..self.lanes.len()).map(|l| lane(l).collect()).collect();
        }
        let longest = self.lanes.iter().map(Vec::len).max().unwrap_or(0);
        let merged = (0..longest)
            .flat_map(|i| (0..self.lanes.len()).map(move |l| (l, i)))
            .filter(|&(l, i)| i < self.lanes[l].len())
            .collect();
        vec![merged]
    }
}

/// Requests per lane per round for `seconds` of nominal window: the
/// rate's share of one round, in whole mix cycles (at least one).
pub fn lane_requests(spec: Spec, seconds: u64) -> usize {
    let per_round = spec.rate * seconds as f64 / ROUNDS as f64;
    ((per_round / spec.cycle as f64).round() as usize).max(1) * spec.cycle
}

/// Builds workload `spec` for `seed` and `seconds`; `smoke` keeps one
/// round of the twenty.
pub fn plan(spec: Spec, seed: u64, seconds: u64, smoke: bool) -> Plan {
    let n = lane_requests(spec, seconds);
    let corpus = Corpus::new(spec.base_kib, seed);
    let lanes = (0..LANES)
        .map(|lane| {
            let mut gen = Gen {
                corpus: &corpus,
                rng: StdRng::seed_from_u64(seed ^ ((lane as u64 + 1) << 40)),
                lane,
                next_serial: lane * 1_000_000,
                decides: 0,
                ops: Vec::new(),
            };
            match spec.name {
                "insert-stream" => gen.insert_stream(n),
                "mixed-ops" => (0..n).map(|_| gen.random_op(lane)).collect(),
                "read-mostly" => gen.read_mostly(n),
                "shard-zipf" => gen.shard_zipf(spec.shards, n),
                other => unreachable!("no generator for workload {other:?}"),
            }
        })
        .collect();
    let constraints = gamma(&corpus.w, LANES * n);
    Plan {
        spec,
        rounds: if smoke { 1 } else { ROUNDS },
        xml: corpus.w.xml,
        constraints,
        lanes,
    }
}

/// Γ for corpus `w` when at most `inserts` submissions are ever added:
/// both aggregate thresholds sit above anything the stream can reach.
fn gamma(w: &Workload, inserts: usize) -> String {
    let mut by_name = std::collections::BTreeMap::new();
    for name in w.reviewers.iter().flatten() {
        *by_name.entry(name.as_str()).or_insert(0usize) += w.config.subs_per_rev;
    }
    let max_name_subs = by_name.values().copied().max().unwrap_or(0);
    format!(
        "{}. {}. {}",
        conflict_constraint(),
        workload_constraint(3, max_name_subs + inserts + 1),
        review_load_constraint(w.config.subs_per_rev + inserts + 1),
    )
}

/// One corpus and the reviewers statements can target.
struct Corpus {
    w: Workload,
    /// `(track, rev)` of every reviewer, document order.
    reviewers: Vec<(usize, usize)>,
}

impl Corpus {
    fn new(kib: usize, seed: u64) -> Corpus {
        let w = generate(WorkloadConfig::sized_kib(kib, seed));
        let reviewers = (0..w.config.tracks)
            .flat_map(|t| (0..w.config.revs_per_track).map(move |r| (t, r)))
            .collect();
        Corpus { w, reviewers }
    }
}

/// The classes `xic_workload::random_batch` draws single operations
/// from, by what they cost: the three insertions take the optimized
/// pre-update check, the rest apply, full-check and maybe roll back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Append,
    InsertBefore,
    InsertAfter,
    RemoveSub,
    RemoveAuthor,
    UpdateAuthor,
    UpdateTitle,
    UpdateReviewer,
    Rename,
}

/// One cycle of single operations in `random_batch`'s own proportions
/// (sixths by kind, removes halved, updates in thirds).
const OP_CYCLE: [OpClass; 36] = {
    use OpClass::*;
    [
        Append,
        InsertBefore,
        InsertAfter,
        RemoveSub,
        UpdateAuthor,
        Rename, //
        Append,
        InsertBefore,
        InsertAfter,
        RemoveAuthor,
        UpdateTitle,
        Rename, //
        Append,
        InsertBefore,
        InsertAfter,
        RemoveSub,
        UpdateReviewer,
        Rename, //
        Append,
        InsertBefore,
        InsertAfter,
        RemoveAuthor,
        UpdateAuthor,
        Rename, //
        Append,
        InsertBefore,
        InsertAfter,
        RemoveSub,
        UpdateTitle,
        Rename, //
        Append,
        InsertBefore,
        InsertAfter,
        RemoveAuthor,
        UpdateReviewer,
        Rename,
    ]
};

fn op_class(stmt: &str) -> OpClass {
    let op = stmt.split("<xupdate:").nth(2).unwrap_or_default();
    let select = op.split('"').nth(1).unwrap_or_default();
    match op.split(' ').next().unwrap_or_default() {
        "append" => OpClass::Append,
        "insert-before" => OpClass::InsertBefore,
        "insert-after" => OpClass::InsertAfter,
        "remove" if select.ends_with("/auts[1]") => OpClass::RemoveAuthor,
        "remove" => OpClass::RemoveSub,
        "update" if select.ends_with("/auts[1]/name") => OpClass::UpdateAuthor,
        "update" if select.ends_with("/title") => OpClass::UpdateTitle,
        "update" => OpClass::UpdateReviewer,
        _ => OpClass::Rename,
    }
}

/// `xic_workload`'s power-law index draw (crate-private there): index 0
/// is the hottest.
fn skewed(rng: &mut StdRng, pool: usize) -> usize {
    let r: f64 = rng.gen::<f64>();
    ((r * r) * pool as f64) as usize % pool.max(1)
}

fn one_line(stmt: String) -> String {
    stmt.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// One lane's generator state.
struct Gen<'c> {
    corpus: &'c Corpus,
    rng: StdRng,
    lane: usize,
    next_serial: usize,
    decides: usize,
    /// The classes left in the current (shuffled) [`OP_CYCLE`].
    ops: Vec<OpClass>,
}

impl Gen<'_> {
    fn slot(&mut self) -> usize {
        self.rng.gen_range(0..self.corpus.reviewers.len())
    }

    /// A fresh-author append to reviewer `slot`, legal wherever it lands.
    fn legal(&mut self, slot: usize) -> String {
        let (t, r) = self.corpus.reviewers[slot % self.corpus.reviewers.len()];
        self.next_serial += 1;
        one_line(legal_insert(t, r, self.next_serial))
    }

    /// An append whose author is reviewer `slot` themself.
    fn self_review(&self, slot: usize) -> String {
        let (t, r) = self.corpus.reviewers[slot % self.corpus.reviewers.len()];
        one_line(illegal_insert(t, r, &self.corpus.w.reviewers[t][r]))
    }

    /// `UPDATE` of a random single operation of the next class in the
    /// cycle: `random_batch` is redrawn until it yields that class.
    fn random_op(&mut self, shard: usize) -> Request {
        if self.ops.is_empty() {
            self.ops = OP_CYCLE.to_vec();
            for i in (1..self.ops.len()).rev() {
                self.ops.swap(i, self.rng.gen_range(0..=i));
            }
        }
        let class = self.ops.pop().expect("refilled above");
        let stmt = loop {
            let stmt = random_batch(&mut self.rng, &self.corpus.w, 1);
            if op_class(&stmt) == class {
                break stmt;
            }
        };
        Request {
            shard,
            verb: Verb::Update,
            stmt,
            expect: None,
        }
    }

    /// `DECIDE`, three legal inserts to one self-review: the legal ones
    /// evaluate all of Γ on a copy of the snapshot, the self-review stops
    /// at the first violation, and at 3:1 the median sits inside the
    /// first group instead of between the two.
    fn decide(&mut self, shard: usize, promised: bool) -> Request {
        self.decides += 1;
        let slot = self.slot();
        let (stmt, expect) = match self.decides % 4 {
            0 => (self.self_review(slot), "ILLEGAL"),
            _ => (self.legal(slot), "LEGAL"),
        };
        Request {
            shard,
            verb: Verb::Decide,
            stmt,
            expect: promised.then_some(expect),
        }
    }

    /// 7/8 fresh-author appends round-robin over the reviewers, 1/8
    /// self-reviews: every statement is decided by the optimized
    /// pre-update check, so what follows the check (apply, journal,
    /// publish) dominates.
    fn insert_stream(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let slot = i * LANES + self.lane;
                let (stmt, expect) = match i % 8 {
                    7 => (self.self_review(slot), "REJECTED optimized"),
                    _ => (self.legal(slot), "APPLIED optimized"),
                };
                Request {
                    shard: 0,
                    verb: Verb::Update,
                    stmt,
                    expect: Some(expect),
                }
            })
            .collect()
    }

    /// 80% `DECIDE`, 10% `CHECK`, 10% legal `UPDATE`: snapshot reads
    /// beside a trickle of publishes.
    fn read_mostly(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| match i % 10 {
                0 => {
                    let slot = self.slot();
                    let stmt = self.legal(slot);
                    Request {
                        shard: 0,
                        verb: Verb::Update,
                        stmt,
                        expect: Some("APPLIED optimized"),
                    }
                }
                5 => Request {
                    shard: 0,
                    verb: Verb::Check,
                    stmt: String::new(),
                    expect: Some("CONSISTENT"),
                },
                _ => self.decide(0, true),
            })
            .collect()
    }

    /// Zipf-skewed traffic over the shards this lane owns (`id % LANES
    /// == lane`), per 20 requests in seeded order: 12 legal inserts, 2
    /// self-review inserts, 3 random single operations, 3 `DECIDE`s.
    /// Random operations rewrite reviewer names and remove submissions,
    /// so no verdict here is promised up front.
    fn shard_zipf(&mut self, shards: usize, n: usize) -> Vec<Request> {
        let owned = shards / LANES;
        let mut kinds: Vec<u8> = Vec::new();
        (0..n)
            .map(|_| {
                if kinds.is_empty() {
                    kinds = [[0u8; 12].as_slice(), &[1; 2], &[2; 3], &[3; 3]].concat();
                    for i in (1..kinds.len()).rev() {
                        kinds.swap(i, self.rng.gen_range(0..=i));
                    }
                }
                let shard = skewed(&mut self.rng, owned) * LANES + self.lane;
                let update = |stmt| Request {
                    shard,
                    verb: Verb::Update,
                    stmt,
                    expect: None,
                };
                match kinds.pop().expect("refilled above") {
                    0 => {
                        let slot = self.slot();
                        update(self.legal(slot))
                    }
                    1 => {
                        let slot = self.slot();
                        update(self.self_review(slot))
                    }
                    2 => self.random_op(shard),
                    _ => self.decide(shard, false),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(p: &Plan) -> Vec<String> {
        p.streams(1)[0].iter().map(|&at| p.at(at).line()).collect()
    }

    #[test]
    fn plans_repeat_for_a_seed_and_differ_between_seeds() {
        for spec in SPECS {
            let of = |seed| lines(&plan(spec, seed, 2, false));
            assert_eq!(of(3), of(3), "{}", spec.name);
            assert_ne!(of(3), of(4), "{}", spec.name);
        }
    }

    #[test]
    fn a_shard_has_one_lane_or_promised_verdicts() {
        for spec in SPECS {
            let p = plan(spec, 1, 10, false);
            let mut owner = vec![None; spec.shards];
            for (lane, stream) in p.lanes.iter().enumerate() {
                for r in stream {
                    assert!(r.shard < spec.shards);
                    let sole = *owner[r.shard].get_or_insert(lane) == lane;
                    assert!(sole || r.expect.is_some(), "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn the_mix_is_the_same_for_every_seed() {
        for seed in [1, 2, 3] {
            let p = plan(spec("insert-stream").unwrap(), seed, 10, false);
            let rejected = p
                .lanes
                .concat()
                .iter()
                .filter(|r| r.expect == Some("REJECTED optimized"))
                .count();
            assert_eq!(rejected * 8, p.requests());

            let p = plan(spec("read-mostly").unwrap(), seed, 10, false);
            let count = |v| p.lanes.concat().iter().filter(|r| r.verb == v).count();
            assert_eq!(
                (count(Verb::Decide), count(Verb::Check), count(Verb::Update)),
                (32, 4, 4)
            );

            let p = plan(spec("mixed-ops").unwrap(), seed, 10, false);
            for lane in &p.lanes {
                let removes = lane
                    .iter()
                    .filter(|r| r.stmt.contains("<xupdate:remove"))
                    .count();
                assert_eq!(removes * 6, lane.len());
            }

            let p = plan(spec("shard-zipf").unwrap(), seed, 10, false);
            let decides = p
                .lanes
                .concat()
                .iter()
                .filter(|r| r.verb == Verb::Decide)
                .count();
            assert_eq!(decides * 20, p.requests() * 3);
        }
    }

    #[test]
    fn shard_zipf_is_skewed_toward_low_shards() {
        let p = plan(spec("shard-zipf").unwrap(), 1, 10, false);
        let hits = |low, high| {
            p.lanes
                .concat()
                .iter()
                .filter(|r| (low..high).contains(&r.shard))
                .count()
        };
        assert!(
            hits(0, 2) > 3 * hits(14, 16),
            "shards 0/1 drew {}, 14/15 drew {}",
            hits(0, 2),
            hits(14, 16)
        );
    }

    #[test]
    fn statements_are_single_lines_that_parse() {
        for spec in SPECS {
            let p = plan(spec, 2, 2, false);
            for r in p.lanes.concat() {
                assert!(!r.line().contains('\n'));
                if r.verb != Verb::Check {
                    xic_xml::XUpdateDoc::parse(&r.stmt).expect("generated statement parses");
                }
            }
        }
    }

    #[test]
    fn op_classes_follow_the_statement_text() {
        let corpus = Corpus::new(8, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = Vec::new();
        for _ in 0..400 {
            let class = op_class(&random_batch(&mut rng, &corpus.w, 1));
            if !seen.contains(&class) {
                seen.push(class);
            }
        }
        assert_eq!(seen.len(), 9, "{seen:?}");
    }

    #[test]
    fn requests_come_in_whole_cycles_and_smoke_is_one_round() {
        let s = spec("mixed-ops").unwrap();
        assert_eq!(lane_requests(s, 10), 36);
        assert_eq!(lane_requests(s, 1), 36);
        assert_eq!(lane_requests(spec("insert-stream").unwrap(), 10), 64);
        let full = plan(s, 1, 10, false);
        let smoke = plan(s, 1, 10, true);
        assert_eq!((full.rounds, smoke.rounds), (ROUNDS, 1));
        assert_eq!(lines(&full), lines(&smoke));
    }
}
