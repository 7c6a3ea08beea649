//! `DECIDE` on read snapshots (DESIGN.md row 25): the optimized
//! pre-update check runs on the reader's thread against the immutable
//! snapshot and answers what `UPDATE` would answer at that version.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Cursor;
use std::sync::Barrier;
use xic_workload::{conflict_constraint, generate, random_batch, WorkloadConfig};
use xicheck::obs;
use xicheck::protocol::{execute, serve_connection, Command};
use xicheck::{Checker, CheckerService, Executor, SharedGamma, XUpdateDoc};

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

/// Every reviewer name reviews on at least one track: an upper bound on
/// a distinct count over a two-atom pattern, which `After` cannot shift
/// when a `rev` is inserted — that pattern compiles, but not to an
/// incremental check.
const TRACKED_REVIEWERS: &str =
    "<- //rev/name/text() -> R & cntd{[R]; //track[rev/name/text() -> R]} < 1";

fn stmt(body: &str) -> String {
    format!(
        "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
         {body}</xupdate:modifications>"
    )
}

fn insert_sub(rev_sel: &str, author: &str) -> String {
    stmt(&format!(
        "<xupdate:append select=\"{rev_sel}\">\
         <sub><title>New</title><auts><name>{author}</name></auts></sub>\
         </xupdate:append>"
    ))
}

fn legal(tag: &str) -> String {
    insert_sub("//rev[name/text() = 'dan']", &format!("fresh-{tag}"))
}

fn service(constraints: &str) -> std::sync::Arc<CheckerService> {
    let checker = Checker::new(CORPUS, DTD, constraints).expect("corpus setup");
    CheckerService::new(checker, Executor::Sync)
}

fn decide(service: &CheckerService, stmt: &str) -> String {
    execute(service, &Command::Decide(stmt.to_string(), None)).render()
}

fn update(service: &CheckerService, stmt: &str) -> String {
    execute(service, &Command::Update(stmt.to_string(), None)).render()
}

/// What an `UPDATE` reply says `DECIDE` must have said at the version
/// before it: `APPLIED s` ⇔ `LEGAL`, `REJECTED s d` ⇔ `ILLEGAL d`,
/// `ERR m` ⇔ `ERR m`.
fn expected_decide(version_before: u64, update_reply: &str) -> String {
    if update_reply.starts_with("ERR ") {
        return update_reply.to_string();
    }
    let detail = update_reply
        .splitn(3, ' ')
        .nth(2)
        .unwrap_or_else(|| panic!("unexpected UPDATE reply {update_reply:?}"));
    let mut words = detail.splitn(3, ' ');
    match (words.next(), words.next(), words.next()) {
        (Some("APPLIED"), Some(_strategy), None) => format!("OK {version_before} LEGAL"),
        (Some("REJECTED"), Some(_strategy), Some(denial)) => {
            format!("OK {version_before} ILLEGAL {denial}")
        }
        _ => panic!("unexpected UPDATE reply {update_reply:?}"),
    }
}

/// (a) For a seeded mix of all six operation kinds, `DECIDE s` equals
/// the `UPDATE s` reply of a twin at the same version: verdict word,
/// denial text, `ERR` text.
#[test]
fn decide_answers_what_update_would_at_the_same_version() {
    let w = generate(WorkloadConfig {
        seed: 7,
        pubs: 8,
        tracks: 2,
        revs_per_track: 2,
        subs_per_rev: 2,
        name_pool: 10,
    });
    let build = || {
        let checker = Checker::new(&w.xml, DTD, conflict_constraint()).expect("workload setup");
        CheckerService::new(checker, Executor::Sync)
    };
    let (decider, twin) = (build(), build());
    let mut rng = StdRng::seed_from_u64(2026);
    let (mut applied, mut rejected, mut refused) = (0, 0, 0);
    let mut kinds = std::collections::HashSet::new();
    for i in 0..240 {
        let s = random_batch(&mut rng, &w, 1);
        let parsed = XUpdateDoc::parse(&s).expect("generated statement parses");
        kinds.insert(std::mem::discriminant(&parsed.ops[0]));
        let before = twin.version();
        assert_eq!(
            decider.version(),
            before,
            "statement {i}: services out of step"
        );
        let decided = decide(&decider, &s);
        let updated = update(&twin, &s);
        assert_eq!(
            decided,
            expected_decide(before, &updated),
            "statement {i}: {s}"
        );
        match updated.split(' ').nth(2) {
            Some("APPLIED") => applied += 1,
            Some("REJECTED") => rejected += 1,
            _ => refused += 1,
        }
        // Keep the decider at the twin's version.
        assert_eq!(
            update(&decider, &s),
            updated,
            "statement {i}: twins diverged"
        );
    }
    assert_eq!(
        kinds.len(),
        6,
        "the stream must cover all six operation kinds"
    );
    assert!(
        applied > 0 && rejected > 0 && refused > 0,
        "{applied}/{rejected}/{refused}"
    );
    let stats = decider.stats();
    assert!(
        stats.decides_optimized > 0 && stats.decides_fallback[0] > 0, // non_insertion
        "{stats:?}"
    );
}

/// (a′) A snapshot held across a hundred commits of all six operation
/// kinds stays the state it was published at: each commit wrote copies of
/// the chunks the snapshot shares, never the chunks themselves.
#[test]
fn a_held_snapshot_survives_a_hundred_commits_of_every_kind() {
    let w = generate(WorkloadConfig {
        seed: 7,
        pubs: 8,
        tracks: 2,
        revs_per_track: 2,
        subs_per_rev: 2,
        name_pool: 10,
    });
    let checker = Checker::new(&w.xml, DTD, conflict_constraint()).expect("workload setup");
    let service = CheckerService::new(checker, Executor::Sync);
    let snap = service.snapshot();
    // The snapshot builds the index the pattern's join asks for.
    assert_eq!(decide(&service, &xic_workload::legal_insert(0, 0, 0)), "OK 0 LEGAL");
    let before = snap.serialize();
    let mut rng = StdRng::seed_from_u64(2027);
    let mut kinds = std::collections::HashSet::new();
    for _ in 0..1_000 {
        if service.version() == 100 {
            break;
        }
        let s = random_batch(&mut rng, &w, 1);
        if update(&service, &s).split(' ').nth(2) == Some("APPLIED") {
            let parsed = XUpdateDoc::parse(&s).expect("generated statement parses");
            kinds.insert(std::mem::discriminant(&parsed.ops[0]));
        }
    }
    assert_eq!((service.version(), kinds.len()), (100, 6), "a hundred commits of six kinds");
    assert_eq!(snap.version(), 0);
    assert_eq!(snap.serialize(), before, "a commit wrote into the held snapshot");
    snap.doc().audit_indexes().expect("the held snapshot's indexes equal a scan");
    snap.doc().audit_symbols().expect("the held snapshot's symbols are coherent");
}

/// (b) Eight readers decide a never-seen insertion pattern while the
/// writer commits statements of the same pattern: whoever compiles it
/// first publishes it, everyone else adopts that entry.
#[test]
fn first_sight_race_compiles_into_one_shared_entry() {
    const READERS: usize = 8;
    const COMMITS: usize = 12;
    let gamma = SharedGamma::compile(DTD, CONFLICT).expect("Γ compiles");
    let checker = Checker::from_shared(CORPUS, &gamma).expect("corpus setup");
    let service = CheckerService::new(checker, Executor::GroupCommit);
    let cache = gamma.patterns();
    assert!(cache.is_empty(), "nothing has seen the pattern yet");
    // The writer is this thread, the one submitter: it leads every batch.
    let writer_compiles = || obs::snapshot().phase("compile/after").map_or(0, |p| p.calls);
    let compiles_before = writer_compiles();
    let start = Barrier::new(READERS + 1);
    let verdicts: Vec<String> = std::thread::scope(|scope| {
        let (service, start) = (&service, &start);
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    start.wait();
                    decide(service, &legal(&format!("reader-{r}")))
                })
            })
            .collect();
        start.wait();
        for i in 0..COMMITS {
            let reply = update(service, &legal(&format!("writer-{i}")));
            assert!(reply.ends_with(" APPLIED optimized"), "{reply}");
        }
        readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect()
    });
    for verdict in &verdicts {
        assert!(
            verdict.starts_with("OK ") && verdict.ends_with(" LEGAL"),
            "readers must agree on LEGAL, got {verdicts:?}"
        );
    }
    assert_eq!(cache.len(), 1, "one pattern, one entry");
    assert_eq!(service.stats().decides_optimized, READERS as u64);
    let compiled = writer_compiles() - compiles_before;
    assert!(compiled <= 1, "the writer compiles the pattern at most once: {compiled}");
}

/// The readers of a snapshot share its document, and what they build on
/// it ([`xicheck::ReadSnapshot`] is `Sync` by what it holds, not by fiat).
const _: fn() = || {
    fn shared<T: Sync + Send>() {}
    shared::<xicheck::ReadSnapshot>();
};

/// (b′) Eight readers decide a never-seen pattern on one snapshot: its
/// document builds each index the pattern asks for once, whoever asks
/// first, and every verdict is the writer's. The snapshot's document is
/// the writer's committed version, so the writer's first decision finds
/// those indexes built, and the snapshot it publishes carries them on:
/// nothing is built twice.
#[test]
fn first_sight_on_one_snapshot_builds_each_index_once() {
    const READERS: usize = 8;
    let gamma = format!(
        "{}. {}. {}",
        conflict_constraint(),
        xic_workload::workload_constraint(3, 1_000),
        xic_workload::review_load_constraint(1_000)
    );
    // A lone decision asks for the pattern's three shapes.
    let twin = service(&gamma);
    assert_eq!(decide(&twin, &legal("twin")), "OK 0 LEGAL");
    assert_eq!(twin.stats().index_builds, 3);
    let probes = twin.stats().index_probes;

    let service = service(&gamma);
    let snap = service.snapshot();
    let start = Barrier::new(READERS);
    let verdicts: Vec<_> = std::thread::scope(|scope| {
        let (snap, start) = (&snap, &start);
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let stmt = XUpdateDoc::parse(&legal(&format!("reader-{r}"))).expect("parses");
                    start.wait();
                    snap.decide(&stmt)
                })
            })
            .collect();
        readers.into_iter().map(|h| h.join().expect("reader panicked")).collect()
    });
    for verdict in &verdicts {
        assert!(matches!(verdict, Ok(None)), "the writer says LEGAL, a reader {verdict:?}");
    }
    let stats = service.stats();
    assert_eq!(stats.index_probes, probes * READERS as u64);
    assert_eq!(stats.index_builds, 3, "each shape once, not once per reader");
    snap.doc().audit_indexes().expect("what the readers built equals a scan");

    let reply = update(&service, &legal("writer"));
    assert_eq!(reply, "OK 1 APPLIED optimized");
    assert_eq!(service.stats().index_builds, 3, "the writer's document is the snapshot's");
    assert_eq!(decide(&service, &legal("later")), "OK 1 LEGAL");
    assert_eq!(service.stats().index_builds, 3);
}

/// (c) A zero deadline is a timeout — answered as such, counted once,
/// and not retried down the baseline.
#[test]
fn zero_deadline_decide_times_out_once() {
    let service = service(CONFLICT);
    let script = format!("DECIDE 0 {}\nSTATS\nDECIDE {}\n", legal("a"), legal("a"));
    let mut out = Vec::new();
    serve_connection(|c| execute(&service, c), Cursor::new(script), &mut out).expect("serve");
    let text = String::from_utf8(out).expect("utf8 replies");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "ERR timeout: deadline of 0 ms exceeded");
    assert!(lines[1].contains(" requests_timed_out=1 "), "{}", lines[1]);
    assert!(
        lines[1].ends_with(
            "decides_optimized=0 decides_fallback_non_insertion=0 \
             decides_fallback_observes_earlier_op=0 \
             decides_fallback_unmappable=0 decides_fallback_non_incremental=0 \
             decides_fallback_pos_shift=0"
        ),
        "a timed-out DECIDE is neither a decision nor a fallback: {}",
        lines[1]
    );
    assert_eq!(lines[2], "OK 0 LEGAL", "the next request is unaffected");
}

/// (d) Deciding leaves the snapshot byte-identical, whichever path
/// decides.
#[test]
fn decide_leaves_the_snapshot_untouched() {
    let service = service(CONFLICT);
    let snap = service.snapshot();
    let before = snap.serialize();
    let rename =
        stmt("<xupdate:rename select=\"//rev[name/text() = 'dan']/sub\">paper</xupdate:rename>");
    for s in [
        legal("a"),
        insert_sub("//rev[name/text() = 'ann']", "ann"),
        rename,
    ] {
        let parsed = XUpdateDoc::parse(&s).expect("statement parses");
        snap.decide(&parsed).expect("decides");
        assert_eq!(
            snap.serialize(),
            before,
            "decide modified the snapshot: {s}"
        );
    }
    assert_eq!(snap.version(), 0);
    assert_eq!(service.stats().decides_optimized, 2);
}

/// (d) A pattern registered on the checker before the service exists is
/// in the cache the readers use: the first `DECIDE` of that pattern
/// compiles nothing. Without the registration it compiles exactly once.
#[test]
fn preregistered_patterns_are_visible_to_readers() {
    let compiles = |snap: &obs::Snapshot| snap.phase("compile/after").map_or(0, |p| p.calls);
    let parsed = XUpdateDoc::parse(&legal("a")).expect("statement parses");

    let mut checker = Checker::new(CORPUS, DTD, CONFLICT).expect("corpus setup");
    checker.register_pattern(&parsed).expect("register");
    let service = CheckerService::new(checker, Executor::Sync);
    let snap = service.snapshot();
    obs::reset();
    assert!(snap.decide(&parsed).expect("decides").is_none());
    assert_eq!(
        compiles(&obs::snapshot()),
        0,
        "the registered pattern was recompiled"
    );

    let unregistered = self::service(CONFLICT);
    let snap = unregistered.snapshot();
    obs::reset();
    assert!(snap.decide(&parsed).expect("decides").is_none());
    assert!(snap.decide(&parsed).expect("decides").is_none());
    assert_eq!(
        compiles(&obs::snapshot()),
        1,
        "first sight compiles, second sight adopts"
    );
    assert_eq!(unregistered.stats().decides_optimized, 2);
}

/// Every decision counter reaches the wire: one `DECIDE` per way of
/// being answered, then `STATS`.
#[test]
fn stats_count_every_way_a_decide_is_answered() {
    // The second constraint reads a `sub`'s position.
    let ninth_sub = "<- //rev/sub[9]/title/text() -> T & T = \"never\"";
    let service = service(&format!("{TRACKED_REVIEWERS} . {ninth_sub}"));
    let retitle = stmt(
        "<xupdate:rename select=\"//rev[name/text() = 'dan']/sub/title\">heading</xupdate:rename>",
    );
    // `//rev` selects both reviewers: not one target, so not a pattern.
    let two_targets = insert_sub("//rev", "zoe");
    // A new reviewer: the aggregate over `rev` is read off the updated
    // copy, the position check is simplified — optimized, with a residual.
    let new_reviewer = stmt(
        "<xupdate:append select=\"//track\"><rev><name>zed</name>\
         <sub><title>New</title><auts><name>zoe</name></auts></sub></rev></xupdate:append>",
    );
    // A reviewer's new name reaches only the aggregate, which `After`
    // cannot rewrite under a deletion: no incremental check.
    let renamed = stmt("<xupdate:update select=\"//rev[name/text() = 'dan']/name\">dean</xupdate:update>");
    // In front of dan's only `sub`, which moves one position on.
    let in_front = stmt(
        "<xupdate:insert-before select=\"//rev[name/text() = 'dan']/sub[1]\">\
         <sub><title>New</title><auts><name>zoe</name></auts></sub></xupdate:insert-before>",
    );
    // The second `//rev[…]` could find a `rev` the first op inserts.
    let sequential = stmt(
        "<xupdate:append select=\"/collection/review/track[1]/rev[2]\">\
         <sub><title>A</title><auts><name>zoe</name></auts></sub></xupdate:append>\
         <xupdate:append select=\"//rev[name/text() = 'dan']\">\
         <sub><title>B</title><auts><name>zed</name></auts></sub></xupdate:append>",
    );
    let script = format!(
        "DECIDE {}\nDECIDE {retitle}\nDECIDE {two_targets}\nDECIDE {new_reviewer}\n\
         DECIDE {renamed}\nDECIDE {in_front}\nDECIDE {sequential}\nSTATS\n",
        legal("a")
    );
    let mut out = Vec::new();
    serve_connection(|c| execute(&service, c), Cursor::new(script), &mut out).expect("serve");
    let text = String::from_utf8(out).expect("utf8 replies");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[..7], ["OK 0 LEGAL"; 7], "{lines:?}");
    assert!(
        lines[7].ends_with(
            "decides_optimized=2 decides_fallback_non_insertion=1 \
             decides_fallback_observes_earlier_op=1 \
             decides_fallback_unmappable=1 decides_fallback_non_incremental=1 \
             decides_fallback_pos_shift=1"
        ),
        "{}",
        lines[7]
    );
}
