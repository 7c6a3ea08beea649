//! The traced pass: where the time of a request goes, layer by layer.
//!
//! Nothing inside the product is instrumented. The pass replays one
//! round's stream in-process, single-threaded, through the same calls
//! the server makes — `protocol::parse_command` →
//! `protocol::execute_sharded` on a `ShardSet` with the sequential
//! executor over a fresh store → `Reply::render` — each wrapped in a
//! span. Beside that replay, per shard:
//!
//! * a journal-less twin `Checker` takes every `UPDATE` stage by stage
//!   through public functions (`XUpdateDoc::parse`, `try_update`), and a
//!   scratch `Journal` appends and syncs the canonical text of every
//!   statement the twin applied;
//! * a journaled twin `CheckerService` takes every `UPDATE` through
//!   `submit`, to set the stages against the whole;
//! * on every [`PROBE_STRIDE`]th request the costs that grow with the
//!   document are probed at its current size: clone, serialize, apply
//!   and undo on the clone, the optimized decision; and on every
//!   [`FULL_CHECK_STRIDE`]th the ones that evaluate all of Γ: the full
//!   decision and the full check, on the twin and on a read snapshot.
//!
//! The stream is replayed [`REPLAYS`] times from scratch and the samples
//! pooled. A server is also driven over the socket with a single client,
//! as many times, for the gap between a request's in-process span and
//! its latency on the wire.

use crate::oracle::{ok_parts, Outcome};
use crate::report::{num, obj, MetricTable, Pass, Value};
use crate::stats::{fastest_per_position, median};
use crate::trace::{write_jsonl, Tracer};
use crate::wire::{drive, Scratch, Server, ServerFiles};
use crate::workloads::{Plan, Verb, DTD};
use std::path::Path;
use std::time::Instant;
use xic_xml::{apply, parse_document, serialize, undo, Dtd, Journal, RecordKind, XUpdateDoc};
use xicheck::protocol::{execute_sharded, parse_command};
use xicheck::{
    xpath_resolver, Checker, CheckerService, Executor, ServiceConfig, ShardSet, ShardSetConfig,
    SharedGamma, Strategy, UpdateOutcome,
};

/// The per-layer metrics and their units, as in `BENCHMARK.json`.
pub const METRICS: MetricTable = &[
    ("protocol.parse_us", "us"),
    ("protocol.execute_us", "us"),
    ("protocol.render_us", "us"),
    ("protocol.wire_gap_us", "us"),
    ("xupdate.parse_us", "us"),
    ("xupdate.apply_us", "us"),
    ("xupdate.undo_us", "us"),
    ("checker.decide_optimized_us", "us"),
    ("checker.decide_full_us", "us"),
    ("checker.optimized_share", "ratio"),
    ("checker.try_update_us", "us"),
    ("checker.check_full_us", "us"),
    ("checker.compile_ms", "ms"),
    ("checker.register_pattern_ms", "ms"),
    ("checker.pattern_count", "count"),
    ("tree.parse_ms", "ms"),
    ("tree.clone_us", "us"),
    ("tree.serialize_us", "us"),
    ("tree.nodes", "count"),
    ("dtd.validate_ms", "ms"),
    ("journal.append_us", "us"),
    ("journal.sync_us", "us"),
    ("journal.bytes_per_commit", "B"),
    ("journal.recover_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.snapshot_us", "us"),
    ("service.decide_full_us", "us"),
    ("service.check_full_us", "us"),
    ("service.residual_us", "us"),
    ("service.coverage", "ratio"),
    ("shards.recover_ms", "ms"),
    ("shards.replayed_commits", "count"),
];

/// Every how many requests the size-dependent probes run.
pub const PROBE_STRIDE: usize = 8;

/// Every how many requests the probes that evaluate all of Γ run (the
/// two full checks and the two full decisions: 150 ms each at 64 KiB).
pub const FULL_CHECK_STRIDE: usize = 4 * PROBE_STRIDE;

/// Times the stream is replayed from scratch (once under `--smoke`);
/// samples pool.
pub const REPLAYS: usize = 3;

/// Repetitions behind each set-up probe's median.
const SETUP_REPS: usize = 5;

fn sequential() -> ShardSetConfig {
    ShardSetConfig {
        service: ServiceConfig {
            executor: Executor::Sync,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn millis_median(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let began = Instant::now();
        f()?;
        samples.push(began.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&samples).expect("reps is at least one"))
}

/// Counts the replays keep beside the spans.
#[derive(Default)]
struct Tally {
    updates: u64,
    optimized: u64,
    applied: u64,
    /// `try_update` time by the path it took: decided by the optimized
    /// pre-update check, or applied, fully checked and maybe rolled back
    /// (refusals included).
    optimized_us: f64,
    full_us: f64,
    nodes: Vec<f64>,
    journal_bytes: u64,
    pattern_count: usize,
    recover_ms: Vec<f64>,
    journal_recover_ms: Vec<f64>,
    replayed_commits: usize,
}

/// Runs the traced pass over `plan` and writes the span dump to
/// `benchmark/out/trace-<workload>.jsonl`.
pub fn run(plan: &Plan) -> Result<Pass, String> {
    let began = Instant::now();
    let scratch = Scratch::create()?;
    let mut pass = Pass::new(METRICS);
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();

    // What a cold start pays before the first request.
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let doc = parse_document(&plan.xml).map_err(|e| err(&e))?.0;
    let dtd = Dtd::parse(DTD)?;
    let parse_ms = millis_median(SETUP_REPS, || {
        parse_document(&plan.xml).map(drop).map_err(|e| err(&e))
    })?;
    let validate_ms = millis_median(SETUP_REPS, || dtd.validate(&doc).map_err(|e| err(&e)))?;
    let compile_ms = millis_median(SETUP_REPS, || {
        SharedGamma::compile(DTD, &plan.constraints)
            .map(drop)
            .map_err(|e| err(&e))
    })?;
    let gamma = SharedGamma::compile(DTD, &plan.constraints).map_err(|e| err(&e))?;
    let insertion = plan
        .lanes
        .iter()
        .flatten()
        .find(|r| XUpdateDoc::parse(&r.stmt).is_ok_and(|s| s.insertions_only()))
        .ok_or("the stream holds no insertion to register a pattern for")?;
    let register_ms = millis_median(SETUP_REPS, || {
        // A fresh checker each time: no pattern cache to hit.
        let mut checker = Checker::from_shared(&plan.xml, &gamma).map_err(|e| err(&e))?;
        checker
            .register_pattern_str(&insertion.stmt)
            .map(drop)
            .map_err(|e| err(&e))
    })?;

    let order = plan.streams(1).remove(0);
    let replays = REPLAYS.min(plan.rounds);
    let mut in_process_us = Vec::with_capacity(replays);
    for replay in 0..replays {
        let root = scratch.0.join(format!("replay-{replay}"));
        in_process_us.push(replay_once(
            plan,
            &order,
            replay,
            &root,
            &mut tracer,
            &mut tally,
            &mut pass,
        )?);
    }

    // The same stream over the socket, one client, as many times: what
    // the wire adds. Both sides count at each position's fastest
    // observation, and the gap is read where it is largest against the
    // request itself: on the cheapest quarter of the positions.
    let files = ServerFiles::write(plan, &scratch.0)?;
    let mut wire_us = Vec::with_capacity(replays);
    for round in 0..replays {
        let store = scratch.0.join(format!("wire-store-{round}"));
        let (server, _control, _) = Server::start(&files, &store)?;
        let (exchanges, _) = drive(&server, plan, std::slice::from_ref(&order))?;
        server.kill();
        wire_us.push(exchanges[0].iter().map(|e| e.nanos as f64 / 1e3).collect());
    }
    let mut pairs: Vec<(f64, f64)> = fastest_per_position(&in_process_us)
        .into_iter()
        .zip(fastest_per_position(&wire_us))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    pairs.truncate(pairs.len().div_ceil(4));
    let gaps: Vec<f64> = pairs.iter().map(|(inside, wire)| wire - inside).collect();

    let med = |name: &str| median(&tracer.micros(name)).unwrap_or(0.0);
    let parts = [
        "xupdate.parse",
        "checker.try_update",
        "journal.append",
        "journal.sync",
        "tree.clone",
    ];
    let covered: f64 = parts.iter().map(|p| med(p)).sum();
    let submit = med("service.submit");
    pass.metric("protocol.parse_us", med("protocol.parse"));
    pass.metric("protocol.execute_us", med("protocol.execute"));
    pass.metric("protocol.render_us", med("protocol.render"));
    pass.metric("protocol.wire_gap_us", median(&gaps).unwrap_or(0.0));
    pass.metric("xupdate.parse_us", med("xupdate.parse"));
    pass.metric("xupdate.apply_us", med("xupdate.apply"));
    pass.metric("xupdate.undo_us", med("xupdate.undo"));
    pass.metric(
        "checker.decide_optimized_us",
        med("checker.decide_optimized"),
    );
    pass.metric("checker.decide_full_us", med("checker.decide_full"));
    pass.metric(
        "checker.optimized_share",
        tally.optimized as f64 / tally.updates.max(1) as f64,
    );
    pass.metric("checker.try_update_us", med("checker.try_update"));
    pass.metric("checker.check_full_us", med("checker.check_full"));
    pass.metric("checker.compile_ms", compile_ms);
    pass.metric("checker.register_pattern_ms", register_ms);
    pass.metric("checker.pattern_count", tally.pattern_count as f64);
    pass.metric("tree.parse_ms", parse_ms);
    pass.metric("tree.clone_us", med("tree.clone"));
    pass.metric("tree.serialize_us", med("tree.serialize"));
    pass.metric("tree.nodes", median(&tally.nodes).unwrap_or(0.0));
    pass.metric("dtd.validate_ms", validate_ms);
    pass.metric("journal.append_us", med("journal.append"));
    pass.metric("journal.sync_us", med("journal.sync"));
    pass.metric(
        "journal.bytes_per_commit",
        tally.journal_bytes as f64 / tally.applied.max(1) as f64,
    );
    pass.metric(
        "journal.recover_ms",
        median(&tally.journal_recover_ms).unwrap_or(0.0),
    );
    pass.metric("service.submit_us", submit);
    pass.metric("service.snapshot_us", med("service.snapshot"));
    pass.metric("service.decide_full_us", med("service.decide_full"));
    pass.metric("service.check_full_us", med("service.check_full"));
    pass.metric("service.residual_us", submit - covered);
    pass.metric(
        "service.coverage",
        if submit > 0.0 { covered / submit } else { 0.0 },
    );
    pass.metric(
        "shards.recover_ms",
        median(&tally.recover_ms).unwrap_or(0.0),
    );
    pass.metric("shards.replayed_commits", tally.replayed_commits as f64);

    // Where protocol.execute's time goes, as shares of its total: reads
    // are the execute spans of DECIDE and CHECK themselves; for UPDATEs
    // the twins' stages stand in, the clone scaled from its probes to
    // one per applied statement.
    let total = |name: &str| tracer.micros(name).iter().sum::<f64>();
    let execute_total = total("protocol.execute");
    let reads: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "protocol.execute")
        .filter(|s| plan.at(order[s.request as usize % order.len()]).verb != Verb::Update)
        .map(|s| s.micros())
        .sum();
    let clone_total = med("tree.clone") * tally.applied as f64;
    let budget = [
        ("service (snapshot reads)", reads),
        ("xupdate (parse)", total("xupdate.parse")),
        (
            "checker (optimized pre-update check + apply)",
            tally.optimized_us,
        ),
        ("checker (apply + full check + rollback)", tally.full_us),
        (
            "journal (append + sync)",
            total("journal.append") + total("journal.sync"),
        ),
        ("tree (publish clone)", clone_total),
    ];
    let samples = |name: &str| num(tracer.micros(name).len() as f64);
    pass.info = obj([
        ("replays", num(replays as f64)),
        ("requests_per_replay", num(order.len() as f64)),
        ("probe_stride", num(PROBE_STRIDE as f64)),
        ("full_check_stride", num(FULL_CHECK_STRIDE as f64)),
        ("spans", num(tracer.spans.len() as f64)),
        (
            "execute_budget",
            Value::Object(
                budget
                    .iter()
                    .map(|(k, v)| (k.to_string(), num(v / execute_total)))
                    .collect(),
            ),
        ),
        (
            "samples",
            obj([
                ("protocol.execute", samples("protocol.execute")),
                ("checker.try_update", samples("checker.try_update")),
                ("journal.append", samples("journal.append")),
                ("tree.clone", samples("tree.clone")),
                ("checker.decide_full", samples("checker.decide_full")),
                ("service.decide_full", samples("service.decide_full")),
            ]),
        ),
    ]);
    let dump = Path::new("benchmark")
        .join("out")
        .join(format!("trace-{}.jsonl", plan.spec.name));
    write_jsonl(&dump, &tracer.spans).map_err(|e| format!("write {}: {e}", dump.display()))?;
    pass.wall_s = began.elapsed().as_secs_f64();
    Ok(pass)
}

/// One replay of the stream from scratch under `root`. Returns each
/// request's in-process span (parse + execute + render) in microseconds.
fn replay_once(
    plan: &Plan,
    order: &[(usize, usize)],
    replay: usize,
    root: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    pass: &mut Pass,
) -> Result<Vec<f64>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let shards = plan.spec.shards;
    let bases = vec![plan.xml.as_str(); shards];
    let store = root.join("store");
    let set = ShardSet::create(&store, &bases, DTD, &plan.constraints, sequential())
        .map_err(|e| err(&e))?;
    let mut twins = Vec::with_capacity(shards);
    let mut submitters = Vec::with_capacity(shards);
    for id in 0..shards {
        twins.push(Checker::from_shared(&plan.xml, set.gamma()).map_err(|e| err(&e))?);
        let mut journaled = Checker::from_shared(&plan.xml, set.gamma()).map_err(|e| err(&e))?;
        journaled
            .attach_store(&root.join(format!("submit-{id}")), true)
            .map_err(|e| err(&e))?;
        submitters.push(CheckerService::new(journaled, Executor::Sync));
    }
    let wal = root.join("scratch.wal");
    let mut journal = Journal::create(&wal, 0, false).map_err(|e| err(&e))?;
    let journal_header = journal.byte_len();
    let mut acked = vec![0u64; shards];
    let mut in_process_us = Vec::with_capacity(order.len());

    for (position, &at) in order.iter().enumerate() {
        let request = plan.at(at);
        let id = (replay * order.len() + position) as u32;
        let line = request.line();
        pass.attempted += 1;

        // The request as the server sees it.
        let root_span = tracer.open("request", id, None);
        let command = tracer.time("protocol.parse", id, Some(root_span), || {
            parse_command(&line)
        })?;
        let reply = tracer.time("protocol.execute", id, Some(root_span), || {
            execute_sharded(&set, &command)
        });
        let rendered = tracer.time("protocol.render", id, Some(root_span), || reply.render());
        tracer.close(root_span);
        in_process_us.push(tracer.spans[root_span as usize].micros());
        if Outcome::of(&rendered) == Some(Outcome::Applied) {
            acked[request.shard] += 1;
        }

        // The same statement, stage by stage, on the twins.
        let stmt = (request.verb != Verb::Check)
            .then(|| XUpdateDoc::parse(&request.stmt))
            .transpose();
        let stmt = stmt.map_err(|e| err(&e))?;
        let twin = &mut twins[request.shard];
        let mut expected = request.expect.map(str::to_string);
        if let (Verb::Update, Some(stmt)) = (request.verb, &stmt) {
            tracer
                .time("xupdate.parse", id, None, || {
                    XUpdateDoc::parse(&request.stmt).map(drop)
                })
                .map_err(|e| err(&e))?;
            let began = tracer.open("checker.try_update", id, None);
            let outcome = twin.try_update(stmt);
            tracer.close(began);
            let took = tracer.spans[began as usize].micros();
            tally.updates += 1;
            let word = |s: Strategy| {
                if s == Strategy::Optimized {
                    "optimized"
                } else {
                    "full-with-rollback"
                }
            };
            match &outcome {
                Ok(o) if o.strategy() == Strategy::Optimized => {
                    tally.optimized += 1;
                    tally.optimized_us += took;
                }
                _ => tally.full_us += took,
            }
            expected = Some(match &outcome {
                Ok(UpdateOutcome::Applied { strategy }) => format!("APPLIED {}", word(*strategy)),
                Ok(UpdateOutcome::Rejected { strategy, .. }) => {
                    format!("REJECTED {}", word(*strategy))
                }
                Err(_) => "ERR".to_string(),
            });
            if outcome.is_ok_and(|o| o.applied()) {
                tally.applied += 1;
                let text = stmt.to_xml();
                let version = twin.committed();
                tracer
                    .time("journal.append", id, None, || {
                        journal.append(RecordKind::Commit, version, &text)
                    })
                    .map_err(|e| err(&e))?;
                tracer
                    .time("journal.sync", id, None, || journal.sync_now())
                    .map_err(|e| err(&e))?;
            }
            // Submit errors are the stream's expected refusals; the main
            // replay's reply already answers for them.
            let _ = tracer.time("service.submit", id, None, || {
                submitters[request.shard].submit(&request.stmt)
            });
        }
        let holds = match &expected {
            Some(want) if want == "ERR" => rendered.starts_with("ERR "),
            Some(want) => ok_parts(&rendered).is_some_and(|(_, d)| d.starts_with(want.as_str())),
            None => Outcome::of(&rendered).is_some(),
        };
        if !holds {
            pass.fail(format!(
                "shard {} answered {rendered:?} in-process, expected {expected:?}",
                request.shard
            ));
        }

        // What grows with the document, at its current size.
        if position % PROBE_STRIDE == 0 {
            let full = position % FULL_CHECK_STRIDE == 0;
            let mut copy = tracer.time("tree.clone", id, None, || twin.doc().clone());
            tracer.time("tree.serialize", id, None, || serialize(twin.doc()));
            tally.nodes.push(twin.doc().node_count() as f64);
            let snapshot = tracer
                .time("service.snapshot", id, None, || set.snapshot(request.shard))
                .map_err(|e| err(&e))?;
            if full {
                let _ = tracer.time("checker.check_full", id, None, || twin.check_full());
                let _ = tracer.time("service.check_full", id, None, || snapshot.check_full());
            }
            if let Some(stmt) = &stmt {
                // A statement that does not apply here gives no sample.
                let began = tracer.open("xupdate.apply_refused", id, None);
                let applied = apply(&mut copy, stmt, &xpath_resolver);
                tracer.close(began);
                if let Ok(applied) = applied {
                    tracer.spans[began as usize].name = "xupdate.apply";
                    tracer.time("xupdate.undo", id, None, || undo(&mut copy, applied));
                }
                if stmt.insertions_only() {
                    let _ = tracer.time("checker.decide_optimized", id, None, || {
                        twin.decide_only(stmt, Strategy::Optimized)
                    });
                }
                if full {
                    let _ = tracer.time("checker.decide_full", id, None, || {
                        twin.decide_only(stmt, Strategy::FullWithRollback)
                    });
                    let _ = tracer.time("service.decide_full", id, None, || {
                        snapshot.decide_full(stmt)
                    });
                }
            }
        }
    }

    // End state, then recovery of what the replay left on disk.
    for (shard, &want) in acked.iter().enumerate() {
        pass.attempted += 1;
        let snapshot = set.snapshot(shard).map_err(|e| err(&e))?;
        if snapshot.version() != want || !matches!(snapshot.check_full(), Ok(None)) {
            pass.fail(format!(
                "in-process shard {shard} ended at version {}, acked {want}",
                snapshot.version()
            ));
        }
    }
    tally.pattern_count = set.patterns().len();
    tally.journal_bytes += journal.byte_len() - journal_header;
    drop(journal);
    set.shutdown().map_err(|e| err(&e))?;
    drop(set);
    let began = Instant::now();
    Journal::recover(&wal, None).map_err(|e| err(&e))?;
    tally
        .journal_recover_ms
        .push(began.elapsed().as_secs_f64() * 1e3);
    let began = Instant::now();
    let (recovered, report) =
        ShardSet::recover(&store, &bases, DTD, &plan.constraints, sequential(), true)
            .map_err(|e| err(&e))?;
    tally.recover_ms.push(began.elapsed().as_secs_f64() * 1e3);
    tally.replayed_commits = report.total_replayed();
    for (shard, &want) in acked.iter().enumerate() {
        pass.attempted += 1;
        let version = recovered.snapshot(shard).map_err(|e| err(&e))?.version();
        if version != want {
            pass.fail(format!(
                "recovered shard {shard} is at version {version}, acked {want}"
            ));
        }
    }
    recovered.shutdown().map_err(|e| err(&e))?;
    for service in submitters {
        let _ = service.shutdown();
    }
    Ok(in_process_us)
}
