//! The untraced pass: the end-to-end numbers.
//!
//! The pass is `plan.rounds` identical rounds. A round cold-starts the
//! server on an empty store (`setup_s`), drives the workload's stream
//! closed-loop over the Unix socket, checks every reply against the
//! oracle and the end state against the acked commits, `SIGKILL`s the
//! server and restarts it on the same store (`recover_s`), and checks
//! the acked versions again.
//!
//! Every round does the same work from the same start, which is what
//! lets the pass tell the server's time from the host's: a timing is
//! reduced over the rounds to its fastest observation (see
//! `stats::fastest_per_position` and `stats::quiet_total`), except the
//! start-up times, which are medians. The plain per-round numbers are
//! kept beside them in the result.

use crate::oracle::{ok_parts, twin_replies, Outcome};
use crate::report::{num, obj, summary_json, MetricTable, Pass, Value};
use crate::stats::{fastest_per_position, median, percentile, quiet_total, summarize};
use crate::wire::{dir_bytes, drive, Client, Scratch, Server, ServerFiles};
use crate::workloads::{Plan, Spec, Verb};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Runs of consecutive requests a client's stream is cut into for the
/// quiet window: short enough (tens of milliseconds) that some round
/// ran each of them undisturbed, long enough to keep the waiting of a
/// request behind its neighbours.
pub const WINDOW_CHUNKS: usize = 8;

/// The end-to-end metrics and their units, as in `BENCHMARK.json`.
pub const METRICS: MetricTable = &[
    ("setup_s", "s"),
    ("goodput_rps", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("recover_s", "s"),
    ("store_bytes_per_commit", "B"),
];

/// The closed-loop client count: the workload's, or one on a
/// single-core host.
pub fn connections(spec: Spec) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(spec.clients)
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    window_s: f64,
    /// Latency in milliseconds, per client stream, in sending order.
    latency: Vec<Vec<f64>>,
    matched: u64,
    commits: u64,
    recover_s: f64,
    store_bytes: u64,
    peak_rss_mib: Option<f64>,
    counts: BTreeMap<(usize, Outcome), u64>,
}

/// Runs the untraced pass over `plan`.
pub fn run(plan: &Plan) -> Result<Pass, String> {
    let began = Instant::now();
    let scratch = Scratch::create()?;
    let files = ServerFiles::write(plan, &scratch.0)?;
    let promised = plan.lanes.iter().flatten().all(|r| r.expect.is_some());
    let twin = if promised {
        None
    } else {
        Some(twin_replies(plan)?)
    };
    let streams = plan.streams(connections(plan.spec));
    let mut pass = Pass::new(METRICS);
    let mut rounds = Vec::with_capacity(plan.rounds);
    for i in 0..plan.rounds {
        let store = scratch.0.join(format!("store-{i}"));
        rounds.push(round(
            plan,
            &files,
            &store,
            &streams,
            twin.as_deref(),
            &mut pass,
        )?);
    }
    let last = rounds.last().ok_or("a pass runs at least one round")?;

    // The quiet window: the slowest client's stream, each run of
    // consecutive requests at its fastest round.
    let per_stream: Vec<Vec<Vec<f64>>> = (0..streams.len())
        .map(|s| rounds.iter().map(|r| r.latency[s].clone()).collect())
        .collect();
    let quiet_window_s = per_stream
        .iter()
        .map(|rounds| quiet_total(rounds, WINDOW_CHUNKS) / 1e3)
        .fold(0.0, f64::max);
    let mut fastest: Vec<f64> = per_stream
        .iter()
        .flat_map(|rounds| fastest_per_position(rounds))
        .collect();
    fastest.sort_by(f64::total_cmp);
    let over_rounds = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };

    pass.metric(
        "setup_s",
        median(&over_rounds(&|r| r.setup_s)).expect("at least one round"),
    );
    pass.metric("goodput_rps", last.matched as f64 / quiet_window_s);
    pass.metric(
        "request_p50_ms",
        median(&fastest).expect("a round sends requests"),
    );
    pass.metric(
        "request_p95_ms",
        percentile(&fastest, 95.0).expect("a round sends requests"),
    );
    pass.metric(
        "recover_s",
        median(&over_rounds(&|r| r.recover_s)).expect("at least one round"),
    );
    pass.metric(
        "store_bytes_per_commit",
        last.store_bytes as f64 / last.commits.max(1) as f64,
    );

    // Beside them, unreduced: per-round windows and the latency classes
    // over all rounds' samples, tails by the ten-samples-beyond rule.
    let mut classes = Vec::new();
    for (class, verbs) in [
        (
            "request",
            [Verb::Update, Verb::Decide, Verb::Check].as_slice(),
        ),
        ("write", &[Verb::Update]),
        ("read", &[Verb::Decide, Verb::Check]),
    ] {
        let samples: Vec<f64> = rounds
            .iter()
            .flat_map(|r| streams.iter().flatten().zip(r.latency.iter().flatten()))
            .filter(|(&at, _)| verbs.contains(&plan.at(at).verb))
            .map(|(_, &ms)| ms)
            .collect();
        if let Some(s) = summarize(&samples) {
            classes.push((class.to_string(), summary_json(&s)));
        }
    }
    let mut per_shard: Vec<(String, Value)> = Vec::new();
    for shard in 0..plan.spec.shards {
        let count = |o| num(last.counts.get(&(shard, o)).copied().unwrap_or(0) as f64);
        per_shard.push((
            format!("shard-{shard}"),
            obj([
                ("applied", count(Outcome::Applied)),
                ("rejected", count(Outcome::Rejected)),
                ("refused", count(Outcome::Refused)),
                ("read", count(Outcome::Read)),
            ]),
        ));
    }
    let list = |v: Vec<f64>| Value::Array(v.into_iter().map(num).collect());
    let rss: Vec<f64> = rounds.iter().filter_map(|r| r.peak_rss_mib).collect();
    pass.info = obj([
        ("rounds", num(plan.rounds as f64)),
        ("requests_per_round", num(plan.requests() as f64)),
        ("connections", num(streams.len() as f64)),
        ("commits_per_round", num(last.commits as f64)),
        ("store_bytes", num(last.store_bytes as f64)),
        (
            "failed_share",
            num(pass.failed as f64 / pass.attempted.max(1) as f64),
        ),
        (
            "service.peak_rss_mib",
            median(&rss).map_or(Value::Null, num),
        ),
        ("quiet_window_s", num(quiet_window_s)),
        // Follows goodput_rps for a given seed (the share of requests
        // that commit is fixed by the stream), so it carries no bound.
        ("commit_rps", num(last.commits as f64 / quiet_window_s)),
        ("window_s", list(over_rounds(&|r| r.window_s))),
        ("setup_s", list(over_rounds(&|r| r.setup_s))),
        ("recover_s", list(over_rounds(&|r| r.recover_s))),
        ("latency", Value::Object(classes)),
        ("oracle_counts", Value::Object(per_shard)),
    ]);
    pass.wall_s = began.elapsed().as_secs_f64();
    Ok(pass)
}

/// One round over a fresh `store`; failures are counted into `pass`.
fn round(
    plan: &Plan,
    files: &ServerFiles,
    store: &Path,
    streams: &[Vec<(usize, usize)>],
    twin: Option<&[Vec<String>]>,
    pass: &mut Pass,
) -> Result<Round, String> {
    // setup_s: spawn → first OK from HEALTH on an empty store.
    let (server, mut control, setup_s) = Server::start(files, store)?;
    let (exchanges, window_s) = drive(&server, plan, streams)?;

    // Replies against the oracle.
    let failed_before = pass.failed;
    let mut acked = vec![0u64; plan.spec.shards];
    let mut counts: BTreeMap<(usize, Outcome), u64> = BTreeMap::new();
    let mut matched = 0u64;
    for (&(lane, index), exchange) in streams.iter().flatten().zip(exchanges.iter().flatten()) {
        let request = plan.at((lane, index));
        pass.attempted += 1;
        let reply = match &exchange.reply {
            Ok(reply) => reply,
            Err(e) => {
                pass.fail(format!(
                    "transport error on {:?} to shard {}: {e}",
                    request.verb, request.shard
                ));
                continue;
            }
        };
        let outcome = Outcome::of(reply);
        if let Some(outcome) = outcome {
            *counts.entry((request.shard, outcome)).or_default() += 1;
        }
        if outcome == Some(Outcome::Applied) {
            acked[request.shard] += 1;
        }
        let (holds, want) = match (request.expect, twin) {
            (Some(promise), _) => (
                ok_parts(reply).is_some_and(|(_, d)| d.starts_with(promise)),
                promise,
            ),
            (None, Some(twin)) => (*reply == twin[lane][index], twin[lane][index].as_str()),
            (None, None) => (false, "a promise or a twin"),
        };
        if holds {
            matched += 1;
        } else {
            pass.fail(format!(
                "shard {} answered {reply:?}, the oracle expects {want:?}",
                request.shard
            ));
        }
    }

    // End of window: every shard consistent and at its acked version.
    let check_versions = |pass: &mut Pass, client: &mut Client, when: &str| {
        for (shard, &want) in acked.iter().enumerate() {
            pass.attempted += 1;
            match client.call(&format!("DOC {shard} VERSION")) {
                Ok(reply) if ok_parts(reply).is_some_and(|(v, _)| v == want) => {}
                Ok(reply) => pass.fail(format!(
                    "{when}: shard {shard} VERSION {reply:?}, acked {want}"
                )),
                Err(e) => pass.fail(format!("{when}: shard {shard} VERSION: {e}")),
            }
        }
    };
    for shard in 0..plan.spec.shards {
        pass.attempted += 1;
        match control.call(&format!("DOC {shard} CHECK")) {
            Ok(reply) if ok_parts(reply).is_some_and(|(_, d)| d == "CONSISTENT") => {}
            Ok(reply) => pass.fail(format!("end of window: shard {shard} CHECK {reply:?}")),
            Err(e) => pass.fail(format!("end of window: shard {shard} CHECK: {e}")),
        }
    }
    check_versions(pass, &mut control, "end of window");
    let peak_rss_mib = server.peak_rss_mib();
    let store_bytes = dir_bytes(store);
    drop(control);

    // recover_s: SIGKILL, restart on the same store, first OK from
    // HEALTH; every acked commit must be there again.
    server.kill();
    let (server, mut control, recover_s) = Server::start(files, store)?;
    check_versions(pass, &mut control, "after SIGKILL and restart");
    if pass.failed > failed_before {
        pass.problems
            .push(server.failure("replies or end state failed the oracle"));
    }
    server.kill();

    Ok(Round {
        setup_s,
        window_s,
        latency: exchanges
            .iter()
            .map(|s| s.iter().map(|e| e.nanos as f64 / 1e6).collect())
            .collect(),
        matched,
        commits: acked.iter().sum(),
        recover_s,
        store_bytes,
        peak_rss_mib,
        counts,
    })
}
