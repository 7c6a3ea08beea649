//! Line-oriented service protocol (the front-end of
//! [`crate::service::CheckerService`]; DESIGN.md rows 19 and 22).
//!
//! One request per line, one reply per line, UTF-8, no framing beyond
//! `\n`. The grammar (also in README.md, *Running as a service*):
//!
//! ```text
//! request  = ["DOC" SP index SP] verb     ; index routes to one shard (sharded server)
//! verb     = "CHECK" [SP deadline]          ; full check of the current snapshot
//!          | "DECIDE" [SP deadline] SP xupdate ; hypothetical verdict, nothing committed
//!          | "UPDATE" [SP deadline] SP xupdate ; checked, durable execution
//!          | "VERSION"               ; committed version of the snapshot
//!          | "STATS"                 ; executor configuration + resilience counters
//!          | "HEALTH"                ; liveness: ok | degraded | poisoned | draining
//!          | "QUIT"                  ; close the connection
//! index    = 1*DIGIT                 ; shard id (shard-<index> directory)
//! deadline = 1*DIGIT                 ; per-request budget in milliseconds
//! xupdate  = single-line <xupdate:modifications> document
//!
//! reply    = "OK" SP version SP detail
//!          | "ERR" SP message
//!          | "BYE"
//! detail   = "CONSISTENT" | "VIOLATION" SP denial      ; CHECK
//!          | "LEGAL" | "ILLEGAL" SP denial             ; DECIDE
//!          | "APPLIED" SP strategy
//!          | "REJECTED" SP strategy SP denial          ; UPDATE
//!          | ""                                        ; VERSION
//!          | config                                    ; STATS
//!          | health *( SP "shard-" index "=" health )  ; HEALTH
//! health   = "ok" | "degraded" | "poisoned" | "draining"
//! strategy = "optimized" | "full-with-rollback"
//! ```
//!
//! A **sharded** server ([`serve_connection_sharded`] over a
//! [`ShardSet`]) routes by the `DOC <index>` prefix: the verb behind it
//! executes against that shard's service exactly as on a single-document
//! server. Bare `HEALTH`/`STATS` aggregate across shards (overall state
//! plus one `shard-<i>=<health>` field each; counters summed); the
//! per-document verbs *require* the prefix and fail with `ERR
//! doc-required: …` without it. A single-document server refuses the
//! prefix with `ERR no-shard: …`.
//!
//! `CHECK`, `DECIDE` and `VERSION` are **snapshot reads**: they never
//! queue behind the writer, and the version in their reply names the
//! snapshot they answered from. `UPDATE` blocks until its verdict is
//! durable (in group-commit mode: until the shared batch fsync) and
//! reports the version its statement left the service at.
//!
//! **`DECIDE` ≡ `UPDATE` minus the commit:** `DECIDE s` answered from
//! version *v* says what `UPDATE s` would answer at version *v*. The
//! snapshot runs the writer's own strategy choice — the optimized
//! pre-update check for insertions with an incremental pattern, the
//! baseline (apply to a copy, check all of Γ) for everything the writer
//! also sends down the baseline — so `LEGAL` ⇔ `APPLIED`, `ILLEGAL <d>`
//! ⇔ `REJECTED <strategy> <d>` with the same denial text *d* (the
//! simplified denial where the writer would reject `optimized`), and a
//! statement that does not apply gets the same `ERR` text from both.
//!
//! An XUpdate document cannot begin with a digit, so a leading
//! all-digits token after `CHECK`/`DECIDE`/`UPDATE` is unambiguously a
//! **deadline** in milliseconds: the request fails with `ERR timeout:
//! …` instead of waiting (in the queue, for the ack, or mid-evaluation)
//! past its budget. Overload and failure surface the same way —
//! resilience `ERR` messages start with a stable machine-readable token
//! (`overloaded:`, `timeout:`, `degraded:`, `too-long:`), so clients
//! dispatch on the first word (the workload driver's backoff loop does
//! exactly this; EXPERIMENTS.md E13).
//!
//! Keywords are case-sensitive (uppercase). Denial text is flattened to
//! one line. Request lines are capped at [`MAX_LINE_BYTES`]; an
//! oversized line is discarded as it streams in (bounded memory),
//! answered with `ERR too-long: …`, and the connection stays open.
//! Parsing and rendering live here, free of any I/O, so unit tests
//! drive the protocol without sockets; [`serve_connection`] wires a
//! [`BufRead`]/[`Write`] pair (stdin/stdout or a Unix socket — see the
//! `xic-serve` binary) to a shared service.

use crate::checker::{Strategy, UpdateOutcome, Violation};
use crate::service::{CheckerService, Executor, ServiceStats};
use crate::shards::ShardSet;
use std::io::{BufRead, Write};

/// Cap on one request line (1 MiB). Generous for any realistic XUpdate
/// statement, small enough that a misbehaving client cannot balloon the
/// server's memory: past the cap the line streams to the discard path.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed protocol request. The `Option<u64>` on the three checking
/// verbs is the per-request deadline in milliseconds, if given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Full constraint check of the current snapshot.
    Check(Option<u64>),
    /// Hypothetical verdict for a statement; commits nothing.
    Decide(String, Option<u64>),
    /// Checked, durable execution of a statement.
    Update(String, Option<u64>),
    /// Version of the current snapshot.
    Version,
    /// Executor configuration, resilience counters and version.
    Stats,
    /// Liveness state: ok, degraded, poisoned or draining.
    Health,
    /// Close the connection.
    Quit,
    /// `DOC <index> <verb>`: route the inner verb to one shard of a
    /// sharded server (never nests).
    Doc(usize, Box<Command>),
}

/// Splits an optional leading deadline token (all ASCII digits) off
/// `rest`. Digits that do not fit a `u64` are a parse error, not a
/// statement (statements start with `<`).
fn split_deadline(rest: &str) -> Result<(Option<u64>, &str), String> {
    let (first, tail) = match rest.split_once(char::is_whitespace) {
        Some((f, t)) => (f, t.trim()),
        None => (rest, ""),
    };
    if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
        return Ok((None, rest));
    }
    match first.parse::<u64>() {
        Ok(ms) => Ok((Some(ms), tail)),
        Err(_) => Err(format!("deadline {first:?} out of range")),
    }
}

/// Parses one request line.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    let (keyword, rest) = match line.split_once(char::is_whitespace) {
        Some((k, r)) => (k, r.trim()),
        None => (line, ""),
    };
    let arg_required = |cmd: &str, rest: &str| -> Result<String, String> {
        if rest.is_empty() {
            Err(format!("{cmd} needs a single-line XUpdate document as argument"))
        } else {
            Ok(rest.to_string())
        }
    };
    match keyword {
        "CHECK" => {
            let (deadline, rest) = split_deadline(rest)?;
            if rest.is_empty() {
                Ok(Command::Check(deadline))
            } else {
                Err(format!("CHECK takes no argument beyond a deadline, got {rest:?}"))
            }
        }
        "DECIDE" => {
            let (deadline, rest) = split_deadline(rest)?;
            Ok(Command::Decide(arg_required("DECIDE", rest)?, deadline))
        }
        "UPDATE" => {
            let (deadline, rest) = split_deadline(rest)?;
            Ok(Command::Update(arg_required("UPDATE", rest)?, deadline))
        }
        "VERSION" => Ok(Command::Version),
        "STATS" => Ok(Command::Stats),
        "HEALTH" => Ok(Command::Health),
        "QUIT" => Ok(Command::Quit),
        "DOC" => {
            let (index, tail) = match rest.split_once(char::is_whitespace) {
                Some((i, t)) => (i, t.trim()),
                None => (rest, ""),
            };
            if index.is_empty() || !index.bytes().all(|b| b.is_ascii_digit()) {
                return Err("DOC needs a numeric shard index".to_string());
            }
            let id: usize = index
                .parse()
                .map_err(|_| format!("shard index {index:?} out of range"))?;
            if tail.is_empty() {
                return Err("DOC <index> needs a verb to route".to_string());
            }
            match parse_command(tail)? {
                Command::Doc(..) => Err("DOC does not nest".to_string()),
                inner => Ok(Command::Doc(id, Box::new(inner))),
            }
        }
        "" => Err("empty request".to_string()),
        other => Err(format!("unknown request {other:?}")),
    }
}

/// A reply line (without the trailing newline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `OK <version> <detail>`.
    Ok {
        /// Snapshot (reads) or post-statement (updates) version.
        version: u64,
        /// Command-specific detail (may be empty for `VERSION`).
        detail: String,
    },
    /// `ERR <message>`.
    Err(String),
    /// `BYE` — the connection is closing.
    Bye,
}

impl Reply {
    /// Renders the reply as its wire line.
    pub fn render(&self) -> String {
        match self {
            Reply::Ok { version, detail } if detail.is_empty() => format!("OK {version}"),
            Reply::Ok { version, detail } => format!("OK {version} {detail}"),
            Reply::Err(m) => format!("ERR {}", one_line(m)),
            Reply::Bye => "BYE".to_string(),
        }
    }
}

/// Collapses arbitrary text (denials, error messages) to one wire line.
fn one_line(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn strategy_word(s: Strategy) -> &'static str {
    match s {
        Strategy::Optimized => "optimized",
        Strategy::FullWithRollback => "full-with-rollback",
    }
}

fn violation_text(v: &Violation) -> String {
    one_line(&v.denial)
}

/// The counter fields of a `STATS` reply, shared by the single-document
/// and the sharded (summed) rendering.
fn stats_fields(stats: &ServiceStats) -> String {
    format!(
        "requests_shed={} requests_timed_out={} service_degraded={} fsync_retries={} \
         index_probes={} index_builds={} \
         decides_optimized={} decides_fallback_non_insertion={} \
         decides_fallback_unmappable={} decides_fallback_non_incremental={} \
         decides_fallback_pos_shift={}",
        stats.requests_shed,
        stats.requests_timed_out,
        stats.service_degraded,
        stats.fsync_retries,
        stats.index_probes,
        stats.index_builds,
        stats.decides_optimized,
        stats.decides_fallback_non_insertion,
        stats.decides_fallback_unmappable,
        stats.decides_fallback_non_incremental,
        stats.decides_fallback_pos_shift,
    )
}

/// Executes one command against the service and builds the reply.
/// Returns `Reply::Bye` for [`Command::Quit`]; the caller closes the
/// connection after writing it.
pub fn execute(service: &CheckerService, command: &Command) -> Reply {
    // A request's own deadline overrides the configured default — for
    // the reads as for UPDATE.
    let deadline = match command {
        Command::Check(own) | Command::Decide(_, own) | Command::Update(_, own) => {
            own.or(service.config().default_deadline_ms)
        }
        _ => None,
    };
    match command {
        Command::Check(_) => {
            let snap = service.snapshot();
            let verdict = match deadline {
                None => snap.check_full().map_err(|e| e.to_string()),
                Some(ms) => snap.check_full_deadline(ms).map_err(|e| e.to_string()),
            };
            match verdict {
                Ok(None) => Reply::Ok { version: snap.version(), detail: "CONSISTENT".to_string() },
                Ok(Some(v)) => Reply::Ok {
                    version: snap.version(),
                    detail: format!("VIOLATION {}", violation_text(&v)),
                },
                Err(e) => Reply::Err(e),
            }
        }
        Command::Decide(stmt, _) => {
            let parsed = match xic_xml::XUpdateDoc::parse(stmt) {
                Ok(p) => p,
                Err(e) => return Reply::Err(format!("bad statement: {e}")),
            };
            let snap = service.snapshot();
            let verdict = match deadline {
                None => snap.decide(&parsed).map_err(|e| e.to_string()),
                Some(ms) => snap.decide_deadline(&parsed, ms).map_err(|e| e.to_string()),
            };
            match verdict {
                Ok(None) => Reply::Ok { version: snap.version(), detail: "LEGAL".to_string() },
                Ok(Some(v)) => Reply::Ok {
                    version: snap.version(),
                    detail: format!("ILLEGAL {}", violation_text(&v)),
                },
                Err(e) => Reply::Err(e),
            }
        }
        Command::Update(stmt, _) => {
            match service.submit_with(stmt, deadline) {
                Ok(out) => match &out.outcome {
                    UpdateOutcome::Applied { strategy } => Reply::Ok {
                        version: out.version,
                        detail: format!("APPLIED {}", strategy_word(*strategy)),
                    },
                    UpdateOutcome::Rejected { strategy, violation } => Reply::Ok {
                        version: out.version,
                        detail: format!(
                            "REJECTED {} {}",
                            strategy_word(*strategy),
                            violation_text(violation)
                        ),
                    },
                },
                Err(e) => Reply::Err(e.to_string()),
            }
        }
        Command::Version => Reply::Ok { version: service.version(), detail: String::new() },
        Command::Stats => {
            let executor = match service.executor() {
                Executor::Sync => "executor=sync".to_string(),
                Executor::GroupCommit { max_batch } => {
                    format!("executor=group-commit max_batch={max_batch}")
                }
            };
            let detail = format!(
                "{executor} queue_depth={} health={} {}",
                service.config().queue_depth,
                service.health().as_str(),
                stats_fields(&service.stats()),
            );
            Reply::Ok { version: service.version(), detail }
        }
        Command::Health => Reply::Ok {
            version: service.version(),
            detail: service.health().as_str().to_string(),
        },
        Command::Quit => Reply::Bye,
        Command::Doc(id, _) => Reply::Err(format!(
            "no-shard: this server hosts a single unnamed document, \
             DOC {id} cannot be routed (start xic-serve with --shards)"
        )),
    }
}

/// Executes one command against a sharded server: `DOC <id> <verb>`
/// routes to that shard's live service; bare `HEALTH`/`STATS` aggregate
/// across shards; the per-document verbs require the prefix.
pub fn execute_sharded(set: &ShardSet, command: &Command) -> Reply {
    match command {
        Command::Doc(id, inner) => match set.shard(*id) {
            Ok(service) => execute(&service, inner),
            Err(e) => Reply::Err(format!("no-shard: {e}")),
        },
        Command::Health => {
            let health = set.health();
            let version = health.shards.iter().map(|s| s.version).sum();
            Reply::Ok { version, detail: health.summary() }
        }
        Command::Stats => {
            let health = set.health();
            let version: u64 = health.shards.iter().map(|s| s.version).sum();
            let mut total = ServiceStats::default();
            for id in 0..set.len() {
                if let Ok(stats) = set.stats(id) {
                    total.requests_shed += stats.requests_shed;
                    total.requests_timed_out += stats.requests_timed_out;
                    total.service_degraded += stats.service_degraded;
                    total.fsync_retries += stats.fsync_retries;
                    total.index_probes += stats.index_probes;
                    total.index_builds += stats.index_builds;
                    total.decides_optimized += stats.decides_optimized;
                    total.decides_fallback_non_insertion += stats.decides_fallback_non_insertion;
                    total.decides_fallback_unmappable += stats.decides_fallback_unmappable;
                    total.decides_fallback_non_incremental +=
                        stats.decides_fallback_non_incremental;
                    total.decides_fallback_pos_shift += stats.decides_fallback_pos_shift;
                }
            }
            let detail = format!(
                "shards={} health={} {}",
                set.len(),
                health.overall().as_str(),
                stats_fields(&total),
            );
            Reply::Ok { version, detail }
        }
        Command::Quit => Reply::Bye,
        Command::Check(_)
        | Command::Decide(..)
        | Command::Update(..)
        | Command::Version => Reply::Err(
            "doc-required: this server hosts multiple documents; \
             prefix per-document requests with DOC <index>"
                .to_string(),
        ),
    }
}

/// One capped read: `Ok(None)` at EOF, `Ok(Some(Ok(line)))` for a line
/// within `max` bytes (terminator stripped), `Ok(Some(Err(())))` for an
/// oversized line — which is consumed through its newline in bounded
/// memory, never accumulated.
fn read_capped_line(
    input: &mut impl BufRead,
    max: usize,
) -> std::io::Result<Option<Result<String, ()>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() && !oversized {
                return Ok(None); // clean EOF
            }
            break; // EOF terminates the final, unterminated line
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !oversized && buf.len() + pos <= max {
                    buf.extend_from_slice(&chunk[..pos]);
                } else {
                    oversized = true;
                }
                input.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                if !oversized && buf.len() + len <= max {
                    buf.extend_from_slice(chunk);
                } else {
                    oversized = true;
                    buf.clear();
                }
                input.consume(len);
            }
        }
    }
    if oversized {
        return Ok(Some(Err(())));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(Ok(String::from_utf8_lossy(&buf).into_owned())))
}

/// Serves one client connection: reads request lines from `input`,
/// writes one reply line each to `output`, and returns on `QUIT`, EOF
/// or a write error. Malformed requests get an `ERR` reply and the
/// connection stays open; so do oversized lines (`ERR too-long: …`),
/// which are discarded in bounded memory as they stream in.
pub fn serve_connection(
    service: &CheckerService,
    input: impl BufRead,
    output: impl Write,
) -> std::io::Result<()> {
    serve_connection_capped(service, input, output, MAX_LINE_BYTES)
}

/// [`serve_connection`] with an explicit line cap (tests exercise the
/// oversized path without forging megabyte requests).
pub fn serve_connection_capped(
    service: &CheckerService,
    input: impl BufRead,
    output: impl Write,
    max_line: usize,
) -> std::io::Result<()> {
    serve_lines(|command| execute(service, command), input, output, max_line)
}

/// Serves one client connection against a sharded server (see the
/// module docs: `DOC <index>` routes, bare `HEALTH`/`STATS` aggregate).
pub fn serve_connection_sharded(
    set: &ShardSet,
    input: impl BufRead,
    output: impl Write,
) -> std::io::Result<()> {
    serve_lines(|command| execute_sharded(set, command), input, output, MAX_LINE_BYTES)
}

/// The shared read-parse-execute-reply loop behind both connection
/// flavors.
fn serve_lines(
    mut run: impl FnMut(&Command) -> Reply,
    mut input: impl BufRead,
    mut output: impl Write,
    max_line: usize,
) -> std::io::Result<()> {
    while let Some(read) = read_capped_line(&mut input, max_line)? {
        let reply = match read {
            Err(()) => Reply::Err(format!(
                "too-long: request exceeds {max_line} bytes; line discarded"
            )),
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => match parse_command(&line) {
                Ok(command) => run(&command),
                Err(e) => Reply::Err(e),
            },
        };
        let done = reply == Reply::Bye;
        writeln!(output, "{}", reply.render())?;
        output.flush()?;
        if done {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;
    use crate::service::{CheckerService, Executor, ServiceError};
    use std::io::Cursor;

    const DTD: &str = "<!ELEMENT collection (dblp, review)>\n<!ELEMENT dblp (pub)*>\n\
                       <!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
                       <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n\
                       <!ELEMENT rev (name, sub+)>\n<!ELEMENT sub (title, auts+)>\n\
                       <!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
                       <!ELEMENT name (#PCDATA)>";

    const XML: &str = "<collection><dblp><pub><title>P</title>\
                       <aut><name>alice</name></aut></pub></dblp>\
                       <review><track><name>T</name><rev><name>bob</name>\
                       <sub><title>S</title><auts><name>carol</name></auts></sub>\
                       </rev></track></review></collection>";

    const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A \
                            & (A = R | //pub[aut/name/text() -> A & aut/name/text() -> R])";

    fn insert(author: &str) -> String {
        format!(
            "<xupdate:modifications version=\"1.0\" \
             xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
             <xupdate:append select=\"/collection/review/track[1]/rev[1]\">\
             <sub><title>N</title><auts><name>{author}</name></auts></sub>\
             </xupdate:append></xupdate:modifications>"
        )
    }

    fn service() -> std::sync::Arc<CheckerService> {
        let checker = Checker::new(XML, DTD, CONFLICT).expect("setup");
        CheckerService::new(checker, Executor::Sync)
    }

    #[test]
    fn parses_every_keyword() {
        assert_eq!(parse_command("CHECK"), Ok(Command::Check(None)));
        assert_eq!(parse_command(" VERSION "), Ok(Command::Version));
        assert_eq!(parse_command("STATS"), Ok(Command::Stats));
        assert_eq!(parse_command("HEALTH"), Ok(Command::Health));
        assert_eq!(parse_command("QUIT"), Ok(Command::Quit));
        assert_eq!(
            parse_command("UPDATE <x/>"),
            Ok(Command::Update("<x/>".to_string(), None))
        );
        assert_eq!(
            parse_command("DECIDE  <x a=\"1\"/> "),
            Ok(Command::Decide("<x a=\"1\"/>".to_string(), None))
        );
    }

    #[test]
    fn parses_deadline_prefixes() {
        assert_eq!(parse_command("CHECK 250"), Ok(Command::Check(Some(250))));
        assert_eq!(
            parse_command("UPDATE 250 <x/>"),
            Ok(Command::Update("<x/>".to_string(), Some(250)))
        );
        assert_eq!(
            parse_command("DECIDE 0 <x/>"),
            Ok(Command::Decide("<x/>".to_string(), Some(0)))
        );
        // A statement starts with '<', never a digit, so no deadline is
        // inferred from it…
        assert_eq!(
            parse_command("UPDATE <x>7</x>"),
            Ok(Command::Update("<x>7</x>".to_string(), None))
        );
        // …a deadline with no statement is still a missing argument…
        assert!(parse_command("UPDATE 250").is_err());
        // …and out-of-range digits are an error, not a statement.
        assert!(parse_command("UPDATE 99999999999999999999999 <x/>").is_err());
        assert!(parse_command("CHECK 250 extra").is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_command("").is_err());
        assert!(parse_command("UPDATE").is_err());
        assert!(parse_command("DECIDE   ").is_err());
        assert!(parse_command("noise").is_err());
        assert!(parse_command("check").is_err(), "keywords are uppercase");
    }

    #[test]
    fn replies_render_single_lines() {
        let ok = Reply::Ok { version: 3, detail: "CONSISTENT".to_string() };
        assert_eq!(ok.render(), "OK 3 CONSISTENT");
        assert_eq!(Reply::Ok { version: 7, detail: String::new() }.render(), "OK 7");
        assert_eq!(Reply::Err("a\nb".to_string()).render(), "ERR a b");
        assert_eq!(Reply::Bye.render(), "BYE");
    }

    #[test]
    fn service_errors_render_with_stable_leading_tokens() {
        // Clients dispatch on the first word of an ERR message; these
        // prefixes are wire protocol, not prose.
        let cases = [
            (ServiceError::Overloaded { depth: 256 }, "ERR overloaded:"),
            (ServiceError::Timeout { ms: 250 }, "ERR timeout:"),
            (ServiceError::Degraded, "ERR degraded:"),
            (ServiceError::Draining, "ERR draining:"),
        ];
        for (err, prefix) in cases {
            let line = Reply::Err(err.to_string()).render();
            assert!(line.starts_with(prefix), "{line:?} should start with {prefix:?}");
        }
        assert_eq!(
            Reply::Err(ServiceError::Timeout { ms: 250 }.to_string()).render(),
            "ERR timeout: deadline of 250 ms exceeded"
        );
    }

    #[test]
    fn execute_covers_the_grammar() {
        let service = service();
        assert_eq!(
            execute(&service, &Command::Check(None)).render(),
            "OK 0 CONSISTENT"
        );
        assert_eq!(execute(&service, &Command::Version).render(), "OK 0");
        assert_eq!(
            execute(&service, &Command::Stats).render(),
            "OK 0 executor=sync queue_depth=256 health=ok requests_shed=0 \
             requests_timed_out=0 service_degraded=0 fsync_retries=0 \
             index_probes=0 index_builds=0 \
             decides_optimized=0 decides_fallback_non_insertion=0 \
             decides_fallback_unmappable=0 decides_fallback_non_incremental=0 \
             decides_fallback_pos_shift=0"
        );
        assert_eq!(execute(&service, &Command::Health).render(), "OK 0 ok");
        // A legal update commits and bumps the version…
        let r = execute(&service, &Command::Update(insert("dave"), None));
        assert_eq!(r.render(), "OK 1 APPLIED optimized");
        // …an illegal one (self-review by bob) is rejected at the same
        // version, leaving the document consistent.
        let r = execute(&service, &Command::Update(insert("bob"), None));
        let line = r.render();
        assert!(
            line.starts_with("OK 1 REJECTED optimized "),
            "unexpected reply {line:?}"
        );
        assert_eq!(
            execute(&service, &Command::Check(None)).render(),
            "OK 1 CONSISTENT"
        );
        // DECIDE commits nothing.
        let r = execute(&service, &Command::Decide(insert("bob"), None));
        assert!(r.render().starts_with("OK 1 ILLEGAL "));
        let r = execute(&service, &Command::Decide(insert("erin"), None));
        assert_eq!(r.render(), "OK 1 LEGAL");
        assert_eq!(execute(&service, &Command::Version).render(), "OK 1");
        // Malformed XML is an ERR, not a crash.
        let r = execute(&service, &Command::Update("<not-xupdate>".to_string(), None));
        assert!(matches!(r, Reply::Err(_)));
    }

    #[test]
    fn generous_deadlines_do_not_change_verdicts() {
        let service = service();
        assert_eq!(
            execute(&service, &Command::Check(Some(10_000))).render(),
            "OK 0 CONSISTENT"
        );
        let r = execute(&service, &Command::Update(insert("dave"), Some(10_000)));
        assert_eq!(r.render(), "OK 1 APPLIED optimized");
        let r = execute(&service, &Command::Decide(insert("erin"), Some(10_000)));
        assert_eq!(r.render(), "OK 1 LEGAL");
    }

    #[test]
    fn zero_deadline_reads_time_out() {
        // A 0 ms deadline arms a zero-step budget: the read must report
        // a timeout, never a wrong verdict or a hang.
        let service = service();
        let r = execute(&service, &Command::Check(Some(0)));
        let line = r.render();
        assert!(line.starts_with("ERR timeout:"), "unexpected reply {line:?}");
        let r = execute(&service, &Command::Decide(insert("erin"), Some(0)));
        let line = r.render();
        assert!(line.starts_with("ERR timeout:"), "unexpected reply {line:?}");
        // Read-path timeouts count into the service stats too.
        let stats = execute(&service, &Command::Stats).render();
        assert!(
            stats.contains("requests_timed_out=2"),
            "unexpected stats reply {stats:?}"
        );
        // The snapshot is untouched and later requests are unaffected.
        assert_eq!(execute(&service, &Command::Check(None)).render(), "OK 0 CONSISTENT");
    }

    #[test]
    fn the_default_deadline_covers_all_three_verbs_and_a_request_overrides_it() {
        let checker = Checker::new(XML, DTD, CONFLICT).expect("setup");
        let config = crate::service::ServiceConfig {
            executor: Executor::Sync,
            default_deadline_ms: Some(0),
            ..Default::default()
        };
        let service = CheckerService::with_config(checker, config);
        for command in [
            Command::Check(None),
            Command::Decide(insert("erin"), None),
            Command::Update(insert("erin"), None),
        ] {
            let line = execute(&service, &command).render();
            assert!(line.starts_with("ERR timeout:"), "{command:?} answered {line:?}");
        }
        assert_eq!(
            execute(&service, &Command::Check(Some(10_000))).render(),
            "OK 0 CONSISTENT"
        );
        let r = execute(&service, &Command::Decide(insert("erin"), Some(10_000)));
        assert_eq!(r.render(), "OK 0 LEGAL");
        let r = execute(&service, &Command::Update(insert("erin"), Some(10_000)));
        assert_eq!(r.render(), "OK 1 APPLIED optimized");
    }

    #[test]
    fn parses_doc_routing() {
        assert_eq!(
            parse_command("DOC 2 VERSION"),
            Ok(Command::Doc(2, Box::new(Command::Version)))
        );
        assert_eq!(
            parse_command("DOC 0 UPDATE 250 <x/>"),
            Ok(Command::Doc(0, Box::new(Command::Update("<x/>".to_string(), Some(250)))))
        );
        assert!(parse_command("DOC").is_err(), "index required");
        assert!(parse_command("DOC x VERSION").is_err(), "index is numeric");
        assert!(parse_command("DOC 1").is_err(), "a verb must follow");
        assert!(parse_command("DOC 1 DOC 2 VERSION").is_err(), "no nesting");
    }

    #[test]
    fn single_document_server_refuses_doc() {
        let service = service();
        let r = execute(&service, &Command::Doc(0, Box::new(Command::Version)));
        let line = r.render();
        assert!(line.starts_with("ERR no-shard:"), "unexpected reply {line:?}");
    }

    /// While shutdown is draining, reads still answer from the last
    /// published snapshot and UPDATE is refused with the distinct
    /// `draining:` token (not `degraded:`, not a bare stop) — under
    /// both executors.
    #[test]
    fn draining_service_answers_reads_and_refuses_updates() {
        for executor in [Executor::Sync, Executor::group_commit()] {
            let checker = Checker::new(XML, DTD, CONFLICT).expect("setup");
            let service = CheckerService::new(checker, executor);
            assert_eq!(
                execute(&service, &Command::Update(insert("dave"), None)).render(),
                "OK 1 APPLIED optimized"
            );
            service.shutdown().expect("shutdown");
            assert_eq!(
                execute(&service, &Command::Health).render(),
                "OK 1 draining",
                "({executor:?})"
            );
            assert_eq!(
                execute(&service, &Command::Check(None)).render(),
                "OK 1 CONSISTENT",
                "reads answer while draining ({executor:?})"
            );
            assert_eq!(execute(&service, &Command::Version).render(), "OK 1");
            let r = execute(&service, &Command::Decide(insert("erin"), None));
            assert_eq!(r.render(), "OK 1 LEGAL", "snapshot decides while draining");
            let line = execute(&service, &Command::Update(insert("erin"), None)).render();
            assert!(
                line.starts_with("ERR draining:"),
                "UPDATE while draining should carry the draining token, got {line:?} \
                 ({executor:?})"
            );
        }
    }

    #[test]
    fn sharded_execute_routes_and_aggregates() {
        use crate::shards::{ShardSet, ShardSetConfig};
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = std::env::temp_dir()
            .join(format!("xic-proto-shards-{}-{n}", std::process::id()));
        let set = ShardSet::create(&root, &[XML, XML], DTD, CONFLICT, ShardSetConfig::default())
            .expect("create shard set");

        // Bare per-document verbs need the DOC prefix…
        let line = execute_sharded(&set, &Command::Version).render();
        assert!(line.starts_with("ERR doc-required:"), "got {line:?}");
        // …and routing hits exactly the named shard.
        let r = execute_sharded(
            &set,
            &Command::Doc(0, Box::new(Command::Update(insert("dave"), None))),
        );
        assert_eq!(r.render(), "OK 1 APPLIED optimized");
        assert_eq!(
            execute_sharded(&set, &Command::Doc(0, Box::new(Command::Version))).render(),
            "OK 1"
        );
        assert_eq!(
            execute_sharded(&set, &Command::Doc(1, Box::new(Command::Version))).render(),
            "OK 0",
            "the sibling shard saw nothing"
        );
        // Aggregate HEALTH sums versions and lists every shard.
        assert_eq!(
            execute_sharded(&set, &Command::Health).render(),
            "OK 1 ok shard-0=ok shard-1=ok"
        );
        // Aggregate STATS sums the per-shard counters.
        for id in 0..2 {
            let decide = Command::Doc(id, Box::new(Command::Decide(insert("erin"), None)));
            assert!(execute_sharded(&set, &decide).render().ends_with(" LEGAL"));
        }
        let stats = execute_sharded(&set, &Command::Stats).render();
        assert!(stats.starts_with("OK 1 shards=2 health=ok"), "got {stats:?}");
        assert!(stats.contains(" decides_optimized=2 "), "got {stats:?}");
        // An out-of-range shard is an error, not a panic.
        let line = execute_sharded(&set, &Command::Doc(9, Box::new(Command::Version))).render();
        assert!(line.starts_with("ERR no-shard:"), "got {line:?}");

        set.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_connection_sharded_round_trips() {
        use crate::shards::{ShardSet, ShardSetConfig};
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root = std::env::temp_dir()
            .join(format!("xic-proto-shardserve-{}-{n}", std::process::id()));
        let set = ShardSet::create(&root, &[XML, XML], DTD, CONFLICT, ShardSetConfig::default())
            .expect("create shard set");
        let script = format!(
            "DOC 1 UPDATE {}\nDOC 1 CHECK\nHEALTH\nQUIT\n",
            insert("dave")
        );
        let mut out = Vec::new();
        serve_connection_sharded(&set, Cursor::new(script), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8 replies");
        assert_eq!(
            text.lines().collect::<Vec<_>>(),
            vec![
                "OK 1 APPLIED optimized",
                "OK 1 CONSISTENT",
                "OK 1 ok shard-0=ok shard-1=ok",
                "BYE",
            ]
        );
        set.shutdown().expect("shutdown");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_connection_round_trips_a_session() {
        let service = service();
        let script = format!(
            "CHECK\nUPDATE {}\n\nVERSION\nHEALTH\nbogus\nQUIT\nUPDATE {}\n",
            insert("dave"),
            insert("erin")
        );
        let mut out = Vec::new();
        serve_connection(&service, Cursor::new(script), &mut out).expect("serve");
        let text = String::from_utf8(out).expect("utf8 replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "OK 0 CONSISTENT",
                "OK 1 APPLIED optimized",
                "OK 1",
                "OK 1 ok",
                "ERR unknown request \"bogus\"",
                "BYE",
            ],
            "blank lines are skipped and nothing after QUIT is served"
        );
    }

    #[test]
    fn oversized_lines_are_rejected_and_the_connection_survives() {
        let service = service();
        let long = format!("UPDATE {}", "x".repeat(200));
        let script = format!("VERSION\n{long}\nVERSION\nQUIT\n");
        let mut out = Vec::new();
        serve_connection_capped(&service, Cursor::new(script), &mut out, 64).expect("serve");
        let text = String::from_utf8(out).expect("utf8 replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "replies: {lines:?}");
        assert_eq!(lines[0], "OK 0");
        assert!(
            lines[1].starts_with("ERR too-long:"),
            "oversized line should be refused, got {:?}",
            lines[1]
        );
        assert_eq!(lines[2], "OK 0", "connection stays usable after too-long");
        assert_eq!(lines[3], "BYE");
    }

    #[test]
    fn oversized_final_line_without_newline_is_still_rejected() {
        let service = service();
        let script = format!("VERSION\n{}", "y".repeat(500));
        let mut out = Vec::new();
        serve_connection_capped(&service, Cursor::new(script), &mut out, 64).expect("serve");
        let text = String::from_utf8(out).expect("utf8 replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "OK 0");
        assert!(lines[1].starts_with("ERR too-long:"), "got {:?}", lines[1]);
    }

    #[test]
    fn exact_cap_length_line_is_served() {
        let service = service();
        // "VERSION" padded with trailing spaces to exactly the cap.
        let line = format!("VERSION{}", " ".repeat(64 - "VERSION".len()));
        assert_eq!(line.len(), 64);
        let script = format!("{line}\nQUIT\n");
        let mut out = Vec::new();
        serve_connection_capped(&service, Cursor::new(script), &mut out, 64).expect("serve");
        let text = String::from_utf8(out).expect("utf8 replies");
        assert_eq!(text.lines().collect::<Vec<_>>(), vec!["OK 0", "BYE"]);
    }
}
