//! What the server should have answered.
//!
//! Where the generator can promise a verdict whatever the interleaving
//! (`insert-stream`, `read-mostly`) the promise travels with the
//! request. Elsewhere (`mixed-ops`, `shard-zipf`) a statement's verdict
//! depends on its shard's history, which is fixed because a shard is
//! only addressed from one lane: an in-process twin of each shard (same
//! Γ, same base document, no journal, sequential executor) answers the
//! shard's requests in order through `protocol::execute`, and the
//! server's reply lines must equal the twin's — verdict, strategy,
//! version and refusal text.

use crate::workloads::{Plan, DTD};
use xicheck::protocol::{execute, parse_command, Command};
use xicheck::{Checker, CheckerService, Executor, SharedGamma};

/// The reply line a twin gives each request, per lane.
pub fn twin_replies(plan: &Plan) -> Result<Vec<Vec<String>>, String> {
    let gamma = SharedGamma::compile(DTD, &plan.constraints).map_err(|e| e.to_string())?;
    let mut twins = Vec::with_capacity(plan.spec.shards);
    for _ in 0..plan.spec.shards {
        let checker = Checker::from_shared(&plan.xml, &gamma).map_err(|e| e.to_string())?;
        twins.push(CheckerService::new(checker, Executor::Sync));
    }
    let twins = &twins;
    // One thread per lane: lanes never share a shard.
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .lanes
            .iter()
            .map(|lane| {
                scope.spawn(move || {
                    lane.iter()
                        .map(|request| match parse_command(&request.line()) {
                            Ok(Command::Doc(id, inner)) => execute(&twins[id], &inner).render(),
                            other => format!("unroutable generated request: {other:?}"),
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "twin thread panicked".to_string()))
            .collect()
    })
}

/// Splits `OK <version> <detail>` into its version and detail.
pub fn ok_parts(reply: &str) -> Option<(u64, &str)> {
    let rest = reply.strip_prefix("OK ")?;
    let (version, detail) = rest.split_once(' ').unwrap_or((rest, ""));
    Some((version.parse().ok()?, detail))
}

/// What a reply line says happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// `APPLIED`: a durable commit.
    Applied,
    /// `REJECTED`: the statement would violate Γ.
    Rejected,
    /// `LEGAL` / `ILLEGAL` / `CONSISTENT` / `VIOLATION`: a read answered.
    Read,
    /// `ERR`: the statement does not apply to the document as it is
    /// (its select matches nothing); the stream expects some of these.
    Refused,
}

impl Outcome {
    /// Classifies a reply line; `None` for anything else.
    pub fn of(reply: &str) -> Option<Outcome> {
        if reply.starts_with("ERR ") {
            return Some(Outcome::Refused);
        }
        let (_, detail) = ok_parts(reply)?;
        match detail.split(' ').next()? {
            "APPLIED" => Some(Outcome::Applied),
            "REJECTED" => Some(Outcome::Rejected),
            "LEGAL" | "ILLEGAL" | "CONSISTENT" | "VIOLATION" => Some(Outcome::Read),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{plan, spec};

    #[test]
    fn reply_lines_classify() {
        assert_eq!(
            ok_parts("OK 7 APPLIED optimized"),
            Some((7, "APPLIED optimized"))
        );
        assert_eq!(ok_parts("OK 7"), Some((7, "")));
        assert_eq!(ok_parts("ERR nope"), None);
        assert_eq!(
            Outcome::of("OK 1 APPLIED optimized"),
            Some(Outcome::Applied)
        );
        assert_eq!(
            Outcome::of("OK 1 REJECTED full-with-rollback <- x"),
            Some(Outcome::Rejected)
        );
        assert_eq!(Outcome::of("OK 1 ILLEGAL <- x"), Some(Outcome::Read));
        assert_eq!(
            Outcome::of("ERR statement: select matched no nodes"),
            Some(Outcome::Refused)
        );
        assert_eq!(Outcome::of("BYE"), None);
    }

    #[test]
    fn twins_keep_the_generators_promises() {
        for name in ["insert-stream", "read-mostly"] {
            let p = plan(spec(name).unwrap(), 5, 2, true);
            let replies = twin_replies(&p).unwrap();
            for (lane, stream) in p.lanes.iter().enumerate() {
                for (request, reply) in stream.iter().zip(&replies[lane]) {
                    let (_, detail) = ok_parts(reply).unwrap_or_else(|| panic!("{name}: {reply}"));
                    assert!(
                        detail.starts_with(request.expect.unwrap()),
                        "{name}: {reply}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixed_ops_takes_both_strategies() {
        let p = plan(spec("mixed-ops").unwrap(), 1, 10, true);
        let replies: Vec<String> = twin_replies(&p).unwrap().concat();
        assert!(replies.iter().any(|r| r.contains(" optimized")));
        assert!(replies.iter().any(|r| r.contains(" full-with-rollback")));
    }
}
