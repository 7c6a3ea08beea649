//! `xic-serve` — line-protocol front-end for the concurrent checker
//! service (`xicheck::service`, DESIGN.md row 19).
//!
//! Loads a document, DTD and XPathLog constraint set from files, starts
//! a [`CheckerService`] and serves the protocol in
//! [`xicheck::protocol`] either over stdin/stdout (default) or on a
//! Unix socket (`--socket PATH`, one thread per client).
//!
//! ```text
//! xic-serve --xml doc.xml --dtd schema.dtd --constraints gamma.xpl \
//!           [--store DIR] [--no-sync] [--shards K] \
//!           [--queue-depth N] [--deadline-ms N] [--fsync-attempts N] \
//!           [--socket PATH]
//! ```
//!
//! The server runs the group-commit writer. `--queue-depth` bounds the
//! admission queue (excess submissions get `ERR overloaded`),
//! `--deadline-ms` sets a default per-request evaluation deadline for
//! all three checking verbs — `CHECK`, `DECIDE` and `UPDATE` — (clients
//! can override it per line, e.g. `UPDATE 250 <stmt>`), and
//! `--fsync-attempts` bounds the group-commit fsync retry budget before
//! the service degrades to read-only. See README.md, *Running as a
//! service* and *Operating under failure*, for worked examples.
//!
//! Without `--store` the document lives in memory only. Restarting over
//! an existing `--store DIR` resumes it: the committed statements are
//! replayed (the count goes to stderr) and `VERSION` continues where the
//! previous run stopped. `--no-sync` is restated on every start. A `DIR`
//! holding anything but the store's own files is refused.
//!
//! `--shards K` hosts K independent documents (each seeded from
//! `--xml`) under one process and one compiled constraint set
//! (DESIGN.md row 24). It requires `--store DIR`: each shard keeps its
//! own `shard-<id>/` journal+checkpoint directory under the root, and
//! startup recovers all shards in parallel, so restarting the server
//! over an existing root resumes every document where it left off.
//! Clients route per-document requests with the `DOC <id>` prefix; see
//! README.md, *Running many documents*.

use std::io::{BufReader, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use xicheck::protocol::{serve_connection, serve_connection_sharded};
use xicheck::{Checker, CheckerService, ServiceConfig, ShardSet, ShardSetConfig, SharedGamma};

struct Args {
    xml: PathBuf,
    dtd: PathBuf,
    constraints: PathBuf,
    store: Option<PathBuf>,
    sync: bool,
    shards: Option<usize>,
    queue_depth: usize,
    deadline_ms: Option<u64>,
    fsync_attempts: u32,
    socket: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut xml = None;
    let mut dtd = None;
    let mut constraints = None;
    let mut store = None;
    let mut sync = true;
    let mut shards = None;
    let mut queue_depth = xicheck::service::DEFAULT_QUEUE_DEPTH;
    let mut deadline_ms = None;
    let mut fsync_attempts = xicheck::service::DEFAULT_FSYNC_ATTEMPTS;
    let mut socket = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let value = |args: &mut dyn Iterator<Item = String>| -> Result<String, String> {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{key} needs a value"))
        };
        match key.as_str() {
            "--xml" => xml = Some(PathBuf::from(value(&mut args)?)),
            "--dtd" => dtd = Some(PathBuf::from(value(&mut args)?)),
            "--constraints" => constraints = Some(PathBuf::from(value(&mut args)?)),
            "--store" => store = Some(PathBuf::from(value(&mut args)?)),
            "--no-sync" if inline.is_some() => return Err("--no-sync takes no value".to_string()),
            "--no-sync" => sync = false,
            "--shards" => {
                shards = Some(
                    value(&mut args)?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                );
            }
            "--queue-depth" => {
                queue_depth = value(&mut args)?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    value(&mut args)?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--fsync-attempts" => {
                fsync_attempts = value(&mut args)?
                    .parse()
                    .map_err(|e| format!("--fsync-attempts: {e}"))?;
            }
            "--socket" => socket = Some(PathBuf::from(value(&mut args)?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(k) = shards {
        if k == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        if store.is_none() {
            return Err("--shards requires --store DIR (one shard-<id>/ per document)".to_string());
        }
    }
    Ok(Args {
        xml: xml.ok_or("--xml FILE is required")?,
        dtd: dtd.ok_or("--dtd FILE is required")?,
        constraints: constraints.ok_or("--constraints FILE is required")?,
        store,
        sync,
        shards,
        queue_depth,
        deadline_ms,
        fsync_attempts,
        socket,
    })
}

/// Serves `session` once over stdio, or per-connection on a Unix
/// socket with one thread per client.
fn serve_sessions<F>(socket: &Option<PathBuf>, session: F) -> Result<(), String>
where
    F: Fn(&mut dyn std::io::BufRead, &mut dyn std::io::Write) -> std::io::Result<()> + Sync,
{
    match socket {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            session(&mut stdin.lock(), &mut stdout.lock())
                .map_err(|e| format!("stdio session: {e}"))?;
        }
        Some(path) => {
            // A stale socket file from a previous run would make bind fail.
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("bind {}: {e}", path.display()))?;
            eprintln!("xic-serve: listening on {}", path.display());
            std::thread::scope(|scope| {
                for stream in listener.incoming() {
                    match stream {
                        Ok(mut stream) => {
                            let session = &session;
                            scope.spawn(move || {
                                let mut reader = match stream.try_clone() {
                                    Ok(r) => BufReader::new(r),
                                    Err(e) => {
                                        eprintln!("xic-serve: clone stream: {e}");
                                        return;
                                    }
                                };
                                if let Err(e) = session(&mut reader, &mut stream) {
                                    eprintln!("xic-serve: session ended: {e}");
                                }
                            });
                        }
                        Err(e) => eprintln!("xic-serve: accept: {e}"),
                    }
                }
            });
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let xml = read(&args.xml)?;
    let dtd = read(&args.dtd)?;
    let constraints = read(&args.constraints)?;
    let config = ServiceConfig {
        queue_depth: args.queue_depth,
        default_deadline_ms: args.deadline_ms,
        fsync_attempts: args.fsync_attempts,
        ..ServiceConfig::default()
    };

    if let Some(count) = args.shards {
        let root = args.store.as_ref().ok_or("--shards requires --store DIR")?;
        let bases: Vec<&str> = vec![xml.as_str(); count];
        // Recovery doubles as creation: shards without a directory yet
        // start fresh from the base document, existing ones replay
        // their own generations — so restarts over the same root
        // resume every document where it left off.
        let (set, report) = ShardSet::recover(
            root,
            &bases,
            &dtd,
            &constraints,
            ShardSetConfig { service: config, sync: args.sync, ..Default::default() },
            true,
        )
        .map_err(|e| e.to_string())?;
        eprintln!(
            "xic-serve: {count} shards under {}, {} commits replayed",
            root.display(),
            report.total_replayed()
        );
        for id in report.degraded_shards() {
            eprintln!("xic-serve: warning: shard {id} recovered degraded (read-only)");
        }
        return serve_sessions(&args.socket, |input, output| {
            serve_connection_sharded(&set, input, output)
        });
    }

    // Like the sharded branch, a restart over an existing store directory
    // resumes it instead of starting over.
    let checker = match &args.store {
        Some(dir) => {
            let gamma = SharedGamma::compile(&dtd, &constraints).map_err(|e| e.to_string())?;
            let (checker, report) =
                Checker::open_store(dir, &xml, &gamma, args.sync).map_err(|e| e.to_string())?;
            eprintln!("xic-serve: store {}, {} commits replayed", dir.display(), report.replayed);
            if report.degraded {
                eprintln!("xic-serve: warning: store recovered degraded (read-only)");
            }
            checker
        }
        None => Checker::new(&xml, &dtd, &constraints).map_err(|e| e.to_string())?,
    };
    let service = CheckerService::with_config(checker, config);
    serve_sessions(&args.socket, |input, output| serve_connection(&service, input, output))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("xic-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let mut err = std::io::stderr();
            let _ = writeln!(err, "xic-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
