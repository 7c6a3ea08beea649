//! `xic-serve` — line-protocol front-end for the concurrent checker
//! service (`xicheck::service`, DESIGN.md rows 19 and 24).
//!
//! Loads a document, DTD and XPathLog constraint set from files, starts
//! a [`ShardSet`] of `--shards K` documents (default 1), each seeded from
//! `--xml` under one compiled constraint set, and serves the protocol in
//! [`xicheck::protocol`] either over stdin/stdout (default) or on a
//! Unix socket (`--socket PATH`, one thread per client). A stale socket
//! at `PATH` is replaced; anything else there is refused before the store
//! is opened.
//!
//! ```text
//! xic-serve --xml doc.xml --dtd schema.dtd --constraints gamma.xpl \
//!           [--store DIR] [--no-sync] [--shards K] \
//!           [--queue-depth N] [--deadline-ms N] [--socket PATH]
//! ```
//!
//! The server runs the group-commit writer: one fsync per batch that
//! committed, none with `--no-sync`. `--queue-depth` bounds the admission queue (excess
//! submissions get `ERR overloaded`), and `--deadline-ms` sets a default
//! per-request evaluation deadline for all three checking verbs —
//! `CHECK`, `DECIDE` and `UPDATE` — (clients can override it per line,
//! e.g. `UPDATE 250 <stmt>`). A failed batch fsync is never retried: the
//! document turns read-only (`HEALTH` → `degraded`) until the server is
//! restarted over its `--store`. See
//! README.md, *Running as a service* and *Operating under failure*, for
//! worked examples.
//!
//! Without `--store` the documents live in memory only. With `--store
//! DIR` each shard keeps its own `DIR/shard-<id>/` journal+checkpoint
//! directory, and startup recovers all shards in parallel: restarting
//! over an existing `DIR` resumes every document where it left off (the
//! replayed count goes to stderr, `VERSION` continues where the previous
//! run stopped, and the first write takes a checkpoint before it
//! appends). `--no-sync` is restated on every start. A `DIR` holding
//! anything but `shard-<id>` directories for its shards is refused.
//!
//! Clients route per-document requests with the `DOC <id>` prefix, which
//! a one-shard server does not need; see README.md, *Running as a
//! service*.

use std::io::{BufReader, Write as _};
use std::os::unix::fs::FileTypeExt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xicheck::protocol::{execute_sharded, serve_connection};
use xicheck::{ServiceConfig, ShardSet, ShardSetConfig};

struct Args {
    xml: PathBuf,
    dtd: PathBuf,
    constraints: PathBuf,
    store: Option<PathBuf>,
    sync: bool,
    shards: usize,
    queue_depth: usize,
    deadline_ms: Option<u64>,
    socket: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut xml = None;
    let mut dtd = None;
    let mut constraints = None;
    let mut store = None;
    let mut sync = true;
    let mut shards = 1;
    let mut queue_depth = xicheck::service::DEFAULT_QUEUE_DEPTH;
    let mut deadline_ms = None;
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
                shards = value(&mut args)?.parse().map_err(|e| format!("--shards: {e}"))?;
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
            "--socket" => socket = Some(PathBuf::from(value(&mut args)?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
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
        socket,
    })
}

/// True when `path` itself (not a link's target) is a Unix socket.
fn is_socket(path: &Path) -> bool {
    std::fs::symlink_metadata(path).is_ok_and(|meta| meta.file_type().is_socket())
}

/// Refuses a `--socket` path that holds anything but a socket: only a
/// stale socket is removed before `bind`, never a file or a link passed
/// by mistake.
fn check_socket_path(path: &Path) -> Result<(), String> {
    match std::fs::symlink_metadata(path) {
        Ok(meta) if !meta.file_type().is_socket() => Err(format!(
            "--socket {} exists and is not a socket; refusing to replace it",
            path.display()
        )),
        _ => Ok(()),
    }
}

/// Serves `set` once over stdio, or per-connection on a Unix socket
/// with one thread per client.
fn serve_sessions(socket: &Option<PathBuf>, set: &ShardSet) -> Result<(), String> {
    let run = |command: &_| execute_sharded(set, command);
    match socket {
        None => {
            serve_connection(run, std::io::stdin().lock(), std::io::stdout().lock())
                .map_err(|e| format!("stdio session: {e}"))?;
        }
        Some(path) => {
            // A stale socket from a previous run would make bind fail;
            // `check_socket_path` refused anything else at start-up.
            if is_socket(path) {
                let _ = std::fs::remove_file(path);
            }
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("bind {}: {e}", path.display()))?;
            eprintln!("xic-serve: listening on {}", path.display());
            std::thread::scope(|scope| {
                for stream in listener.incoming() {
                    match stream {
                        Ok(stream) => {
                            scope.spawn(move || {
                                let reader = match stream.try_clone() {
                                    Ok(r) => BufReader::new(r),
                                    Err(e) => {
                                        eprintln!("xic-serve: clone stream: {e}");
                                        return;
                                    }
                                };
                                if let Err(e) = serve_connection(run, reader, stream) {
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
    // Before the store opens, so that a refusal creates nothing.
    if let Some(path) = &args.socket {
        check_socket_path(path)?;
    }
    let config = ShardSetConfig {
        service: ServiceConfig {
            queue_depth: args.queue_depth,
            default_deadline_ms: args.deadline_ms,
            ..ServiceConfig::default()
        },
        sync: args.sync,
        ..Default::default()
    };
    let bases = vec![xml.as_str(); args.shards];
    let set = match &args.store {
        // Recovery doubles as creation: shards without a directory yet
        // start fresh from the base document, existing ones replay
        // their own generations — so restarts over the same root
        // resume every document where it left off.
        Some(root) => {
            let (set, report) = ShardSet::recover(root, &bases, &dtd, &constraints, config, true)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "xic-serve: {} shard(s) under {}, {} commits replayed",
                args.shards,
                root.display(),
                report.total_replayed()
            );
            for id in report.degraded_shards() {
                eprintln!("xic-serve: warning: shard {id} recovered degraded (read-only)");
            }
            set
        }
        None => ShardSet::in_memory(&bases, &dtd, &constraints, config).map_err(|e| e.to_string())?,
    };
    serve_sessions(&args.socket, &set)
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
