//! The server under test and the clients that drive it.
//!
//! [`Server`] owns one spawned `xic-serve` process: it is killed (and
//! waited for) when the value drops, so a panic anywhere in the driver
//! cannot leave a server behind. [`Client`] is one protocol connection
//! over the server's Unix socket; [`drive`] runs the closed loop.

use crate::workloads::{Plan, DTD};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long a server may take from spawn to its first `OK` on `HEALTH`.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// The run's scratch directory, removed (with everything in it) when
/// the value drops.
pub struct Scratch(pub PathBuf);

impl Scratch {
    /// Creates `benchmark/out/run-<pid>` under the current directory:
    /// the benchmark may only write inside its checkout, and a relative
    /// path keeps the socket's name short wherever the checkout lives.
    pub fn create() -> Result<Scratch, String> {
        let root = Path::new("benchmark")
            .join("out")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Scratch(root))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The files a server is started from, written once per run.
#[derive(Debug, Clone)]
pub struct ServerFiles {
    /// The `xic-serve` executable.
    pub binary: PathBuf,
    /// Base document.
    pub xml: PathBuf,
    /// DTD.
    pub dtd: PathBuf,
    /// Γ.
    pub constraints: PathBuf,
    /// Socket the server listens on.
    pub socket: PathBuf,
    /// File the server's stderr is appended to.
    pub stderr: PathBuf,
    /// `--shards`.
    pub shards: usize,
}

impl ServerFiles {
    /// Writes the plan's inputs under `root`; the server is the
    /// `xic-serve` built beside this executable.
    pub fn write(plan: &Plan, root: &Path) -> Result<ServerFiles, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let binary = exe.with_file_name("xic-serve");
        if !binary.is_file() {
            return Err(format!(
                "{} not found: build with benchmark/run.sh",
                binary.display()
            ));
        }
        let write = |name: &str, content: &str| -> Result<PathBuf, String> {
            let path = root.join(name);
            std::fs::write(&path, content).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(path)
        };
        Ok(ServerFiles {
            binary,
            xml: write("base.xml", &plan.xml)?,
            dtd: write("schema.dtd", DTD)?,
            constraints: write("gamma.xpl", &plan.constraints)?,
            socket: root.join("s.sock"),
            stderr: root.join("server.stderr"),
            shards: plan.spec.shards,
        })
    }
}

/// A running `xic-serve`; killed on drop.
pub struct Server {
    child: Child,
    files: ServerFiles,
}

impl Server {
    /// Spawns a server over `store` (created when absent, recovered
    /// when present) and waits for its first `OK` reply to `HEALTH`.
    /// Returns the server, a connected client and the seconds from
    /// spawn to that reply. The flush policy is the server's default:
    /// journal sync on, group commit with `max-batch 32`.
    pub fn start(files: &ServerFiles, store: &Path) -> Result<(Server, Client, f64), String> {
        // The server removes a stale socket too, but only after
        // recovery; until then a leftover file must not look alive.
        let _ = std::fs::remove_file(&files.socket);
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&files.stderr)
            .map_err(|e| format!("open {}: {e}", files.stderr.display()))?;
        let started = Instant::now();
        let child = Command::new(&files.binary)
            .arg("--xml")
            .arg(&files.xml)
            .arg("--dtd")
            .arg(&files.dtd)
            .arg("--constraints")
            .arg(&files.constraints)
            .arg("--shards")
            .arg(files.shards.to_string())
            .arg("--store")
            .arg(store)
            .arg("--socket")
            .arg(&files.socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", files.binary.display()))?;
        let mut server = Server {
            child,
            files: files.clone(),
        };
        loop {
            if let Ok(mut client) = Client::connect(&files.socket) {
                if client
                    .call("HEALTH")
                    .is_ok_and(|reply| reply.starts_with("OK "))
                {
                    return Ok((server, client, started.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(server.failure(&format!("exited during start-up ({status})")));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(server.failure("no OK from HEALTH within the start-up timeout"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// A new connection to the running server.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.files.socket)
            .map_err(|e| self.failure(&format!("connect {}: {e}", self.files.socket.display())))
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// `SIGKILL`s the server and waits for it to end (what dropping it
    /// does; the name says why at the call site).
    pub fn kill(self) {}

    /// `what`, followed by everything the server wrote to stderr.
    pub fn failure(&self, what: &str) -> String {
        let log = std::fs::read_to_string(&self.files.stderr).unwrap_or_default();
        format!("xic-serve: {what}\n--- server stderr ---\n{log}")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the reply line (terminator
    /// stripped). A closed connection is an error.
    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.line.clear();
        self.line.push_str(request);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }
}

/// What one request came back with.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Send → reply-line latency in nanoseconds.
    pub nanos: u64,
    /// The reply line, or the transport error that replaced it.
    pub reply: Result<String, String>,
}

/// Drives `streams` (positions in `plan`) closed-loop, one connection and one thread each:
/// a client sends its next request only when the previous reply has
/// arrived. All clients start together; returns each stream's exchanges
/// and the seconds from the common start to the last reply.
pub fn drive(
    server: &Server,
    plan: &Plan,
    streams: &[Vec<(usize, usize)>],
) -> Result<(Vec<Vec<Exchange>>, f64), String> {
    let mut clients = Vec::with_capacity(streams.len());
    for _ in streams {
        clients.push(server.connect()?);
    }
    // Rendered before the clock starts: formatting is not the server's.
    let lines: Vec<Vec<String>> = streams
        .iter()
        .map(|s| s.iter().map(|&p| plan.at(p).line()).collect())
        .collect();
    let barrier = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&lines)
            .map(|(mut client, lines)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(lines.len());
                    barrier.wait();
                    for line in lines {
                        let sent = Instant::now();
                        let reply = client
                            .call(line)
                            .map(str::to_string)
                            .map_err(|e| e.to_string());
                        out.push(Exchange {
                            nanos: sent.elapsed().as_nanos() as u64,
                            reply,
                        });
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let mut exchanges = Vec::with_capacity(handles.len());
        let mut finished = started;
        for handle in handles {
            let (out, at) = handle
                .join()
                .map_err(|_| "client thread panicked".to_string())?;
            finished = finished.max(at);
            exchanges.push(out);
        }
        Ok((exchanges, finished.duration_since(started).as_secs_f64()))
    })
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
