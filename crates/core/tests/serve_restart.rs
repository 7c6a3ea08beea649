//! Process-level start-up tests for a one-document `xic-serve`: a
//! directory that is not a store (a store written straight into `DIR`
//! rather than `DIR/shard-0/` included), a `--socket` path that holds
//! anything but a socket, the flags that left with the modes they
//! selected (`--journal`, `--executor`, `--max-batch`) and a value on a
//! boolean flag are refused with one line; a store moved back into place
//! resumes after a graceful restart. That a store survives a SIGKILL of a
//! live server is the fault harness's Kill row (`xic-difftest --faults`).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n\
    <!ELEMENT aut (name)>\n<!ELEMENT review (track)+>\n\
    <!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT auts (name)>\n<!ELEMENT name (#PCDATA)>";

const CORPUS: &str = "<collection><dblp>\
    <pub><title>P1</title><aut><name>ann</name></aut><aut><name>bob</name></aut></pub>\
    </dblp><review><track><name>T</name>\
    <rev><name>dan</name><sub><title>S2</title><auts><name>eve</name></auts></sub></rev>\
    </track></review></collection>";

const CONFLICT: &str = "<- //rev[name/text() -> R]/sub/auts/name/text() -> A & A = R";

const LEGAL: &str = "<xupdate:modifications xmlns:xupdate=\"http://www.xmldb.org/xupdate\">\
    <xupdate:append select=\"//rev[name/text() = 'dan']\">\
    <sub><title>New</title><auts><name>zoe</name></auts></sub>\
    </xupdate:append></xupdate:modifications>";

/// A scratch directory holding the three input files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xic-serve-restart-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("doc.xml"), CORPUS).expect("write xml");
    std::fs::write(dir.join("schema.dtd"), DTD).expect("write dtd");
    std::fs::write(dir.join("gamma.xpl"), CONFLICT).expect("write constraints");
    dir
}

/// One stdin-mode run of the server: feeds `requests`, returns the
/// process output.
fn run(dir: &Path, storage: &[&str], requests: &str) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xic-serve"))
        .arg("--xml")
        .arg(dir.join("doc.xml"))
        .arg("--dtd")
        .arg(dir.join("schema.dtd"))
        .arg("--constraints")
        .arg(dir.join("gamma.xpl"))
        .args(storage)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn xic-serve");
    // A server that refuses to start may be gone before the write lands.
    let _ = child.stdin.take().expect("stdin").write_all(requests.as_bytes());
    child.wait_with_output().expect("xic-serve exits")
}

/// A run that must succeed: the reply lines.
fn serve(dir: &Path, storage: &[&str], requests: &str) -> Vec<String> {
    let output = run(dir, storage, requests);
    assert!(output.status.success(), "xic-serve failed: {:?}", output.status);
    String::from_utf8(output.stdout).expect("utf-8 replies").lines().map(str::to_string).collect()
}

/// A run that must be refused at startup: exit 1, nothing served, and
/// one `xic-serve:` line on stderr, which is returned.
fn refused(dir: &Path, storage: &[&str]) -> String {
    let output = run(dir, storage, "VERSION\nQUIT\n");
    assert_eq!(output.status.code(), Some(1), "{:?}", output.status);
    assert!(output.stdout.is_empty(), "a refused server must not answer");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(stderr.starts_with("xic-serve: ") && stderr.lines().count() == 1, "{stderr}");
    stderr
}

#[test]
fn journal_flag_is_refused() {
    let dir = scratch("journal");
    let target = dir.join("doc.wal");
    let line = refused(&dir, &["--journal", target.to_str().expect("utf-8 path")]);
    assert!(line.contains("--journal"), "{line}");
    assert!(!target.exists(), "nothing may be created for a refused flag");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablation_flags_and_valued_booleans_are_refused() {
    let dir = scratch("flags");
    // A value on a boolean is refused, not read as the bare flag (which
    // would turn sync off).
    for args in [&["--executor", "sync"][..], &["--max-batch", "4"], &["--no-sync=false"]] {
        let line = refused(&dir, args);
        assert!(line.contains(args[0].split('=').next().expect("flag name")), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_over_a_foreign_directory_is_refused() {
    // The scratch directory holds the three input files: not a store.
    let dir = scratch("foreign");
    let line = refused(&dir, &["--store", dir.to_str().expect("utf-8 path")]);
    assert!(line.contains("unrecognized entry"), "{line}");
    assert!(dir.join("doc.xml").exists(), "a refusal must leave the directory alone");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store whose generations sit in `DIR` itself, not in `DIR/shard-0/`,
/// is refused by name and left as it is; moved into `shard-0/`, it
/// resumes.
#[test]
fn store_files_outside_a_shard_directory_are_refused() {
    let dir = scratch("flat-store");
    let target = dir.join("store");
    let storage = ["--store", target.to_str().expect("utf-8 path")];
    let replies = serve(&dir, &storage, &format!("UPDATE {LEGAL}\nQUIT\n"));
    assert_eq!(replies, ["OK 1 APPLIED optimized", "BYE"]);

    let (nested, flat) = (target.join("shard-0").join("gen-0.wal"), target.join("gen-0.wal"));
    std::fs::rename(&nested, &flat).expect("move the journal out of shard-0");
    std::fs::remove_dir(target.join("shard-0")).expect("rmdir shard-0");
    let line = refused(&dir, &storage);
    assert!(line.contains("unrecognized entry \"gen-0.wal\""), "{line}");
    assert!(flat.exists(), "a refusal must leave the store alone");

    std::fs::create_dir(target.join("shard-0")).expect("mkdir shard-0");
    std::fs::rename(&flat, &nested).expect("move the journal back");
    assert_eq!(serve(&dir, &storage, "VERSION\nQUIT\n"), ["OK 1", "BYE"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--socket` path holding a regular file or a symlink is refused
/// before the store is opened: the entry is left as it was, and no store
/// is created.
#[test]
fn a_socket_path_that_is_not_a_socket_is_refused() {
    let dir = scratch("socket");
    let target = dir.join("store");
    let (file, link) = (dir.join("notes.txt"), dir.join("link"));
    std::fs::write(&file, "keep me").expect("write file");
    std::os::unix::fs::symlink(dir.join("doc.xml"), &link).expect("symlink");
    for path in [&file, &link] {
        let socket = path.to_str().expect("utf-8 path");
        let store = target.to_str().expect("utf-8 path");
        let line = refused(&dir, &["--store", store, "--socket", socket]);
        assert!(line.contains("is not a socket"), "{line}");
        assert!(!target.exists(), "a refusal must create no store");
    }
    assert_eq!(std::fs::read_to_string(&file).expect("file intact"), "keep me");
    assert!(std::fs::symlink_metadata(&link).expect("link intact").file_type().is_symlink());
    assert_eq!(std::fs::read_to_string(dir.join("doc.xml")).expect("link target intact"), CORPUS);
    let _ = std::fs::remove_dir_all(&dir);
}
