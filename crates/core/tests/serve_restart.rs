//! Process-level restart test for `xic-serve` without `--shards`: a
//! commit acknowledged by one run must still be there in the next run
//! over the same `--store` directory; a directory that is not a store,
//! the flags that left with the modes they selected (`--journal`,
//! `--executor`, `--max-batch`) and a value on a boolean flag are refused
//! with one line.

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

/// Commits one statement in a first run and asks a second run for the
/// version.
#[test]
fn store_survives_a_restart() {
    let dir = scratch("store");
    let target = dir.join("store");
    let storage = ["--store", target.to_str().expect("utf-8 path")];

    let replies = serve(&dir, &storage, &format!("UPDATE {LEGAL}\nQUIT\n"));
    assert_eq!(replies, ["OK 1 APPLIED optimized", "BYE"]);

    let replies = serve(&dir, &storage, "VERSION\nCHECK\nQUIT\n");
    assert_eq!(replies[0].trim_end(), "OK 1", "the acknowledged commit was discarded on restart");
    assert_eq!(replies[1], "OK 1 CONSISTENT");
    let _ = std::fs::remove_dir_all(&dir);
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
