//! Process-level restart test for `xic-serve` without `--shards`: a
//! commit acknowledged by one run must still be there in the next run
//! over the same `--store` directory or `--journal` file.

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

/// One stdin-mode run of the server: feeds `requests`, returns the reply
/// lines.
fn serve(dir: &Path, storage: &[&str], requests: &str) -> Vec<String> {
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
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xic-serve");
    child.stdin.take().expect("stdin").write_all(requests.as_bytes()).expect("send requests");
    let output = child.wait_with_output().expect("xic-serve exits");
    assert!(output.status.success(), "xic-serve failed: {:?}", output.status);
    String::from_utf8(output.stdout).expect("utf-8 replies").lines().map(str::to_string).collect()
}

/// Commits one statement in a first run and asks a second run for the
/// version.
fn commit_then_restart(tag: &str, flag: &str, target: &str) {
    let dir = scratch(tag);
    let target = dir.join(target);
    let storage = [flag, target.to_str().expect("utf-8 path")];

    let replies = serve(&dir, &storage, &format!("UPDATE {LEGAL}\nQUIT\n"));
    assert_eq!(replies, ["OK 1 APPLIED optimized", "BYE"]);

    let replies = serve(&dir, &storage, "VERSION\nCHECK\nQUIT\n");
    assert_eq!(replies[0].trim_end(), "OK 1", "the acknowledged commit was discarded on restart");
    assert_eq!(replies[1], "OK 1 CONSISTENT");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_survives_a_restart() {
    commit_then_restart("store", "--store", "store");
}

#[test]
fn journal_survives_a_restart() {
    commit_then_restart("journal", "--journal", "doc.wal");
}
