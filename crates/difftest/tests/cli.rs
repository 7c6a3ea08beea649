//! The `difftest` binary end to end: every row of its mode table runs
//! through the one runner, and every misuse is refused before anything
//! runs.

use std::path::Path;
use std::process::{Command, Output};

fn difftest(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_difftest"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn difftest")
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xic-difftest-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

#[test]
fn every_row_passes_prints_one_summary_line_and_writes_nothing() {
    let rows = [
        ("", "difftest:"),
        ("--multi-op", "multi-op:"),
        ("--faults", "faults:"),
        ("--snapshot-decide", "snapshot-decide:"),
        ("--pattern-digest", "pattern-digest:"),
    ];
    let cwd = scratch("rows");
    for (flag, name) in rows {
        let mut args = vec!["--cases", "2", "--seed", "1"];
        if !flag.is_empty() {
            args.push(flag);
        }
        let out = difftest(&cwd, &args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}: {stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            stdout.lines().filter(|line| line.starts_with(name)).count(),
            1,
            "{flag}: {stdout}"
        );
        assert!(stdout.lines().next().is_some_and(|line| line.starts_with(name)), "{flag}: {stdout}");
        let left_behind: Vec<_> = std::fs::read_dir(&cwd).expect("list cwd").collect();
        assert!(left_behind.is_empty(), "{flag} wrote into its working directory: {left_behind:?}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn misuse_exits_2_with_one_difftest_line() {
    let misuses: [&[&str]; 8] = [
        &["--cases", "0"],
        &["--faults", "--snapshot-decide"],
        &["--multi-op", "--faults"],
        &["--sites", "journal"],
        &["--faults", "--sites", "no-such-site"],
        &["--dump", "--faults"],
        &["--out", "f"],
        &["--frobnicate"],
    ];
    let cwd = scratch("misuse");
    for args in misuses {
        let out = difftest(&cwd, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a summary");
        assert_eq!(
            stderr.lines().filter(|line| line.starts_with("difftest:")).count(),
            1,
            "{args:?}: {stderr}"
        );
    }
    assert!(!cwd.join("f").exists(), "--out is gone, nothing may be written");
    let _ = std::fs::remove_dir_all(&cwd);
}
