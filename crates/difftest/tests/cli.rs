//! The `difftest` binary end to end: every row of its mode table runs
//! through the one runner, every misuse is refused before anything runs,
//! and the fault pass's Kill cases drive the `xic-serve` built beside the
//! binary (`cargo test --workspace` builds both) or fail naming the build.

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
        ("--crash-states", "crash-states:"),
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
        &["--faults", "--sites", "journal"],
        &["--faults", "--cases", "x"],
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

/// Seeds 9 and 18 are Kill cases, one per K-class: a live server is
/// SIGKILLed, its root recovered, and it is restarted over the root.
#[test]
fn kill_cases_sigkill_a_live_server_in_both_k_classes() {
    let cwd = scratch("kill");
    for (seed, column) in [("9", "0/1"), ("18", "1/0")] {
        let out = difftest(&cwd, &["--faults", "--cases", "1", "--seed", seed]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains("1 live servers killed"), "{stdout}");
        let coverage = format!("killed (Kill K=1 / Kill K≥2): {column}\n");
        assert!(stdout.ends_with(&coverage), "{stdout}");
    }
    let left_behind: Vec<_> = std::fs::read_dir(&cwd).expect("list cwd").collect();
    assert!(left_behind.is_empty(), "a Kill wrote into its working directory: {left_behind:?}");
    let _ = std::fs::remove_dir_all(&cwd);
}

/// Without a server beside the binary, a Kill case fails and names the
/// build; it is never skipped.
#[test]
fn a_kill_without_xic_serve_fails_naming_the_build() {
    let cwd = scratch("no-server");
    let lone = cwd.join("difftest");
    std::fs::copy(env!("CARGO_BIN_EXE_difftest"), &lone).expect("copy the binary");
    let out = Command::new(&lone)
        .args(["--faults", "--cases", "1", "--seed", "9"])
        .current_dir(&cwd)
        .output()
        .expect("spawn difftest");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("xic-serve not found"), "{stderr}");
    assert!(stderr.contains("cargo build --release"), "{stderr}");
    let _ = std::fs::remove_dir_all(&cwd);
}
