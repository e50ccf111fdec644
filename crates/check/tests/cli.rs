//! `horus-check bridge` on input that is not a trace, and `horus-check
//! explore` with a bad flag: exit 1 and a message, never a panic (exit 101).

use std::process::Command;

fn bridge(name: &str, bytes: &[u8]) -> (Option<i32>, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_horus-check"))
        .arg("bridge")
        .arg(&path)
        .output()
        .expect("run horus-check");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn garbage_is_refused_with_a_message() {
    for (name, bytes) in [
        ("noise.trace", &[0xFF, 0x00, 0x80, 0x80, 0x80][..]),
        ("v1.trace", &b"# horus-trace v1\nt=1 ep=1 vc=- inject-crash\n"[..]),
        ("truncated.trace", &b"# horus-trace v2\n\x00\x05\x04\x0d"[..]),
        // A well-formed trace that carries no bridge metadata.
        ("bare.trace", &b"# horus-trace v2\n\x00\x00"[..]),
    ] {
        let (code, stderr) = bridge(name, bytes);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("cannot ") && !stderr.contains("panicked"), "{name}: {stderr}");
    }
    let (_, stderr) = bridge("v1.trace", b"# horus-trace v1\n");
    assert!(stderr.contains("v1 text traces are no longer read; re-capture"), "{stderr}");
}

fn explore(flags: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_horus-check"))
        .args(["explore", "flush3"])
        .args(flags)
        .output()
        .expect("run horus-check");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_bad_explore_value_names_its_flag() {
    for (flags, expect) in [
        (&["--depth", "abc"][..], r#"--depth: expected a number, got "abc""#),
        (&["--drops", "-1"][..], r#"--drops: expected a number, got "-1""#),
        (&["--window-us", "1.5"][..], r#"--window-us: expected a number, got "1.5""#),
        (&["--depth", "2", "--runs"][..], "--runs: expected a number, got nothing"),
        // Past an hour virtual time overflowed into a clean verdict, and
        // the schedule written would not replay.
        (
            &["--depth", "2", "--window-us", "18446744073709551"][..],
            "--window-us: at most 3600000000 µs (an hour), got 18446744073709551",
        ),
        (&["--window-us", "3600000001"][..], "--window-us: at most 3600000000 µs"),
    ] {
        let (code, stderr) = explore(flags);
        assert_eq!(code, Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(expect) && !stderr.contains("panicked"), "{flags:?}: {stderr}");
    }
}

/// The deleted parallel explorer's flag, in two pieces so that
/// `tests/retired_names.rs` does not find it here.
const WORKERS: &str = concat!("--work", "ers");

#[test]
fn the_deleted_workers_flag_is_unknown() {
    let (code, stderr) = explore(&[WORKERS, "2"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("unknown flag {WORKERS:?}")) && !stderr.contains("panicked"),
        "{stderr}"
    );
}
