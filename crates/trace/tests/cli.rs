//! `horus-trace` end to end: input that is not a trace, an unknown
//! `--kind` or a bad `--ep` is exit 1 and a message, never a panic (exit
//! 101); `diff` is exit 0 on equal projections and exit 2, naming each
//! differing stream and kind once, on unequal ones.

use std::process::Command;

fn stats(name: &str, bytes: &[u8]) -> (Option<i32>, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_horus-trace"))
        .arg("stats")
        .arg(&path)
        .output()
        .expect("run horus-trace");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn garbage_is_refused_with_a_message() {
    for (name, bytes) in [
        ("noise.trace", &[0xFF, 0x00, 0x80, 0x80, 0x80][..]),
        ("v1.trace", &b"# horus-trace v1\nt=1 ep=1 vc=- inject-crash\n"[..]),
        ("truncated.trace", &b"# horus-trace v2\n\x00\x05\x04\x0d"[..]),
    ] {
        let (code, stderr) = stats(name, bytes);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with("error: ") && !stderr.contains("panicked"), "{name}: {stderr}");
    }
    let (_, stderr) = stats("v1.trace", b"# horus-trace v1\n");
    assert!(stderr.contains("v1 text traces are no longer read; re-capture"), "{stderr}");
}

/// Runs `horus-trace` with `args`: exit code, stdout, stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_horus-trace"))
        .args(args)
        .output()
        .expect("run horus-trace");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

/// Writes a trace of CAST deliveries from `ep:1` at `ep:2`, one per digest.
fn casts(name: &str, digests: &[u64]) -> String {
    use horus_core::trace::TraceKind;
    use horus_core::{EndpointAddr, SimTime};
    let records: Vec<_> = digests
        .iter()
        .map(|&digest| horus_trace::TraceRecord {
            at: SimTime::from_nanos(digest),
            ep: EndpointAddr::new(2),
            clock: vec![],
            kind: TraceKind::Deliver { kind: "CAST", src: 1, digest },
        })
        .collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, horus_trace::serialize_trace_v2(&[], &records)).expect("write trace");
    path.to_string_lossy().into_owned()
}

#[test]
fn diff_names_each_differing_stream_and_kind_once() {
    let (a, b) = (casts("diff-a.trace", &[1, 2]), casts("diff-b.trace", &[1, 3, 4]));
    let (code, stdout, _) = run(&["diff", &a, &a]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("delivery projections match (1 streams)"), "{stdout}");
    let (code, stdout, _) = run(&["diff", &a, &b]);
    assert_eq!(code, Some(2), "{stdout}");
    let lines = |prefix: &str| stdout.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(lines("stream ep:1 -> ep:2 differs: 2 vs 3 casts"), 1, "{stdout}");
    assert_eq!(lines("  deliver"), 1, "{stdout}");
    assert!(stdout.contains("records first diverge at index 1 (deliver vs deliver)"), "{stdout}");
}

#[test]
fn dump_refuses_an_unknown_kind_and_a_bad_endpoint() {
    let file = casts("dump.trace", &[1]);
    let (code, stdout, stderr) = run(&["dump", &file, "--kind", "bogus"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stderr.contains("unknown kind \"bogus\""), "{stderr}");
    let (code, _, stderr) = run(&["dump", &file, "--ep", "two"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("--ep") && stderr.contains("\"two\""), "{stderr}");
    let (code, stdout, _) = run(&["dump", &file, "--kind", "deliver", "--ep", "2"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout, "t=1 ep=2 vc=- deliver kind=CAST src=1 digest=1\n");
}
